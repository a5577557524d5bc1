"""Built-in graphs and cones."""

from fractions import Fraction

import pytest

from singvol import MalformedInputError, volume
from singvol.catalog import (
    a_n,
    cone_over_curve,
    cusp_cycle,
    d_n,
    e6,
    e7,
    e8,
    graph_by_name,
    simple_elliptic,
)
from singvol.cli import catalog_entries
from singvol.cone import cone_by_name

F = Fraction

ADE_NAMES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", ADE_NAMES)
def test_ade_graphs_are_canonical(name: str) -> None:
    g = graph_by_name(name)
    rep = g.discrepancy_report()
    # all (-2) rational vertices: pullback vanishes identically
    assert not any(rep.b.coeffs)
    assert all(x == 1 for x in rep.ell.coeffs)
    assert rep.is_lc
    assert volume(g).volume == 0


def test_ade_determinants() -> None:
    for n in range(1, 9):
        assert abs(a_n(n).intersection_form.det()) == n + 1
    for n in range(4, 9):
        assert abs(d_n(n).intersection_form.det()) == 4
    assert abs(e6().intersection_form.det()) == 3
    assert abs(e7().intersection_form.det()) == 2
    assert abs(e8().intersection_form.det()) == 1


def test_e8_shape() -> None:
    g = e8()
    assert len(g.ids) == 8
    assert all(v.self_int == -2 and v.genus == 0 for v in g.vertices)
    degrees = sorted(sum(1 for e in g.edges if vid in (e.i, e.j)) for vid in g.ids)
    assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_simple_elliptic_is_lc_not_klt(d: int) -> None:
    g = simple_elliptic(d)
    rep = g.discrepancy_report()
    assert rep.b.coeffs == (F(1),)
    assert rep.ell.coeffs == (F(0),)
    assert rep.is_lc
    assert volume(g).volume == 0


@pytest.mark.parametrize("length", [3, 4, 5, 6])
def test_cusp_cycles_are_lc_not_klt(length: int) -> None:
    g = cusp_cycle(length)
    assert len(g.ids) == length
    rep = g.discrepancy_report()
    assert all(x == 0 for x in rep.ell.coeffs)
    assert rep.is_lc
    assert volume(g).volume == 0


def test_cusp_cycle_minimum_length() -> None:
    with pytest.raises(MalformedInputError):
        cusp_cycle(2)


@pytest.mark.parametrize("g, d", [(2, 1), (2, 2), (3, 1), (5, 4)])
def test_cone_over_curve_is_not_lc(g: int, d: int) -> None:
    graph = cone_over_curve(g, d)
    rep = graph.discrepancy_report()
    assert not rep.is_lc
    assert volume(graph).volume == F((2 * g - 2) ** 2, d)


def test_graph_name_patterns() -> None:
    assert graph_by_name("A3").ids == a_n(3).ids
    assert graph_by_name("cusp-4").ids == cusp_cycle(4).ids
    assert graph_by_name("simple-elliptic-2").vertices == simple_elliptic(2).vertices
    assert graph_by_name("cone-g2-d1").vertices == cone_over_curve(2, 1).vertices
    assert graph_by_name("cone-g0-d1").vertices[0].genus == 0  # the least genus a cone takes


@pytest.mark.parametrize("name", ["Q5", "A0", "cusp-2", "cone-g1-d0", "E9", ""])
def test_bad_names_rejected(name: str) -> None:
    with pytest.raises(MalformedInputError):
        graph_by_name(name)
    with pytest.raises(MalformedInputError):
        cone_by_name(name)


def test_cone_names() -> None:
    c = cone_by_name("paper-ruled-surface")
    assert c.dim_x == 3
    assert cone_by_name("elliptic-cone").dim_x == 2
    assert cone_by_name("cone-g3-d2").dim_x == 2
    assert cone_by_name("elliptic-cone-2").h_power() > 0


def test_catalog_entries_lists_everything() -> None:
    entries = catalog_entries()
    assert entries["graphs"]["fixed"] == ["E6", "E7", "E8"]
    assert "paper-ruled-surface" in entries["cones"]["fixed"]
    graph_patterns = " ".join(entries["graphs"]["patterns"])
    for stem in ("A<n>", "D<n>", "cusp-", "simple-elliptic-", "cone-g"):
        assert stem in graph_patterns
    # every advertised fixed name resolves
    for name in entries["graphs"]["fixed"]:
        graph_by_name(name)
    for name in entries["cones"]["fixed"]:
        cone_by_name(name)


def test_oversized_pattern_names_are_refused_before_building() -> None:
    from singvol import DomainError
    from singvol.graph import MAX_GRAPH_VERTICES

    n = MAX_GRAPH_VERTICES
    assert len(graph_by_name(f"A{n}").vertices) == n
    for name in (f"A{n + 1}", f"D{n + 1}", f"cusp-{n + 1}", "A3000"):
        with pytest.raises(DomainError) as exc:
            graph_by_name(name)
        assert exc.value.reason == "too-large"
    with pytest.raises(MalformedInputError):
        graph_by_name("A0")
