"""Dual graphs, numerical pullback, log discrepancies."""

from fractions import Fraction
from random import Random

import pytest

from singvol import DomainError, Edge, MalformedInputError, ResolutionGraph, Vertex
from singvol.errors import InternalConsistencyError
from singvol.graph import ExcDivisor
from singvol.randgen import random_graph

F = Fraction


def two_vertex_example() -> ResolutionGraph:
    # genus-2 vertex with one rational (-2) neighbor
    return ResolutionGraph.make(
        (("c", -2, 2), ("t", -2, 0)),
        (("c", "t"),),
    )


def test_make_builds_vertices_edges_and_index() -> None:
    g = ResolutionGraph.make((("v1", -2, 0), ("v2", -3, 1)), (("v1", "v2", 2),))
    assert g.ids == ("v1", "v2")
    assert g.vertex("v2") == Vertex("v2", -3, 1)
    assert g.edges == (Edge("v1", "v2", 2),)
    assert g.index("v2") == 1


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ((), ()),                                          # empty
        ((("v", -2, 0), ("v", -3, 0)), ()),                # duplicate ids
        ((("v", 0, 0),), ()),                              # self_int must be <= -1
        ((("v", -2, -1),), ()),                            # genus must be >= 0
        ((("v", -2, 0),), (("v", "v"),)),                  # loop edge
        ((("a", -2, 0), ("b", -2, 0)), (("a", "b", 0),)),  # mult must be >= 1
        ((("a", -2, 0), ("b", -2, 0)), (("a", "c"),)),     # unknown endpoint
        ((("a", -2, 0), ("b", -2, 0)), ()),                # disconnected
        ((("a", -1, 0), ("b", -1, 0)), (("a", "b"),)),     # not negative definite
    ],
)
def test_make_rejects_malformed_graphs(vertices, edges) -> None:
    with pytest.raises(MalformedInputError):
        ResolutionGraph.make(vertices, edges)


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ((("a", True, 0), ("b", -2, 0)), (("a", "b"),)),    # self_int
        ((("a", -2, True), ("b", -2, 0)), (("a", "b"),)),   # genus
        ((("a", -2, False), ("b", -2, 0)), (("a", "b"),)),  # genus
        ((("a", -2, 0), ("b", -2, 0)), (("a", "b", True),)),  # mult
    ],
)
def test_make_rejects_bool_fields(vertices, edges) -> None:
    # bool is an int subclass; the library rejects it like the JSON reader does
    with pytest.raises(MalformedInputError):
        ResolutionGraph.make(vertices, edges)


def test_canonical_pullback_is_solved_once() -> None:
    g = two_vertex_example()
    assert g.mumford_pullback_canonical() is g.mumford_pullback_canonical()
    assert g.discrepancy_report().b is g.mumford_pullback_canonical()
    assert g.log_discrepancy_divisor() is g.discrepancy_report().ell


# (vertices, edges, components): each component alone is a valid graph
DISCONNECTED = {
    "isolated vertex first": ((("z", -2, 0), ("a", -2, 0), ("b", -2, 0)), (("a", "b"),),
                              ("z", "ab")),
    "isolated vertex last": ((("a", -2, 0), ("b", -2, 0), ("z", -2, 0)), (("a", "b"),),
                             ("ab", "z")),
    "cycle with a parallel edge": (  # a triangle with a doubled edge, and a chain
        (("a", -4, 0), ("b", -4, 0), ("c", -3, 0), ("d", -2, 0), ("e", -2, 0)),
        (("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("d", "e")),
        ("abc", "de"),
    ),
}


@pytest.mark.parametrize("case", sorted(DISCONNECTED))
def test_disconnected_graph_reason(case) -> None:
    vertices, edges, components = DISCONNECTED[case]
    for part in components:
        ResolutionGraph.make([v for v in vertices if v[0] in part],
                             [e for e in edges if e[0] in part])
    with pytest.raises(MalformedInputError) as exc:
        ResolutionGraph.make(vertices, edges)
    assert exc.value.reason == "not-connected"


def test_not_negative_definite_reason() -> None:
    with pytest.raises(MalformedInputError) as exc:
        ResolutionGraph.make((("a", -1, 0), ("b", -1, 0)), (("a", "b"),))
    assert exc.value.reason == "not-negative-definite"


def test_intersection_form_sums_parallel_edge_multiplicities() -> None:
    g = ResolutionGraph.make((("a", -3, 0), ("b", -3, 0)), (("a", "b", 2),))
    m = g.intersection_form
    assert m.entry(0, 0) == F(-3)
    assert m.entry(0, 1) == F(2)
    assert m.is_negative_definite()


def test_canonical_intersections_a1() -> None:
    g = ResolutionGraph.make((("v1", -2, 0),))
    assert g.canonical_intersections() == (F(0),)


def test_canonical_intersections_two_vertex() -> None:
    assert two_vertex_example().canonical_intersections() == (F(4), F(0))


def test_pullback_a1_is_zero() -> None:
    g = ResolutionGraph.make((("v1", -2, 0),))
    rep = g.discrepancy_report()
    assert rep.b.coeffs == (F(0),)
    assert rep.ell.coeffs == (F(1),)
    assert rep.is_lc
    assert rep.lc_mod_support == frozenset()


def test_pullback_genus_two_minus_one() -> None:
    g = ResolutionGraph.make((("v", -1, 2),))
    rep = g.discrepancy_report()
    assert rep.b.coeffs == (F(3),)
    assert rep.ell.coeffs == (F(-2),)
    assert not rep.is_lc
    assert rep.lc_mod_support == frozenset({"v"})


def test_pullback_genus_two_minus_two() -> None:
    g = ResolutionGraph.make((("v", -2, 2),))
    rep = g.discrepancy_report()
    assert rep.b.coeffs == (F(2),)
    assert rep.ell.coeffs == (F(-1),)


def test_pullback_two_vertex_support_is_both() -> None:
    # support must come from the solve, not from where the genus sits
    rep = two_vertex_example().discrepancy_report()
    assert rep.b.coeffs == (F(8, 3), F(4, 3))
    assert rep.ell.coeffs == (F(-5, 3), F(-1, 3))
    assert not rep.is_lc
    assert rep.lc_mod_support == frozenset({"c", "t"})


def test_cusp_cycle_is_lc_not_klt() -> None:
    g = ResolutionGraph.make(
        (("v1", -3, 0), ("v2", -3, 0), ("v3", -3, 0)),
        (("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
    )
    rep = g.discrepancy_report()
    assert rep.ell.coeffs == (F(0), F(0), F(0))
    assert rep.is_lc
    assert rep.lc_mod_support == frozenset()


def test_mixed_cycle_log_discrepancies_vanish() -> None:
    # any negative definite cycle: k = -M.1 so b = 1 and ell = 0
    g = ResolutionGraph.make(
        (("v1", -2, 0), ("v2", -4, 0), ("v3", -2, 0), ("v4", -3, 0)),
        (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1")),
    )
    rep = g.discrepancy_report()
    assert all(x == 0 for x in rep.ell.coeffs)


def test_divisor_arithmetic() -> None:
    g = two_vertex_example()
    d = g.divisor((F(1), F(-2)))
    e = g.basis_divisor("t")
    assert d.coeff("c") == F(1)
    assert (d + e).coeffs == (F(1), F(-1))
    assert (d - e).coeffs == (F(1), F(-3))
    assert (-d).coeffs == (F(-1), F(2))
    assert d.scale(F(1, 2)).coeffs == (F(1, 2), F(-1))
    assert g.zero_divisor().leq(e)
    assert not d.leq(g.zero_divisor())


def test_divisor_beyond_int_printing_is_too_large() -> None:
    # to_doc prints from the integers through the one guarded printer
    d = ExcDivisor.from_ints(two_vertex_example(), 7, [10 ** 4400, 1])
    with pytest.raises(DomainError) as err:
        d.to_doc()
    assert err.value.reason == "too-large"


def test_divisor_from_ints_checks_its_length() -> None:
    # from_ints goes through the one checked constructor, as graph.divisor does
    g = two_vertex_example()
    for nums in ([1], [1, 2, 3]):
        with pytest.raises(MalformedInputError, match="coefficients for 2 vertices"):
            ExcDivisor.from_ints(g, 1, nums)
        with pytest.raises(MalformedInputError, match="coefficients for 2 vertices"):
            g.divisor(nums)


def test_divisor_refuses_ints_that_are_not_canonical() -> None:
    # equality, hashing and to_doc read ints as (den, nums) in lowest terms
    # with den > 0, so the constructor refuses anything else
    g = two_vertex_example()
    for ints in [(2, (2, 4)), (-1, (1, 1)), (-2, (1, 1)), (0, (0, 0)), (0, (1, 1)), (3, (0, 0)),
                 (1, [1, 2]), (1, (1.0, 2)), (1.0, (1, 2)), (1, ("1", 2)),
                 5, (1,), [1, (1, 2)], (1, (1, 2), 3)]:
        with pytest.raises(MalformedInputError, match="divisor"):
            ExcDivisor(g, ints)
    d = ExcDivisor(g, (2, (1, 4)))
    assert d == ExcDivisor.from_ints(g, 4, [2, 8]) == g.divisor((F(1, 2), F(2)))
    assert hash(d) == hash(g.divisor((F(1, 2), F(2))))
    assert d.to_doc() == {"c": "1/2", "t": "2"}
    assert ExcDivisor(g, (1, (0, 0))) == g.zero_divisor()


def test_divisor_intersections_use_the_form() -> None:
    g = two_vertex_example()
    d = g.divisor((F(1), F(0)))
    assert d.intersections() == (F(-2), F(1))
    assert d.intersect("t") == F(1)
    assert d.self_intersection() == F(-2)


def test_adjunction_identity_seeded() -> None:
    # (K + B) . E_j = 0 for every j, by definition of the numerical pullback
    rng = Random(41)
    for _ in range(40):
        g = random_graph(rng, 5)
        b = g.mumford_pullback_canonical()
        lhs = b.intersections()
        k = g.canonical_intersections()
        assert (lhs + k).is_zero()


def test_pullback_nonnegative_when_canonical_nonnegative_seeded() -> None:
    rng = Random(42)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, 5)
        if all(x >= 0 for x in g.canonical_intersections()):
            assert g.mumford_pullback_canonical().coeffs.is_nonnegative()
            checked += 1
    assert checked >= 20


def test_not_lc_means_some_coefficient_exceeds_one_seeded() -> None:
    rng = Random(43)
    seen_not_lc = 0
    for _ in range(120):
        g = random_graph(rng, 5)
        rep = g.discrepancy_report()
        assert rep.is_lc == all(x >= 0 for x in rep.ell.coeffs)
        assert rep.ell.coeffs == tuple(1 - x for x in rep.b.coeffs)
        if not rep.is_lc:
            assert max(rep.b.coeffs) > 1
            seen_not_lc += 1
    assert seen_not_lc >= 5


def test_graph_doc_shape() -> None:
    doc = two_vertex_example().to_doc()
    assert doc["vertices"][0] == {"id": "c", "self_int": -2, "genus": 2}
    assert doc["edges"] == [{"i": "c", "j": "t", "mult": 1}]


@pytest.mark.parametrize("vertices", [
    [("v1", -2, 0), ("v2", -3, 0), ("v3", -2, 1)],
    [("v1", -3, 0), ("v2", -1, 0), ("v3", -4, 0)],  # a (-1)-vertex: k has a negative entry
])
def test_canonical_solve_is_certified_by_a_mat_vec(monkeypatch, vertices) -> None:
    # a wrong substitution must be caught by the M b = -k check in the same
    # call, also where the nonnegativity check does not apply
    from singvol import lattice

    substitute = lattice._substitute

    def wrong(factor, rhs):
        d, y = substitute(factor, rhs)
        return d, [y[0] + d, *y[1:]]

    graph = ResolutionGraph.make(vertices, [("v1", "v2"), ("v2", "v3")])
    assert graph.intersection_form.is_negative_definite()
    monkeypatch.setattr(lattice, "_substitute", wrong)
    with pytest.raises(InternalConsistencyError, match="M b = -k"):
        graph.mumford_pullback_canonical()
