"""Property tests for Zariski decompositions and the blowup laws on
hypothesis-drawn graphs.

Graphs are connected (a random tree plus an optional extra edge, with
multiplicities 1-2), have at most 7 vertices and must be negative definite;
divisors are rational. Towers add up to 4 free or satellite blowups, so a
top model has at most 11 vertices and stays in the oracle's range. The
settings are derandomized with a fixed example count, so every run draws
the same cases.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from singvol import (  # noqa: E402
    FreeBlowup,
    ModelTower,
    ResolutionGraph,
    SatelliteBlowup,
    invariance_report,
    nef_envelope_trace,
    zariski_oracle,
)
from singvol.errors import MalformedInputError  # noqa: E402

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def graphs_with_divisors(draw):
    r = draw(st.integers(1, 7))
    vertices = [
        (f"v{k}", -draw(st.integers(2, 6)), draw(st.sampled_from([0, 0, 0, 1, 2])))
        for k in range(r)
    ]
    edges = [
        (f"v{draw(st.integers(0, k - 1))}", f"v{k}", draw(st.integers(1, 2)))
        for k in range(1, r)
    ]
    if r >= 3 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        edges.append((f"v{i}", f"v{j}", 1))
    try:
        graph = ResolutionGraph.make(vertices, edges)
    except MalformedInputError:  # not negative definite
        assume(False)
    coeffs = draw(st.lists(RATIONALS, min_size=r, max_size=r))
    return graph, graph.divisor([Fraction(c) for c in coeffs])


SETTINGS = dict(derandomize=True, deadline=None, database=None)


@settings(max_examples=150, **SETTINGS)
@given(graphs_with_divisors())
def test_trace_satisfies_kkt_and_equals_oracle(case) -> None:
    graph, a = case
    dec = nef_envelope_trace(graph, a)
    assert (dec.p + dec.n).coeffs == a.coeffs
    assert dec.n.coeffs.is_nonnegative()
    assert dec.p.intersections().is_nonnegative()
    assert graph.intersection_form.pair(dec.p.coeffs, dec.n.coeffs) == 0
    assert zariski_oracle(graph, a) == dec


def _draw_step(data, model: ResolutionGraph):
    """A free blowup at a drawn vertex, or a satellite one at a drawn edge."""
    if model.edges and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(model.edges) - 1))
        e = model.edges[k]
        # the index of edge k among the parallel edge records joining e.i, e.j
        return SatelliteBlowup(e.i, e.j, sum(f.joins(e.i, e.j) for f in model.edges[:k]))
    return FreeBlowup(data.draw(st.sampled_from(model.ids)))


@settings(max_examples=60, **SETTINGS)
@given(graphs_with_divisors(), st.data())
def test_blowups_keep_the_volume_and_pull_the_envelope_back(case, data) -> None:
    graph, a = case
    count = data.draw(st.integers(1, 4))
    tower = ModelTower(graph, [lambda model: _draw_step(data, model)] * count)
    assert invariance_report(tower).ok
    assert {report.volume for report in tower.volumes} == {tower.volumes[0].volume}
    p = nef_envelope_trace(graph, a).p
    for t in range(count):
        a, p = tower.pullback(t, a), tower.pullback(t, p)
    # the subset oracle on the top model is a route independent of the trace
    assert zariski_oracle(tower.top, a).p == p
