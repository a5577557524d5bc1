"""Property tests for Zariski decompositions on hypothesis-drawn graphs.

Graphs are connected (a random tree plus an optional extra edge, with
multiplicities 1-2), have at most 7 vertices and must be negative definite;
divisors are rational. The settings are derandomized with a fixed example
count, so every run draws the same cases.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from singvol import ResolutionGraph, nef_envelope_trace, zariski_oracle  # noqa: E402
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


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(graphs_with_divisors())
def test_trace_satisfies_kkt_and_equals_oracle(case) -> None:
    graph, a = case
    dec = nef_envelope_trace(graph, a)
    assert (dec.p + dec.n).coeffs == a.coeffs
    assert dec.n.coeffs.is_nonnegative()
    assert dec.p.intersections().is_nonnegative()
    assert graph.intersection_form.pair(dec.p.coeffs, dec.n.coeffs) == 0
    assert zariski_oracle(graph, a) == dec
