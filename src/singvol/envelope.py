r"""Relative Zariski decompositions over a negative-definite curve lattice.

For an exceptional divisor ``A`` on a resolution graph, the nef envelope is
the componentwise-largest divisor ``P <= A`` with ``P . E_j >= 0`` for all
vertices; it exists because the feasible set is nonempty, closed under
componentwise max (the off-diagonal intersection numbers are nonnegative)
and bounded above by ``A``. Writing ``N = A - P`` gives the relative
Zariski decomposition: ``N >= 0``, ``P`` nef, and ``P . E_j = 0`` wherever
``N_j > 0`` (complementarity).

Two independent routes are provided and kept separate on purpose:

* :func:`nef_envelope_trace`, the production active-set iteration, at most
  one linear solve per vertex;
* :func:`zariski_oracle`, brute force over all ``2^r`` candidate active
  sets, used as ground truth at small sizes.

The volume of the singularity is ``-P . P`` for ``A`` the log-discrepancy
divisor; it is nonnegative and vanishes exactly in the log canonical case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InternalConsistencyError, OracleSizeError
from .graph import ExcDivisor, ResolutionGraph
from .lattice import QVector


@dataclass(frozen=True)
class ZariskiDecomposition:
    """``A = P + N`` with ``P`` nef, ``N >= 0`` supported on ``active``.

    ``active`` is normalized to the support of ``N``; complementarity
    guarantees ``P . E_j = 0`` there, so the field is a pure function of
    the decomposition and the two computation routes are comparable.
    """

    p: ExcDivisor
    n: ExcDivisor
    active: frozenset[str]

    def to_doc(self) -> dict:
        return {
            "P": self.p.to_doc(),
            "N": self.n.to_doc(),
            "active": sorted(self.active),
        }


@dataclass(frozen=True)
class VolumeReport:
    volume: Fraction
    decomposition: ZariskiDecomposition
    is_lc: bool

    def to_doc(self) -> dict:
        from .lattice import rat_str

        doc = self.decomposition.to_doc()
        doc["volume"] = rat_str(self.volume)
        doc["is_lc"] = self.is_lc
        return doc


def _solve_on_support(
    graph: ResolutionGraph, support: tuple[int, ...], target: QVector
) -> QVector:
    """The divisor supported on ``support`` whose intersections there match
    ``target``; unique because principal submatrices stay negative definite."""
    if not support:
        return QVector.zero(len(graph.vertices))
    return graph.intersection_form.solve(target, support)


def _finish(graph: ResolutionGraph, a: ExcDivisor, n_coeffs: QVector) -> ZariskiDecomposition:
    n_div = ExcDivisor(graph, n_coeffs)
    p_div = a - n_div
    if not n_coeffs.is_nonnegative():
        raise InternalConsistencyError(
            f"negative part has a negative coefficient: N = {n_coeffs!r}"
        )
    if not p_div.intersections().is_nonnegative():
        raise InternalConsistencyError("claimed nef part meets a curve negatively")
    if graph.intersection_form.pair(p_div.coeffs, n_div.coeffs) != 0:
        raise InternalConsistencyError("P and N are not orthogonal")
    active = frozenset(
        v.id for v, c in zip(graph.vertices, n_coeffs) if c != 0
    )
    return ZariskiDecomposition(p=p_div, n=n_div, active=active)


def nef_envelope_trace(graph: ResolutionGraph, a: ExcDivisor) -> ZariskiDecomposition:
    """Active-set computation of the nef envelope of ``A``.

    Start from the vertices ``A`` meets negatively, solve for the negative
    part on that set, then grow the set by every vertex the candidate nef
    part still meets negatively. The set only grows, so at most ``r``
    rounds run. The final ``N`` must be nonnegative; if not, that is an
    internal error, never repaired silently.
    """
    if a.graph != graph:
        a = ExcDivisor(graph, a.coeffs)  # revalidates the length
    m_a = a.intersections()
    working = {j for j, x in enumerate(m_a) if x < 0}
    rounds = 0
    while True:
        rounds += 1
        if rounds > len(graph.vertices) + 1:
            raise InternalConsistencyError("active set failed to stabilize")
        n_coeffs = _solve_on_support(graph, tuple(sorted(working)), m_a)
        p_ints = graph.intersection_form.apply(a.coeffs - n_coeffs)
        violators = {
            j for j, x in enumerate(p_ints) if j not in working and x < 0
        }
        if not violators:
            break
        working |= violators
    return _finish(graph, a, n_coeffs)


def zariski_oracle(
    graph: ResolutionGraph, a: ExcDivisor, max_vertices: int = 12
) -> ZariskiDecomposition:
    """Exponential ground-truth envelope: try every candidate active set.

    For each subset ``S`` of vertices solve the complementarity system
    (``N`` supported on ``S`` with ``N . E_j = A . E_j`` there), keep the
    candidates with ``N >= 0`` and ``P . E_j >= 0`` everywhere, and return
    the componentwise-maximal ``P``. Existence and uniqueness of the
    maximal element are asserted, not assumed.
    """
    r = len(graph.vertices)
    if r > max_vertices:
        raise OracleSizeError(
            f"oracle bound exceeded: {r} vertices > {max_vertices}"
        )
    if a.graph != graph:
        a = ExcDivisor(graph, a.coeffs)
    m_a = a.intersections()
    form = graph.intersection_form
    feasible: list[QVector] = []
    for size in range(r + 1):
        for subset in combinations(range(r), size):
            n_coeffs = _solve_on_support(graph, subset, m_a)
            if not n_coeffs.is_nonnegative():
                continue
            p = a.coeffs - n_coeffs
            if form.apply(p).is_nonnegative():
                feasible.append(p)
    if not feasible:
        raise InternalConsistencyError("no feasible Zariski candidate found")
    p_max = QVector(max(vals) for vals in zip(*feasible))
    if p_max not in feasible:
        raise InternalConsistencyError(
            "feasible candidates have no componentwise-maximal element"
        )
    return _finish(graph, a, a.coeffs - p_max)


def volume(graph: ResolutionGraph) -> VolumeReport:
    """Exact volume of the singularity described by the graph.

    Takes ``A`` = log-discrepancy divisor, computes its nef envelope ``P``
    and returns ``-P . P``. Zero exactly in the log canonical case:
    nonnegative ``A`` forces ``P = 0``, while a negative entry of ``A``
    pins ``P != 0`` and negative definiteness makes ``-P . P > 0``.
    """
    a = graph.log_discrepancy_divisor()
    dec = nef_envelope_trace(graph, a)
    vol = -dec.p.self_intersection()
    is_lc = a.coeffs.is_nonnegative()
    if vol < 0:
        raise InternalConsistencyError(f"volume came out negative: {vol}")
    if (vol == 0) != is_lc:
        raise InternalConsistencyError(
            "volume vanishing disagrees with log canonicity"
        )
    return VolumeReport(volume=vol, decomposition=dec, is_lc=is_lc)
