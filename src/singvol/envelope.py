r"""Relative Zariski decompositions over a negative-definite curve lattice.

For an exceptional divisor ``A`` on a resolution graph, the nef envelope is
the componentwise-largest divisor ``P <= A`` with ``P . E_j >= 0`` for all
vertices; it exists because the feasible set is nonempty, closed under
componentwise max (the off-diagonal intersection numbers are nonnegative)
and bounded above by ``A``. Writing ``N = A - P`` gives the relative
Zariski decomposition: ``N >= 0``, ``P`` nef, and ``P . E_j = 0`` wherever
``N_j > 0`` (complementarity).

Two independent routes are provided and kept separate on purpose:

* :func:`nef_envelope_trace`, the production active-set iteration: one
  fraction-free factor per call, bordered by each round's new vertices so
  that every vertex is eliminated at most once, one integer substitution
  and integer sign tests per round; for ``A >= 0`` it runs no round, since
  every nef divisor is ``<= 0`` (``-M^-1 >= 0`` entrywise on a connected
  negative-definite graph) and so ``P = 0``;
* :func:`zariski_oracle`, brute force over all ``2^r`` candidate active
  sets, used as ground truth at small sizes.

Both end in :func:`_finish`, which certifies ``N >= 0``, ``P`` nef and
``P . N = 0`` by integer sign tests over one denominator.

The volume of the singularity is ``-P . P`` for ``A`` the log-discrepancy
divisor; it is nonnegative and vanishes exactly in the log canonical case.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InternalConsistencyError, OracleSizeError, SingularSystemError
from .graph import ExcDivisor, ResolutionGraph
from .lattice import QVector, _eliminate, _qvector, _substitute, numerators, rat_str
from .record import Record

# The most vertices the exponential oracle accepts (2^12 subsets).
ORACLE_MAX_VERTICES = 12


class ZariskiDecomposition(Record):
    """``A = P + N`` with ``P`` nef, ``N >= 0`` supported on ``active``.

    ``active`` is normalized to the support of ``N``; complementarity
    guarantees ``P . E_j = 0`` there, so the field is a pure function of
    the decomposition and the two computation routes are comparable.
    """

    __slots__ = _fields = ("p", "n", "active")

    def to_doc(self) -> dict:
        return {
            "P": self.p.to_doc(),
            "N": self.n.to_doc(),
            "active": sorted(self.active),
        }


class VolumeReport(Record):
    __slots__ = _fields = ("volume", "decomposition", "is_lc")

    def to_doc(self) -> dict:
        doc = self.decomposition.to_doc()
        doc["volume"] = rat_str(self.volume)
        doc["is_lc"] = self.is_lc
        return doc


def _finish(graph: ResolutionGraph, a: ExcDivisor, n_coeffs: QVector) -> ZariskiDecomposition:
    """Certify ``N`` as the negative part of ``A``, by integer sign tests
    over one denominator ``den``: ``den N >= 0``, ``L den (P . E_j) >= 0``
    and ``sum_j den N_j * L den (P . E_j) = 0``; return ``A = P + N``."""
    n_div = ExcDivisor(graph, n_coeffs)
    r = len(n_coeffs)
    den, nums = numerators((*a.coeffs, *n_coeffs))
    n_num = nums[r:]
    p_num = [x - v for x, v in zip(nums, n_num)]
    if min(n_num) < 0:
        raise InternalConsistencyError(
            f"negative part has a negative coefficient: N = {n_coeffs!r}"
        )
    sparse = graph.intersection_form._integral[1]
    mp = [sum([x * p_num[j] for j, x in row]) for row in sparse]
    if min(mp) < 0:
        raise InternalConsistencyError("claimed nef part meets a curve negatively")
    if sum(map(mul, n_num, mp)):
        raise InternalConsistencyError("P and N are not orthogonal")
    p_div = ExcDivisor(graph, QVector(Fraction(v, den) for v in p_num))
    active = frozenset(v.id for v, c in zip(graph.vertices, n_num) if c)
    return ZariskiDecomposition(p=p_div, n=n_div, active=active)


def nef_envelope_trace(graph: ResolutionGraph, a: ExcDivisor) -> ZariskiDecomposition:
    """Active-set computation of the nef envelope of ``A``.

    ``A >= 0`` runs no round: its envelope is ``P = 0`` (module docstring).
    Otherwise start from the vertices ``A`` meets negatively, solve for the
    negative part on that set, then grow the set by every vertex the
    candidate nef part still meets negatively. The set only grows, so at
    most ``r`` rounds run. One fraction-free factor of the working set lives
    for the whole call: each round borders it with the new vertices
    (:func:`~singvol.lattice._eliminate`), so every working vertex is
    eliminated once, and substitutes the integer right-hand side ``c = L
    den (A . E)`` through it; the sign tests are on integers, and only the
    returned ``N`` is made of ``Fraction``s. :func:`_finish` certifies the
    result; a failure is an internal error, never repaired silently.
    """
    if a.graph != graph:
        a = ExcDivisor(graph, a.coeffs)  # revalidates the length
    den, a_num = numerators(a.coeffs)
    if min(a_num) >= 0:
        return _finish(graph, a, a.coeffs)
    form = graph.intersection_form
    scale, sparse = form._integral
    c = [sum([x * a_num[j] for j, x in row]) for row in sparse]
    new = [j for j, x in enumerate(c) if x < 0]
    order: list[int] = []  # the working set in elimination order
    rim: set[int] = set()  # the neighbours of the working set outside it
    factor, q, y = None, 1, []
    while new:
        # appended in reverse so that vertices hanging off others come first
        order += sorted(new, reverse=True)
        factor = _eliminate(form._block(order, len(order) - len(new)), len(new), factor)
        # y = q L den N on the working set, where M N = A . E; q > 0, and the
        # solution is unique because principal submatrices stay negative
        # definite. q L (L den (P . E_j)) = q L c_j - (L M y)_j, and off the
        # working set only the rim can turn negative.
        q, y = _substitute(factor, [scale * c[i] for i in order])
        at = dict(zip(order, y))
        rim.update(j for i in new for j, _ in sparse[i])
        rim.difference_update(at)
        qc = q * scale
        new = [j for j in rim
               if qc * c[j] < sum([v * at[i] for i, v in sparse[j] if i in at])]
    n_coeffs = [Fraction(0)] * len(c)
    q *= scale * den
    for i, yi in zip(order, y):
        n_coeffs[i] = Fraction(yi, q)
    return _finish(graph, a, _qvector(n_coeffs))


def zariski_oracle(graph: ResolutionGraph, a: ExcDivisor) -> ZariskiDecomposition:
    """Exponential ground-truth envelope: try every candidate active set.

    For each subset ``S`` of vertices solve the complementarity system
    (``N`` supported on ``S`` with ``N . E_j = A . E_j`` there), keep the
    candidates with ``N >= 0`` and ``P . E_j >= 0`` everywhere, and return
    the componentwise-maximal ``P``. Existence and uniqueness of the
    maximal element are asserted, not assumed.

    The subsets are walked depth first, each extending its parent by one
    larger vertex, so each costs one pivot on its parent's elimination
    (:func:`_subset_walk`). Both feasibility tests are integer sign tests;
    only feasible candidates become ``Fraction`` vectors. Graphs with more
    than :data:`ORACLE_MAX_VERTICES` vertices are refused.
    """
    r = len(graph.vertices)
    if r > ORACLE_MAX_VERTICES:
        raise OracleSizeError(
            f"oracle bound exceeded: {r} vertices > {ORACLE_MAX_VERTICES}"
        )
    if a.graph != graph:
        a = ExcDivisor(graph, a.coeffs)
    scale, sparse = graph.intersection_form._integral
    # The system scaled by L * den: (L M)_S (den N)_S = L den (A . E)_S.
    den, c = numerators(a.intersections())
    c = [scale * x for x in c]
    feasible: list[QVector] = []
    visited = 0
    for d, y in _subset_walk(sparse, c):
        visited += 1
        # den * d * (N_i, L (P . E_j)) = (y_i, d c_j - (L M y)_j); den, L > 0
        if not _same_sign(y.values(), d):
            continue
        my = [d * cj for cj in c]
        for i, v in y.items():
            for j, x in sparse[i]:
                my[j] -= x * v
        if not _same_sign(my, d):
            continue
        n_coeffs = [Fraction(0)] * r
        for i, v in y.items():
            n_coeffs[i] = Fraction(v, d * den)
        feasible.append(a.coeffs - QVector(n_coeffs))
    if visited != 2 ** r:
        raise InternalConsistencyError(
            f"oracle visited {visited} vertex subsets, not 2^{r}"
        )
    if not feasible:
        raise InternalConsistencyError("no feasible Zariski candidate found")
    p_max = QVector(max(vals) for vals in zip(*feasible))
    if p_max not in feasible:
        raise InternalConsistencyError(
            "feasible candidates have no componentwise-maximal element"
        )
    return _finish(graph, a, a.coeffs - p_max)


def _same_sign(values: Iterable[int], d: int) -> bool:
    """Every nonzero value has the sign of ``d``: ``v / d >= 0`` for all."""
    return min(values, default=0) >= 0 if d > 0 else max(values, default=0) <= 0


def _subset_walk(
    sparse: Sequence[Sequence[tuple[int, int]]], c: Sequence[int]
) -> Iterator[tuple[int, dict[int, int]]]:
    """Solve ``K_S y = d c_S`` for every subset ``S``, depth first.

    ``sparse`` holds the integer matrix ``K`` (symmetric, every principal
    minor nonzero) as ``(column, value)`` rows, ``c`` the right-hand side.
    Yields ``(d, y)`` once per subset, with ``d = det K_S`` (1 for the
    empty set) and ``y`` the integer solution on ``S`` as ``{vertex: value}``.

    A subset's fraction-free (Bareiss) Schur complement holds the rows and
    columns of the vertices above its largest one, with ``c`` as a last
    column. A child adds one such vertex ``v`` and pivots on it: each entry
    becomes ``(p a_ij - a_iv a_vj) / p_prev``, an exact division, with ``p``
    the child's pivot ``det K_{S+v}`` and ``p_prev = det K_S``. The pivot
    rows kept along the path give ``y`` by fraction-free back-substitution.
    """
    r = len(c)
    first = [[0] * r + [cj] for cj in c]
    for i, row in enumerate(sparse):
        for j, x in row:
            first[i][j] = x
    yield 1, {}
    path: list[tuple[int, int, list[int], int]] = []  # (vertex, pivot, row, lo)
    # (depth, lo, rows, prev, q): pivot on rows[q], the vertex lo + q, of the
    # complement over the vertices from lo on, whose own pivot was prev
    stack = [(0, 0, first, 1, q) for q in reversed(range(r))]
    while stack:
        depth, lo, rows, prev, q = stack.pop()
        top = rows[q]
        d = top[q]
        if not d:
            raise SingularSystemError("principal submatrix is singular")
        del path[depth:]
        path.append((lo + q, d, top, lo))
        y: dict[int, int] = {}
        for v, p, row, base in reversed(path):
            acc = d * row[-1]
            for u, yu in y.items():
                acc -= row[u - base] * yu
            y[v] = acc // p
        yield d, y
        if q + 1 < len(rows):
            tail = top[q + 1:]
            below = [
                [(d * x - row[q] * t) // prev for x, t in zip(row[q + 1:], tail)]
                for row in rows[q + 1:]
            ]
            stack.extend(
                (depth + 1, lo + q + 1, below, d, k) for k in reversed(range(len(below)))
            )


def volume(graph: ResolutionGraph) -> VolumeReport:
    """Exact volume of the singularity described by the graph.

    Takes ``A`` = log-discrepancy divisor, computes its nef envelope ``P``
    and returns ``-P . P``. Zero exactly in the log canonical case:
    nonnegative ``A`` forces ``P = 0``, while a negative entry of ``A``
    pins ``P != 0`` and negative definiteness makes ``-P . P > 0``.
    """
    discrepancies = graph.discrepancy_report()
    dec = nef_envelope_trace(graph, discrepancies.ell)
    vol = -dec.p.self_intersection()
    is_lc = discrepancies.is_lc
    if vol < 0:
        raise InternalConsistencyError(f"volume came out negative: {vol}")
    if (vol == 0) != is_lc:
        raise InternalConsistencyError(
            "volume vanishing disagrees with log canonicity"
        )
    return VolumeReport(volume=vol, decomposition=dec, is_lc=is_lc)
