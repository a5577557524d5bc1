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
  sets, used as ground truth at small sizes: a depth-first walk pivots once
  per subset and decides each in integers, the sign tests it can read off
  its elimination first, stopping at the first wrong sign.

Both end in :func:`_finish`, which certifies ``N >= 0``, ``P`` nef and
``P . N = 0`` by integer sign tests over one denominator.

The volume of the singularity is ``-P . P`` for ``A`` the log-discrepancy
divisor; it is nonnegative and vanishes exactly in the log canonical case.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence

from .errors import (InternalConsistencyError, MalformedInputError, OracleSizeError,
                     SingularSystemError)
from .graph import ExcDivisor, ResolutionGraph
from .lattice import _eliminate, _substitute, rat_str
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


def _finish(graph: ResolutionGraph, den: int, a_num: list[int], n_num: list[int]
            ) -> ZariskiDecomposition:
    """Certify ``N`` as the negative part of ``A``, both given as integers
    over one denominator ``den > 0`` (``A = a_num / den``, ``N = n_num /
    den``), by integer sign tests: ``den N >= 0``, ``den (P . E_j) >= 0``
    and ``sum_j den N_j * den (P . E_j) = 0``; return ``A = P + N``, both
    parts kept as integers."""
    if min(n_num) < 0:
        n_coeffs = ExcDivisor.from_ints(graph, den, n_num).coeffs
        raise InternalConsistencyError(
            f"negative part has a negative coefficient: N = {n_coeffs!r}"
        )
    p_num = [x - v for x, v in zip(a_num, n_num)]
    mp = graph.intersection_form.apply_int(p_num)
    if min(mp) < 0:
        raise InternalConsistencyError("claimed nef part meets a curve negatively")
    if sum(map(mul, n_num, mp)):
        raise InternalConsistencyError("P and N are not orthogonal")
    active = frozenset(v.id for v, c in zip(graph.vertices, n_num) if c)
    return ZariskiDecomposition(p=ExcDivisor.from_ints(graph, den, p_num),
                                n=ExcDivisor.from_ints(graph, den, n_num), active=active)


def nef_envelope_trace(graph: ResolutionGraph, a: ExcDivisor) -> ZariskiDecomposition:
    """Active-set computation of the nef envelope of ``A``.

    ``A >= 0`` runs no round: its envelope is ``P = 0`` (module docstring).
    Otherwise start from the vertices ``A`` meets negatively, solve for the
    negative part on that set, then grow the set by every vertex the
    candidate nef part still meets negatively. The set only grows, so at
    most ``r`` rounds run. One fraction-free factor of the working set lives
    for the whole call: each round borders it with the new vertices
    (:func:`~singvol.lattice._eliminate`), so every working vertex is
    eliminated once, and substitutes the integer right-hand side ``c = den
    (A . E)`` through it; the sign tests are on integers. :func:`_finish`
    gets ``A`` and ``N`` as integers over one denominator and certifies them,
    and no ``Fraction`` is made; a failure is an internal error, never repaired.
    """
    if a.graph != graph:
        raise MalformedInputError("divisors live on different graphs")
    den, a_num = a.ints
    if min(a_num) >= 0:
        return _finish(graph, den, a_num, a_num)
    form = graph.intersection_form
    sparse = form._integral[1]
    c = form.apply_int(a_num)
    new = [j for j, x in enumerate(c) if x < 0]
    order: list[int] = []  # the working set in elimination order
    rim: set[int] = set()  # the neighbours of the working set outside it
    factor, q, y = None, 1, []
    while new:
        # appended in reverse so that vertices hanging off others come first
        order += sorted(new, reverse=True)
        factor = _eliminate(form._block(order, len(order) - len(new)), len(new), factor)
        # y = q den N on the working set, where M N = A . E; q > 0, and the
        # solution is unique because principal submatrices stay negative
        # definite. q den (P . E_j) = q c_j - (M y)_j, and off the working
        # set only the rim can turn negative.
        q, y = _substitute(factor, [c[i] for i in order])
        at = dict(zip(order, y))
        rim.update(j for i in new for j, _ in sparse[i])
        rim.difference_update(at)
        new = [j for j in rim
               if q * c[j] < sum([v * at[i] for i, v in sparse[j] if i in at])]
    n_num = [0] * len(c)
    for i, yi in zip(order, y):
        n_num[i] = yi
    return _finish(graph, q * den, [q * x for x in a_num], n_num)


def zariski_oracle(graph: ResolutionGraph, a: ExcDivisor) -> ZariskiDecomposition:
    """Exponential ground-truth envelope: try every candidate active set.

    For each subset ``S`` of vertices solve the complementarity system
    (``N`` supported on ``S`` with ``N . E_j = A . E_j`` there), keep the
    candidates with ``N >= 0`` and ``P . E_j >= 0`` everywhere, and return
    the componentwise-maximal ``P``. Existence and uniqueness of the
    maximal element are asserted, not assumed.

    :func:`_feasible_walk` visits the subsets and decides feasibility in
    integers. A feasible candidate stays ``(d, y)``, with ``N = y / (d
    den)``; the largest ``P = A - N`` is the smallest ``N``, found by
    cross-multiplying over ``|d|``, and only it becomes a divisor, through
    :func:`_finish`. Graphs with more than :data:`ORACLE_MAX_VERTICES`
    vertices are refused before any work.
    """
    r = len(graph.vertices)
    if r > ORACLE_MAX_VERTICES:
        raise OracleSizeError(
            f"oracle bound exceeded: {r} vertices > {ORACLE_MAX_VERTICES}"
        )
    if a.graph != graph:
        raise MalformedInputError("divisors live on different graphs")
    den, a_num = a.ints
    form = graph.intersection_form
    # (|d|, |d| den N): y has the sign of d on a feasible candidate
    found = [(d, y) if d > 0 else (-d, [-v for v in y])
             for d, y in _feasible_walk(form._integral[1], form.apply_int(a_num))]
    if not found:
        raise InternalConsistencyError("no feasible Zariski candidate found")
    e, n = found[0]
    for f, m in found:  # a candidate below all the others is kept once met
        if all(z * e <= x * f for x, z in zip(n, m)):
            e, n = f, m
    if not all(x * f <= z * e for f, m in found for x, z in zip(n, m)):
        raise InternalConsistencyError(
            "feasible candidates have no componentwise-maximal element"
        )
    return _finish(graph, e * den, [e * x for x in a_num], n)


def _feasible_walk(
    sparse: Sequence[Sequence[tuple[int, int]]], c: Sequence[int]
) -> Iterator[tuple[int, list[int]]]:
    """Solve ``K_S y = d c_S`` for every subset ``S``, depth first, and yield
    ``(d, y)`` for those where every ``y_i`` and every ``d c_j - (K y)_j``
    has the sign of ``d`` (zero allowed).

    ``sparse`` holds the integer matrix ``K`` (symmetric, every principal
    minor nonzero) as ``(column, value)`` rows, ``c`` the right-hand side;
    ``d = det K_S`` (1 for the empty set) and ``y`` is the integer solution,
    zero off ``S``, as a list. For ``K = M`` and ``c = den (A . E)`` these
    are ``den d N`` and ``den d (P . E_j)``, so the test is feasibility.

    A subset's fraction-free (Bareiss) Schur complement holds the rows and
    columns of the vertices above its largest one, with ``c`` as a last
    column. A child adds one such vertex ``v`` and pivots on it: each entry
    becomes ``(p a_ij - a_iv a_vj) / p_prev``, an exact division, with ``p``
    the child's pivot ``det K_{S+v}`` and ``p_prev = det K_S``. A node
    pushes its children before it tests itself, so every subset is reached;
    the count of visited subsets must be ``2^r``.

    By Sylvester's identity (Bareiss, Math. Comp. 22, 1968) each entry of
    a complement is a bordered minor: the last column of ``S``'s
    complement, in the row of a vertex ``j`` above ``v``, is ``det [[K_S,
    c_S], [K_jS, c_j]] = d c_j - (K y)_j``, and by Cramer's rule the pivot
    row's last entry is ``y_v``. So the tests run cheapest first and stop
    at the first wrong sign:

    1. ``y_v`` and ``d c_j - (K y)_j`` above ``v``, read off the pivot row
       and the complement already computed for the children;
    2. ``y`` on the older path vertices, by fraction-free back-substitution
       through the pivot rows kept along the path, newest first;
    3. ``d c_j - (K y)_j`` for the vertices below ``v`` off ``S``.
    """
    r = len(c)
    first = [[0] * r + [cj] for cj in c]
    for i, row in enumerate(sparse):
        for j, x in row:
            first[i][j] = x
    if min(c) >= 0:
        yield 1, [0] * r
    visited = 1
    path: list[tuple[int, int, list[int], int]] = []  # (vertex, pivot, row, lo)
    # (depth, lo, rows, prev, q): pivot on rows[q], the vertex lo + q, of the
    # complement over the vertices from lo on, whose own pivot was prev
    stack = [(0, 0, first, 1, q) for q in range(r - 1, -1, -1)]
    while stack:
        depth, lo, rows, prev, q = stack.pop()
        visited += 1
        top = rows[q]
        d = top[q]
        if not d:
            raise SingularSystemError("principal submatrix is singular")
        v = lo + q
        del path[depth:]
        path.append((v, d, top, lo))
        worst = min if d > 0 else max  # of values that must have d's sign
        if q + 1 < len(rows):
            tail = top[q + 1:]
            below = [[(d * x - row[q] * t) // prev for x, t in zip(row[q + 1:], tail)]
                     for row in rows[q + 1:]]
            stack += [(depth + 1, v + 1, below, d, k) for k in range(len(below) - 1, -1, -1)]
            if d * top[-1] < 0 or d * worst([row[-1] for row in below]) < 0:
                continue
        elif d * top[-1] < 0:
            continue
        on, ys = [v], [top[-1]]  # the path vertices and their y, newest first
        for w, p, row, base in reversed(path[:-1]):
            yw = (d * row[-1] - sum(map(mul, [row[u - base] for u in on], ys))) // p
            if d * yw < 0:
                break
            on.append(w)
            ys.append(yw)
        else:
            y = [0] * r
            for w, yw in zip(on, ys):
                y[w] = yw
            off = [d * c[j] - sum([x * y[i] for i, x in sparse[j]])
                   for j in range(v) if j not in on]
            if not off or d * worst(off) >= 0:
                yield d, y
    if visited != 2 ** r:
        raise InternalConsistencyError(f"oracle visited {visited} vertex subsets, not 2^{r}")


def volume(graph: ResolutionGraph) -> VolumeReport:
    """Exact volume of the singularity described by the graph.

    Takes ``A`` = log-discrepancy divisor, computes its nef envelope ``P``
    and returns ``-P . P``. Zero exactly in the log canonical case:
    nonnegative ``A`` forces ``P = 0``, while a negative entry of ``A``
    pins ``P != 0`` and negative definiteness makes ``-P . P > 0``. Both are
    tested on the integer numerator of ``P . P``.
    """
    discrepancies = graph.discrepancy_report()
    dec = nef_envelope_trace(graph, discrepancies.ell)
    sq = dec.p.self_intersection()
    is_lc = discrepancies.is_lc
    if sq.numerator > 0:
        raise InternalConsistencyError(f"volume came out negative: {-sq}")
    if (sq.numerator == 0) != is_lc:
        raise InternalConsistencyError("volume vanishing disagrees with log canonicity")
    return VolumeReport(volume=-sq, decomposition=dec, is_lc=is_lc)
