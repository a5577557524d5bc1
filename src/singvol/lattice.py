"""Exact rational vectors and symmetric bilinear forms.

Everything downstream (intersection matrices, discrepancy solves, Zariski
decompositions, cone membership) runs on this layer, so it is deliberately
small and completely exact: coefficients are ``fractions.Fraction`` with
arbitrary-precision integers underneath, and no float ever appears.

A form is stored only as sparse integer rows, the nonzero entries of
``L * M`` with ``L`` the lcm of the denominators. The dense constructor
checks its input; a resolution graph's rows, built from validated data
with ``L = 1``, are trusted, so its form costs O(vertices + edges) to
build, and no dense matrix is ever kept. There is one elimination:
fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) on Python
ints over the nonzero entries, one loop per updated row, with row swaps, in
leaf-first order, where a tree gets no fill-in. The nef envelope's trace
and the cone's facet enumeration (on Gram matrices of integer vectors) call
it too. One cached pass over the whole form gives both the determinant and
the definiteness test (Sylvester's criterion holds for the leading minors
of any symmetric reordering). The pass keeps its factor: pivots, row
swaps, multipliers and upper rows, and a swap-free factor can be bordered
by more rows without eliminating it again. A solve carries its
integer right-hand side through the cached pass and back-substitutes.
Solves return integers ``(d, d x)``, the mat-vec and the pairing are sums
over the one integer mat-vec ``(L M) v``, and a graph's divisors keep their
integers, so a ``Fraction`` is made only when read, and a :class:`QVector`
only through its one constructor.

Rationals serialize as ``"p/q"`` in lowest terms with positive denominator,
or ``"p"`` when the denominator is 1 (:func:`ratio_str`).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from .errors import (DomainError, InternalConsistencyError, MalformedInputError,
                     SingularSystemError)

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational; a
    string with more digits, or a larger exponent, than int parses is too large."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject it
        raise MalformedInputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text, limit = value.strip(), sys.get_int_max_str_digits()
        exponent = text.lower().partition("e")[2]  # Fraction would expand 10**exponent
        try:
            if exponent.lstrip("+-")[:1].isdigit() and 0 < limit < abs(int(exponent)):
                raise DomainError(f"rational {text[:24]}... has an exponent above {limit:,}",
                                  reason="too-large")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            if str(exc).startswith("Exceeds the limit"):  # int's digit limit, not malformed
                digits = sum(map(str.isdigit, value))
                raise DomainError(f"rational {text[:24]}... has {digits:,} digits, more "
                                  "than Python's int parses", reason="too-large") from None
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    raise MalformedInputError(f"not a rational: {value!r}")


def ratio_str(num: int, den: int) -> str:
    """Render ``num / den`` (``den > 0``) as ``p/q`` in lowest terms, or plain
    ``p`` for an integer. An integer with more digits than Python converts to
    a string (4,300 by default) is refused with ``too-large``."""
    g = math.gcd(num, den)
    try:
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"
    except ValueError:
        raise DomainError("a rational result has too many digits to print",
                          reason="too-large") from None


def rat_str(value: Fraction) -> str:
    """:func:`ratio_str` of a Fraction (or an int)."""
    return ratio_str(value.numerator, value.denominator)


class QVector(tuple):
    """Immutable vector of exact rationals.

    Supports componentwise addition, subtraction and negation, and
    :meth:`scale` by a rational. Length is fixed at construction; mixing
    lengths raises. Results come from the one constructor too, whose
    :func:`rat` is one ``isinstance`` test on an entry that is a Fraction.
    """

    __mul__ = __rmul__ = None  # TypeError, not the tuple's repetition

    def __new__(cls, entries: Iterable[RationalLike]) -> "QVector":
        return super().__new__(cls, (rat(e) for e in entries))

    def _check_len(self, other: Sequence) -> None:
        if len(self) != len(other):
            raise MalformedInputError(
                f"vector length mismatch: {len(self)} vs {len(other)}"
            )

    def __add__(self, other: "QVector") -> "QVector":
        self._check_len(other)
        return QVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_len(other)
        return QVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self)

    def scale(self, factor: RationalLike) -> "QVector":
        f = rat(factor)
        return QVector(f * a for a in self)

    def to_doc(self) -> list[str]:
        return [rat_str(a) for a in self]

    def __repr__(self) -> str:
        return "QVector(" + ", ".join(rat_str(a) for a in self) + ")"


def numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(d, [d * x for x in values])`` with ``d`` the lcm of the denominators
    (an int counts as denominator 1)."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class SymForm:
    """Symmetric bilinear form given by its exact Gram matrix ``M``.

    Built from dense rows of rationals, the one constructor that checks its
    input, or with :meth:`sparse` from a graph's trusted integer rows. Its
    only state is ``_integral = (L, rows)``: ``L`` the lcm of the
    denominators and the nonzero entries of ``L * M`` as ``(column, int)``
    pairs sorted by column. That is canonical, so equality and hashing use
    it. The factor of the one leaf-first pass behind :meth:`det`,
    :meth:`is_negative_definite` and :meth:`solve_int` is cached.
    """

    __slots__ = ("_integral", "_pass")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]) -> None:
        mat = tuple(QVector(row) for row in rows)
        if any(len(row) != len(mat) for row in mat):
            raise MalformedInputError("form matrix is not square")
        if not mat:
            raise MalformedInputError("form must have at least one row")
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x and mat[j][i] != x:
                    raise MalformedInputError(f"form matrix is not symmetric at ({i}, {j})")
        scale = math.lcm(*(x.denominator for row in mat for x in row))
        object.__setattr__(self, "_integral", (scale, tuple(
            tuple((j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x)
            for row in mat
        )))
        object.__setattr__(self, "_pass", None)

    @classmethod
    def sparse(cls, rows: Sequence[Mapping[int, int]]) -> "SymForm":
        """The form of the integer matrix with entries ``rows[i][j]`` and
        zeros elsewhere (``L = 1``), in O(vertices + edges). Unchecked: only
        ``ResolutionGraph.intersection_form`` calls it, on validated data,
        with at least one row, nonzero ``int`` entries and ``rows[i][j] ==
        rows[j][i]`` for columns in range."""
        form = object.__new__(cls)
        object.__setattr__(form, "_integral", (1, tuple(tuple(sorted(row.items())) for row in rows)))
        object.__setattr__(form, "_pass", None)
        return form

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SymForm is immutable")

    def __reduce__(self):
        """Pickle and copy as ints only, so no string step on any Python: ``L``
        and the dense rows of ``L * M``, rebuilt by :func:`_from_dense`."""
        scale, sparse = self._integral
        return _from_dense, (scale, [[r.get(j, 0) for j in range(self.dim)] for r in map(dict, sparse)])

    @property
    def dim(self) -> int:
        return len(self._integral[1])

    def _check_len(self, v: Sequence, what: str = "vector") -> None:
        if len(v) != self.dim:
            raise MalformedInputError(
                f"{what} length {len(v)} does not match form dimension {self.dim}"
            )

    def _block(self, order: Sequence[int], start: int = 0) -> list[dict[int, int]]:
        """The rows ``order[start:]`` of the scaled principal block on
        ``order``, renumbered by position (with ``start``, a border)."""
        pos = {i: k for k, i in enumerate(order)}
        sparse = self._integral[1]
        return [{pos[j]: a for j, a in sparse[i] if j in pos} for i in order[start:]]

    def apply_int(self, v: Sequence[int]) -> list[int]:
        """The integer mat-vec ``(L M) v`` over the nonzero entries (no length
        check), in plain loops: before Python 3.12 (PEP 709) a comprehension
        is a function call, and a graph's row holds only 2-4 entries."""
        out = []
        for row in self._integral[1]:
            acc = 0
            for j, a in row:
                acc += a * v[j]
            out.append(acc)
        return out

    def apply(self, v: QVector) -> QVector:
        """Matrix-vector product ``M v``: :meth:`apply_int` on the numerators."""
        self._check_len(v)
        den, num = numerators(v)
        den *= self._integral[0]
        return QVector(Fraction(x, den) for x in self.apply_int(num))

    def pair(self, a: QVector, b: QVector) -> Fraction:
        """Evaluate the form, ``a . M . b``, as one integer sum over
        :meth:`apply_int`; a self-pairing ``pair(x, x)`` (one object) takes
        numerators once."""
        self._check_len(a)
        self._check_len(b)
        da, na = numerators(a)
        db, nb = (da, na) if b is a else numerators(b)
        return Fraction(sum(map(mul, na, self.apply_int(nb))), self._integral[0] * da * db)

    def solve(self, rhs: Sequence[RationalLike]) -> QVector:
        """Solve ``M x = rhs`` (ints or Fractions) exactly: :meth:`solve_int`
        on the numerators of ``rhs``, divided by ``d`` and their common
        denominator."""
        den, num = numerators(rhs)
        d, y = self.solve_int(num)
        return QVector(Fraction(v, d * den) for v in y)

    def solve_int(self, rhs: Sequence[int]) -> tuple[int, list[int]]:
        """Solve ``M x = rhs`` for an integer ``rhs``: ``(d, y)`` with ``d > 0``
        and ``y = d x`` integers, substituted through the cached leaf-first
        pass; raises SingularSystemError if singular."""
        self._check_len(rhs, "rhs")
        factor = self._whole_pass()
        if not factor[0][-1]:
            raise SingularSystemError("form matrix is singular")
        scale = self._integral[0]
        d, z = _substitute(factor, [scale * v for v in reversed(rhs)])
        return d, z[::-1]

    def _factor(self, order: Sequence[int]) -> tuple:
        """The :func:`_eliminate` factor of the principal block on ``order``."""
        return _eliminate(self._block(order), len(order))

    def _whole_pass(self) -> tuple:
        """The factor of the whole form, run on first use and cached. Graphs
        mostly list a vertex before the ones hanging off it (blowups append
        theirs), so reverse order eliminates leaves first and a tree gets no
        fill-in."""
        if self._pass is None:
            object.__setattr__(self, "_pass", self._factor(range(self.dim - 1, -1, -1)))
        return self._pass

    def _minor(self, factor: tuple) -> Fraction:
        """The determinant of a factor's block: ``(-1)^swaps`` times the last
        pivot, over ``L^size``."""
        pivots, swaps, _, rows = factor
        return Fraction((-1) ** swaps * pivots[-1], self._integral[0] ** len(rows))

    def det(self) -> Fraction:
        return self._minor(self._whole_pass())

    def leading_principal_minors(self) -> tuple[Fraction, ...]:
        """Determinants of the leading k x k blocks, k = 1..dim, all exact:
        one leaf-first pass per block, the last one the cached :meth:`det`."""
        return tuple(self._minor(self._factor(range(k - 1, -1, -1)))
                     for k in range(1, self.dim)) + (self.det(),)

    def is_negative_definite(self) -> bool:
        """Sylvester's criterion, minors of sign (-1)^i, on the cached
        leaf-first pass: without a swap the pivots are those minors, a swap
        means one of them was zero, and a pass that stops early ends at a
        zero pivot."""
        pivots, swaps, _, _ = self._whole_pass()
        return not swaps and all(p and (p < 0) == (i % 2 == 0) for i, p in enumerate(pivots))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymForm) and self._integral == other._integral

    def __hash__(self) -> int:
        return hash(self._integral)

    def to_doc(self) -> list[list[str]]:
        scale, sparse = self._integral
        out = [["0"] * len(sparse) for _ in sparse]
        for row, line in zip(sparse, out):
            for j, x in row:
                line[j] = rat_str(Fraction(x, scale))
        return out


def _from_dense(scale: int, rows: list[list[int]]) -> SymForm:
    """The form ``rows / scale``, through the checked dense constructor: O(dim^2)."""
    return SymForm([[Fraction(x, scale) for x in row] for row in rows])


def _eliminate(rows: list[dict[int, int]], n: int, factor: tuple | None = None) -> tuple:
    """Fraction-free Gaussian elimination (Bareiss 1968) with row swaps, in
    place.

    ``rows`` holds a symmetric n x n integer matrix as sparse rows
    ``{column: value}`` without zeros, already in elimination order:
    leaf-first from :class:`SymForm`, where a tree gets no fill-in; growth
    order from :func:`~singvol.envelope.nef_envelope_trace` (rounds as they
    come, each reverse-sorted), where a vertex joining before two or more of
    its neighbours fills in among them. For ``ell`` the working set starts
    at the rational leaves (the only ``2 g - 2 + deg < 0``) and grows inward:
    no fill on chains, stars and 351 random graphs. A divisor negative at
    inner vertices fills (954 entries against 63 leaf-first on 381 random
    ones), still cheaper than a fresh pass per round. The cone's
    :func:`~singvol.cone._gram_factor` passes the dense Gram matrix ``(u .
    v)`` of integer vectors in their given order: its last pivot is nonzero
    exactly when they are independent. Step k turns every row ``i > k``
    into ``(p_k row_i - a_ik row_k) / p_(k-1)``, with ``p_k`` the k-th
    pivot; each entry is then a minor of the input, so the division is exact
    and row k ends as row k of an upper-triangular system.

    Returns the factor ``(pivots, swaps, steps, rows)``. A zero pivot is
    first replaced by the next row with a nonzero entry in its column, and
    ``swaps`` counts these exchanges. While ``swaps == 0``, ``pivots[k]`` is
    the leading principal minor of size k + 1, so a swap means one such
    minor vanished. The pass stops at the first zero pivot it cannot
    replace, which it records, so the matrix is nonsingular exactly when
    ``len(pivots) == n`` and ``pivots[-1] != 0``; in every case the
    determinant is ``(-1)^swaps * pivots[-1]``. ``steps[k]`` is ``(r,
    updates)``: the row ``r`` moved into place k (k itself without a swap)
    and the ``(i, a_ik)`` of every row step k updated, in order, which is
    what :func:`_substitute` replays on a right-hand side. ``rows`` ends as
    the upper-triangular rows.

    A row without an entry in column k would only be scaled by
    ``p_k / p_(k-1)``; instead it keeps the step ``s = stage[i]`` it was
    last brought to and catches up inside its next update, in the same
    pass: one loop takes ``a_ij`` to ``c (p_k a_ij - a_ik a_kj) / p_(k-1)``,
    ``c = p_(k-1) / p_s``, drops zeros and fills in row k's other columns.
    Until the first swap the remaining block stays symmetric, so row k
    names the rows to update, and a step costs only the nonzeros it touches.

    Given the swap-free ``factor`` of an m x m leading block, ``rows`` are
    the n rows that border it (columns numbered from 0 over both), and the
    factor is extended in place (Gill, Golub, Murray and Saunders, Math.
    Comp. 28, 1974). Each old step k the new rows meet brings them through
    it and appends their ``(i, a_ik)`` to ``steps[k]``; the remaining block
    is symmetric, so ``a_ik`` is also upper row k's entry in column i. The
    new block is then eliminated as above. A factor with a swap or a zero
    pivot is refused: principal blocks of a negative-definite form have
    neither.
    """
    pivots, swaps, steps, upper = factor or ([], 0, [], [])
    if swaps or pivots and not pivots[-1]:
        raise InternalConsistencyError("cannot border a factor with a row swap or zero pivot")
    m = len(upper)
    upper += rows
    rows, n = upper, m + n
    stage = [-1] * n
    lo = min((j for row in rows[m:] for j in row if j < m), default=m) if m else 0

    def scale(i: int, k: int) -> tuple[int, int]:  # row i's catch-up p_(k-1) / p_s
        s = stage[i]
        return (1, 1) if s == k - 1 else (pivots[k - 1], pivots[s] if s >= 0 else 1)

    def catch_up(i: int, k: int) -> dict[int, int]:
        mul, div = scale(i, k)
        if div != mul:
            rows[i] = {j: a * mul // div for j, a in rows[i].items()}
        stage[i] = k - 1
        return rows[i]

    for k in range(lo, n):
        if k < m:  # an old step: only the new rows still meet it
            below = [i for i in range(m, n) if k in rows[i]]
            for i in below:
                rows[k][i] = catch_up(i, k)[k]
            updates = steps[k][1]
        else:
            r = k
            if not rows[k].get(k):
                r = next((i for i in range(k + 1, n) if rows[i].get(k)), k)
                if r != k:
                    rows[k], rows[r] = rows[r], rows[k]
                    stage[k], stage[r] = stage[r], stage[k]
                    swaps += 1
            pivots.append(catch_up(k, k).get(k, 0))
            if not pivots[k]:
                break
            if not swaps:  # the block still to be eliminated is symmetric
                below = [i for i in rows[k] if i > k]
            else:
                below = [i for i in range(k + 1, n) if rows[i].get(k)]
            updates = []
            steps.append((r, updates))
        top, p, prev = rows[k], pivots[k], (pivots[k - 1] if k else 1)
        for i in below:
            row, new, (mul, div) = rows[i], {}, scale(i, k)
            a = row[k] * mul // div  # column k comes out as 0 below, and is dropped
            for j, b in row.items():
                v = (b * mul // div * p - a * top.get(j, 0)) // prev
                if v:
                    new[j] = v
            for j, t in top.items():
                if j not in row:  # fill-in
                    new[j] = -a * t // prev
            updates.append((i, a))
            rows[i], stage[i] = new, k
    return pivots, swaps, steps, rows


def _substitute(factor: tuple, rhs: list[int]) -> tuple[int, list[int]]:
    """Solve with a nonsingular :func:`_eliminate` factor: ``(d, y)`` with
    ``d > 0`` the last pivot up to sign (an odd negative-definite block has a
    negative one) and ``y = d x`` the integer solution of the block's system
    for the integer right-hand side ``rhs``.

    ``rhs`` goes through the factor as the column it would have been in
    the elimination: the same swaps, the same updates ``(p_k b_i - a_ik
    b_k) / p_(k-1)`` and the same lazy catch-ups, in the same order, so
    every value is the same minor and every division exact. Back-substitution
    on the upper rows then gives ``y``.
    """
    pivots, _, steps, rows = factor
    b = list(rhs)
    piv = [1, *pivots]
    done = [0] * len(b)  # the steps b[i] was last brought through
    for k, (r, updates) in enumerate(steps):
        if r != k:
            b[k], b[r] = b[r], b[k]
            done[k], done[r] = done[r], done[k]
        prev, p = piv[k], piv[k + 1]
        if done[k] != k:
            b[k] = b[k] * prev // piv[done[k]]
        top = b[k]
        for i, a in updates:
            bi = b[i] if done[i] == k else b[i] * prev // piv[done[i]]
            b[i] = (p * bi - a * top) // prev
            done[i] = k + 1
    d = pivots[-1]
    y = [0] * len(b)
    for k in range(len(b) - 1, -1, -1):
        acc = d * b[k]
        for j, a in rows[k].items():
            if j != k:
                acc -= a * y[j]
        y[k] = acc // pivots[k]
    return (d, y) if d > 0 else (-d, [-v for v in y])
