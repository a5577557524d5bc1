"""Exact rational vectors and symmetric bilinear forms.

Everything downstream (intersection matrices, discrepancy solves, Zariski
decompositions, cone membership) runs on this layer, so it is deliberately
small and completely exact: coefficients are ``fractions.Fraction`` with
arbitrary-precision integers underneath, and no float ever appears.

Minors, determinants and solves share one fraction-free elimination on
Python ints (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) over the
nonzero entries of the matrix; results become ``Fraction`` only when they
are returned.

Rationals serialize as ``"p/q"`` in lowest terms with positive denominator,
or ``"p"`` when the denominator is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import MalformedInputError, SingularSystemError

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject it
        raise MalformedInputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    raise MalformedInputError(f"not a rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or plain ``p`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class QVector(tuple):
    """Immutable vector of exact rationals.

    Supports componentwise addition, subtraction, negation, scalar
    multiplication and componentwise order comparisons. Length is fixed at
    construction; mixing lengths raises.
    """

    def __new__(cls, entries: Iterable[RationalLike]) -> "QVector":
        return super().__new__(cls, (rat(e) for e in entries))

    @classmethod
    def zero(cls, n: int) -> "QVector":
        return cls([0] * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "QVector":
        if not 0 <= i < n:
            raise MalformedInputError(f"unit index {i} out of range for length {n}")
        return cls([1 if k == i else 0 for k in range(n)])

    def _check_len(self, other: Sequence) -> None:
        if len(self) != len(other):
            raise MalformedInputError(
                f"vector length mismatch: {len(self)} vs {len(other)}"
            )

    def __add__(self, other: "QVector") -> "QVector":
        self._check_len(other)
        return _qvector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_len(other)
        return _qvector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "QVector":
        return _qvector(-a for a in self)

    def scale(self, factor: RationalLike) -> "QVector":
        f = rat(factor)
        return _qvector(f * a for a in self)

    __mul__ = scale

    def __rmul__(self, factor: RationalLike) -> "QVector":
        return self.scale(factor)

    def dot(self, other: "QVector") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def leq(self, other: "QVector") -> bool:
        """Componentwise ``self <= other``."""
        self._check_len(other)
        return all(a <= b for a, b in zip(self, other))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self)

    def to_doc(self) -> list[str]:
        return [rat_str(a) for a in self]

    def __repr__(self) -> str:
        return "QVector(" + ", ".join(rat_str(a) for a in self) + ")"


def _qvector(entries: Iterable[Fraction]) -> QVector:
    """A QVector from entries that are already Fractions (no coercion)."""
    return tuple.__new__(QVector, entries)


class SymForm:
    """Symmetric bilinear form given by its exact Gram matrix.

    The matrix must be square and symmetric; anything else is rejected at
    construction. Minors, the determinant and solves all run through one
    fraction-free elimination on Python ints (:func:`_eliminate`); a form
    with non-integral entries is scaled by the lcm of their denominators
    first. The scaled integer rows (nonzero entries only, which also serve
    the mat-vec) and the leading minors are built on first use and cached.
    """

    __slots__ = ("rows", "_scaled", "_minors")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]) -> None:
        mat = tuple(QVector(row) for row in rows)
        n = len(mat)
        if n == 0:
            raise MalformedInputError("form must have at least one row")
        for row in mat:
            if len(row) != n:
                raise MalformedInputError("form matrix is not square")
        for i, (row, col) in enumerate(zip(mat, zip(*mat))):
            if row != col:  # tuple equality, which skips identical entries
                j = next(j for j in range(n) if row[j] != col[j])
                raise MalformedInputError(
                    f"form matrix is not symmetric at ({i}, {j})"
                )
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_scaled", None)
        object.__setattr__(self, "_minors", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SymForm is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def _integral(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """``(L, rows)``: the lcm ``L`` of the entries' denominators and the
        nonzero entries of ``L * M`` as ``(column, int)`` pairs, row by row."""
        if self._scaled is None:
            nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in self.rows]
            scale = math.lcm(*(x.denominator for row in nonzero for _, x in row))
            sparse = tuple(
                tuple((j, x.numerator * (scale // x.denominator)) for j, x in row)
                for row in nonzero
            )
            object.__setattr__(self, "_scaled", (scale, sparse))
        return self._scaled

    def apply(self, v: QVector) -> QVector:
        """Matrix-vector product ``M v``, over the nonzero entries only."""
        if len(v) != self.dim:
            raise MalformedInputError(
                f"vector length {len(v)} does not match form dimension {self.dim}"
            )
        scale, sparse = self._integral()
        den = math.lcm(*(x.denominator for x in v))
        num = [x.numerator * (den // x.denominator) for x in v]
        den *= scale
        return _qvector(
            Fraction(sum([a * num[j] for j, a in row]), den) for row in sparse
        )

    def pair(self, a: QVector, b: QVector) -> Fraction:
        """Evaluate the form: ``a . M . b``."""
        return a.dot(self.apply(b))

    def solve(self, rhs: QVector, support: Sequence[int] | None = None) -> QVector:
        """Solve ``M x = rhs`` exactly; raises SingularSystemError if singular.

        With ``support``, solve the principal subsystem on those indices
        instead: ``x`` vanishes off ``support`` and ``(M x)_i = rhs_i`` for
        every ``i`` in it; entries of ``rhs`` off the support are ignored.
        """
        n = self.dim
        if len(rhs) != n:
            raise MalformedInputError(
                f"rhs length {len(rhs)} does not match form dimension {n}"
            )
        # Graphs mostly list a vertex before the ones hanging off it (blowups
        # append theirs), so reverse order eliminates leaves first and a
        # tree gets no fill-in.
        order = list(reversed(range(n) if support is None else support))
        if any(not 0 <= i < n for i in order):
            raise MalformedInputError(f"support index out of range for dimension {n}")
        x = [Fraction(0)] * n
        m = len(order)
        if not m:
            return _qvector(x)
        pos = {i: k for k, i in enumerate(order)}
        scale, sparse = self._integral()
        den = math.lcm(*(rhs[i].denominator for i in order))
        rows = []
        for i in order:
            row = {pos[j]: a for j, a in sparse[i] if j in pos}
            row[m] = scale * rhs[i].numerator * (den // rhs[i].denominator)
            rows.append(row)
        pivots, _ = _eliminate(rows, m, pivoting=True)
        if not pivots[-1]:
            raise SingularSystemError("form matrix is singular")
        # Fraction-free back-substitution: y = d x with d the last pivot.
        d = pivots[-1]
        y = [0] * m
        for k in range(m - 1, -1, -1):
            acc = d * rows[k].get(m, 0)
            for j, a in rows[k].items():
                if k < j < m:
                    acc -= a * y[j]
            y[k] = acc // pivots[k]
        d *= den
        for k, i in enumerate(order):
            x[i] = Fraction(y[k], d)
        return _qvector(x)

    def det(self) -> Fraction:
        return self.leading_principal_minors()[-1]

    def leading_principal_minors(self) -> tuple[Fraction, ...]:
        """Determinants of the leading k x k blocks, k = 1..dim, all exact.

        One elimination pass yields them all as its pivots. Only after a
        zero leading minor does each remaining block get a pass of its own.
        """
        if self._minors is None:
            scale, sparse = self._integral()
            n = self.dim
            minors, _ = _eliminate([dict(r) for r in sparse], n, pivoting=False)
            for k in range(len(minors) + 1, n + 1):
                block = [{j: a for j, a in sparse[i] if j < k} for i in range(k)]
                pivots, sign = _eliminate(block, k, pivoting=True)
                minors.append(sign * pivots[-1] if len(pivots) == k else 0)
            object.__setattr__(self, "_minors", tuple(
                Fraction(d, scale ** k) for k, d in enumerate(minors, 1)
            ))
        return self._minors

    def is_negative_definite(self) -> bool:
        """Leading-principal-minor test: sign(m_k) = (-1)^k with m_k != 0."""
        sign = 1
        for m in self.leading_principal_minors():
            sign = -sign
            if m == 0 or (m > 0) != (sign > 0):
                return False
        return True

    def restrict(self, indices: Sequence[int]) -> "SymForm":
        """Principal submatrix on the given index list (order preserved)."""
        return SymForm([[self.rows[i][j] for j in indices] for i in indices])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymForm) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __iter__(self) -> Iterator[QVector]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return "SymForm(" + "; ".join(str(list(map(rat_str, r))) for r in self.rows) + ")"

    def to_doc(self) -> list[list[str]]:
        return [row.to_doc() for row in self.rows]


def _eliminate(rows: list[dict[int, int]], n: int, pivoting: bool) -> tuple[list[int], int]:
    """Fraction-free Gaussian elimination (Bareiss 1968), in place.

    ``rows`` holds a symmetric n x n integer matrix as sparse rows
    ``{column: value}`` without zeros; entries in columns >= n ride along as
    right-hand sides. Step k turns
    every row ``i > k`` into ``(p_k row_i - a_ik row_k) / p_(k-1)``, with
    ``p_k`` the k-th pivot; each entry is then a minor of the input, so the
    division is exact and row k ends as row k of an upper-triangular system.

    Returns ``(pivots, sign)``. Without pivoting, ``pivots[k]`` is the
    leading principal minor of size k + 1. With pivoting, a zero pivot is
    first replaced by the next row with a nonzero entry there, and ``sign``
    records the swaps. Either way the pass stops at the first zero pivot,
    which it records, so the matrix is nonsingular exactly when
    ``len(pivots) == n`` and ``pivots[-1] != 0``; then the determinant is
    ``sign * pivots[-1]``.

    A row without an entry in column k would only be scaled by
    ``p_k / p_(k-1)``; instead it keeps the step ``stage[i]`` it was last
    brought to and catches up in one go when next used. Until the first
    swap the remaining block stays symmetric, so row k names the rows to
    update. A step then costs only the nonzeros it touches.
    """
    pivots: list[int] = []
    stage = [-1] * n
    sign = 1
    symmetric = True  # the block still to be eliminated; a row swap ends it

    def catch_up(i: int, k: int) -> dict[int, int]:
        s = stage[i]
        if s != k - 1:
            mul, div = pivots[k - 1], (pivots[s] if s >= 0 else 1)
            rows[i] = {j: a * mul // div for j, a in rows[i].items()}
            stage[i] = k - 1
        return rows[i]

    for k in range(n):
        if pivoting and not rows[k].get(k):
            r = next((i for i in range(k + 1, n) if rows[i].get(k)), None)
            if r is not None:
                rows[k], rows[r] = rows[r], rows[k]
                stage[k], stage[r] = stage[r], stage[k]
                sign = -sign
                symmetric = False
        top = catch_up(k, k)
        p = top.get(k, 0)
        pivots.append(p)
        if not p:
            break
        prev = pivots[k - 1] if k else 1
        if symmetric:  # rows with an entry in column k mirror row k
            below = [i for i in top if k < i < n]
        else:
            below = [i for i in range(k + 1, n) if rows[i].get(k)]
        for i in below:
            row = catch_up(i, k)
            a = row.pop(k)
            new = {j: b * p for j, b in row.items()}
            for j, b in top.items():
                if j != k:
                    new[j] = new.get(j, 0) - a * b
            rows[i] = {j: b // prev for j, b in new.items() if b}
            stage[i] = k
    return pivots, sign
