"""Exact rational vectors and symmetric bilinear forms.

Everything downstream (intersection matrices, discrepancy solves, Zariski
decompositions, cone membership) runs on this layer, so it is deliberately
small and completely exact: coefficients are ``fractions.Fraction`` with
arbitrary-precision integers underneath, and no float ever appears.

A form is stored as sparse integer rows, the nonzero entries of ``L * M``
with ``L`` the lcm of the denominators. A resolution graph hands these
rows over directly, so its form costs O(vertices + edges) to build; the
dense ``Fraction`` matrix is built only when asked for. Minors,
determinants, the definiteness test and solves share one fraction-free
elimination on Python ints (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) over the
nonzero entries. Definiteness and solves eliminate leaves first, where a
tree gets no fill-in; Sylvester's criterion holds for the leading minors
of any symmetric reordering. The mat-vec and the pairing are integer sums
over one denominator; results become ``Fraction`` only when returned.

Rationals serialize as ``"p/q"`` in lowest terms with positive denominator,
or ``"p"`` when the denominator is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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


def numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(d, [d * x for x in values])`` with ``d`` the lcm of the denominators
    (an int counts as denominator 1)."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class SymForm:
    """Symmetric bilinear form given by its exact Gram matrix ``M``.

    Built from dense rows of rationals or, with :meth:`sparse`, from the
    nonzero entries of an integer matrix. It keeps ``_integral = (L, rows)``:
    ``L`` the lcm of the denominators and the nonzero entries of ``L * M``
    as ``(column, int)`` pairs sorted by column. That is canonical, so
    equality and hashing use it. The dense ``rows`` and the leading minors
    are built on first use and cached.
    """

    __slots__ = ("_rows", "_integral", "_minors")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]) -> None:
        mat = tuple(QVector(row) for row in rows)
        if any(len(row) != len(mat) for row in mat):
            raise MalformedInputError("form matrix is not square")
        scale = math.lcm(*(x.denominator for row in mat for x in row))
        self._init(mat, scale, [
            {j: x.numerator * (scale // x.denominator) for j, x in enumerate(row) if x}
            for row in mat
        ])

    @classmethod
    def sparse(cls, rows: Sequence[Mapping[int, int]]) -> "SymForm":
        """The form of the integer matrix with entries ``rows[i][j]`` and
        zeros elsewhere. No dense matrix is built, so a graph's form costs
        O(vertices + edges)."""
        if any(isinstance(x, bool) or not isinstance(x, int)
               for row in rows for x in row.values()):
            raise MalformedInputError("sparse form entries must be integers")
        form = object.__new__(cls)
        form._init(None, 1, rows)
        return form

    def _init(self, rows, scale: int, sparse: Sequence[Mapping[int, int]]) -> None:
        n = len(sparse)
        if n == 0:
            raise MalformedInputError("form must have at least one row")
        for i, row in enumerate(sparse):
            for j, x in row.items():
                if not (isinstance(j, int) and 0 <= j < n):
                    raise MalformedInputError(f"column {j!r} out of range for dimension {n}")
                if sparse[j].get(i, 0) != x:
                    raise MalformedInputError(f"form matrix is not symmetric at ({i}, {j})")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_integral", (scale, tuple(
            tuple(sorted((j, x) for j, x in row.items() if x)) for row in sparse
        )))
        object.__setattr__(self, "_minors", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SymForm is immutable")

    @property
    def dim(self) -> int:
        return len(self._integral[1])

    @property
    def rows(self) -> tuple[QVector, ...]:
        """The dense Gram matrix."""
        if self._rows is None:
            scale, sparse = self._integral
            dense = [[0] * len(sparse) for _ in sparse]
            for row, out in zip(sparse, dense):
                for j, x in row:
                    out[j] = Fraction(x, scale)
            object.__setattr__(self, "_rows", tuple(QVector(row) for row in dense))
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def _check_len(self, v: Sequence, what: str = "vector") -> None:
        if len(v) != self.dim:
            raise MalformedInputError(
                f"{what} length {len(v)} does not match form dimension {self.dim}"
            )

    def _block(self, order: Sequence[int]) -> list[dict[int, int]]:
        """The scaled principal block on ``order``, renumbered by position."""
        pos = {i: k for k, i in enumerate(order)}
        sparse = self._integral[1]
        return [{pos[j]: a for j, a in sparse[i] if j in pos} for i in order]

    def apply(self, v: QVector) -> QVector:
        """Matrix-vector product ``M v``, over the nonzero entries only."""
        self._check_len(v)
        scale, sparse = self._integral
        den, num = numerators(v)
        den *= scale
        return _qvector(
            Fraction(sum([a * num[j] for j, a in row]), den) for row in sparse
        )

    def pair(self, a: QVector, b: QVector) -> Fraction:
        """Evaluate the form, ``a . M . b``, as one integer sparse sum."""
        self._check_len(a)
        self._check_len(b)
        scale, sparse = self._integral
        (da, na), (db, nb) = numerators(a), numerators(b)
        total = sum(x * sum([c * nb[j] for j, c in row]) for x, row in zip(na, sparse) if x)
        return Fraction(total, scale * da * db)

    def solve(self, rhs: Sequence[RationalLike], support: Sequence[int] | None = None) -> QVector:
        """Solve ``M x = rhs`` (ints or Fractions) exactly; raises
        SingularSystemError if singular.

        With ``support``, solve the principal subsystem on those indices
        instead: ``x`` vanishes off ``support`` and ``(M x)_i = rhs_i`` for
        every ``i`` in it; entries of ``rhs`` off the support are ignored.
        """
        n = self.dim
        self._check_len(rhs, "rhs")
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
        den, num = numerators([rhs[i] for i in order])
        rows = self._block(order)
        for row, c in zip(rows, num):
            row[m] = self._integral[0] * c
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
            scale, sparse = self._integral
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
        """Sylvester's criterion, the k x k leading minors of sign (-1)^k,
        in the leaf-first order of :meth:`solve`: it holds for any symmetric
        reordering, and there a tree is eliminated without fill-in. One pass
        without pivoting; it stops at a zero minor, which fails the test."""
        n = self.dim
        pivots, _ = _eliminate(self._block(range(n - 1, -1, -1)), n, pivoting=False)
        return all(p and (p < 0) == (k % 2 == 0) for k, p in enumerate(pivots))

    def restrict(self, indices: Sequence[int]) -> "SymForm":
        """Principal submatrix on the given index list (order preserved)."""
        return SymForm([[self.rows[i][j] for j in indices] for i in indices])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymForm) and self._integral == other._integral

    def __hash__(self) -> int:
        return hash(self._integral)

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
