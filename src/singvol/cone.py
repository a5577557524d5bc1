r"""Cone singularities polarized by an ample class, and their valuation traces.

``X`` is the cone over a smooth polarized variety ``(V, H)`` with ``V`` a
curve (``dim_X = 2``) or a surface (``dim_X = 3``). Blowing up the vertex
gives the single exceptional divisor ``E = V``, with co-normal bundle
``H``; sections of ``m H - D``-type classes govern the order of vanishing
along ``E``. Everything here is numerical: classes live in a small exact
lattice spanned by ``num_basis``, effectivity means membership in the
pseudo-effective cone (decided exactly by its facet inequalities, which are
found from the generators by the double description method in integers,
one generator at a time, and kept as one integer matrix, so every facet
test is an integer dot product), and the only non-numerical input is the
optional rigidity annotation saying that some class has a unique effective
representative. The start simplex and the salience test factor integer Gram
matrices with :func:`~singvol.lattice._eliminate`, the same exact
elimination that graphs use; this module has no row reduction of its own.

Each invariant is computed once, in integers: a class's facet values and
slope are one entry, kept for the last class, so a sweep over ``k`` or ``m``
scans the facets once; ``H^(dim-1)`` is computed on first use; ``H . g > 0``
(or ``deg g > 0``) is tested as the sign of the integer dot product of the
generator's ray with one integer mat-vec. Whether a boundary class ``-K_V +
a H`` is effective, or on the boundary of the pseudo-effective cone, is the
sign of an integer combination of the facet values of ``K_V`` (its kept
entry) and of ``H``, so no class is built to decide it, and the lc verdict
is decided once per cone and kept.

The key quantities:

* ``boundary_class(a)``: the class ``-K_V + a H`` that a boundary divisor
  must represent if the pair trace ``K_V + Delta == a H`` is to hold;
* ``cone_log_discrepancy(a) = -a``: the log discrepancy of ``E`` for such
  a pair;
* ``vol_upper_bound(a) = a^dim * H^(dim-1)``: the exact intersection-number
  bound that an effective boundary at slope ``a > 0`` puts on every
  truncated volume;
* ``natural_valuation(D, k)``: the least ``j >= 0`` with ``j H - k D``
  pseudo-effective, the order of vanishing forced along ``E``;
* ``valuation_limit(D)``: the exact limit of ``natural_valuation(D, k)/k``;
* ``limiting_discrepancy(m) = -(1/m) natural_valuation(K_V, m)``: the
  coefficient on ``E`` of the m-truncated log-discrepancy trace;
* ``lc_boundary_exists``: a three-step numerical certificate deciding (when
  the annotations suffice) whether any boundary makes the cone pair log
  canonical;
* ``vol_plus_table`` / ``dcc_scan``: the bound tables and the Gorenstein
  volume scan built from the pieces above.

The cone document codec (:func:`cone_from_doc`) and the named cones
(:func:`cone_by_name`) live here too, so graph commands never load this
module, and this module loads no graph code until ``dcc_scan`` runs: it
takes ``ResolutionGraph`` with ``envelope`` when called.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Any, Sequence

from . import io as sio
from .errors import (
    DomainError,
    InternalConsistencyError,
    MalformedInputError,
)
from .lattice import QVector, SymForm, _eliminate, _substitute, numerators, rat, rat_str
from .record import Record, lazy

# Report-label vocabulary. Claims carried by citation are present for
# completeness of the record but were not (and cannot be) desk-checked here.
STATUS_COMPUTED = "computed-exact"
STATUS_CITED = "cited-not-computed"
STATUS_OPEN = "open-not-computed"


def claim(name: str, status: str, detail: str) -> dict:
    """A report's labeled statement: what is claimed, how it is known, and why."""
    return {"claim": name, "status": status, "detail": detail}


# A cone with more (n-1)-subsets of its m pseudo-effective generators than
# this is refused as too large. Each facet of every intermediate cone of the
# double description is spanned by n - 1 of its generators, so C(m, n - 1)
# bounds the normals kept at each of the m insertions, and with them the
# work. At the limit, on the moment curve, in order or shuffled, enumeration
# took 0.05-0.07 s for 316 generators at basis 3 (316 facets), 0.01-0.05 s
# for 67 at basis 4, 0.06 s for 34 at basis 5 (527 facets) and 0.04-0.09 s
# for 24 at basis 6; reducing every subset took 1-4 s there (2-vCPU machine,
# Python 3.11). perfbench's largest cone has C(13, 3) = 286 subsets.
MAX_FACET_SUBSETS = 50_000
# The most cells g_max * a_max of a dcc scan grid. Every cell with a | 2g - 2
# builds and solves a graph, and a_max = 1 makes every cell do so: 10,000 x 1
# took 1.3 s and 1,000 x 10 0.45 s (2-vCPU machine, Python 3.11).
MAX_DCC_CELLS = 5_000


class RigidClass(Record):
    """Annotation: every effective divisor in ``cls`` is the listed one.

    Matching is up to positive rational multiples: a query class equal to
    ``t * cls`` with ``t > 0`` matches, and the representative's
    coefficients scale by ``t``.
    """

    __slots__ = _fields = ("cls", "only_rep")


class PolarizedCone:
    """Numerical data of a cone singularity over a polarized ``(V, H)``."""

    def __init__(
        self,
        dim_x: int,
        basis: Sequence[str],
        form: SymForm,
        nef_gens: Sequence[QVector],
        pseff_gens: Sequence[QVector],
        k_class: QVector,
        h_class: QVector,
        rigid: Sequence[RigidClass] = (),
    ) -> None:
        if dim_x not in (2, 3):
            raise MalformedInputError("dim_X must be 2 or 3")
        self.dim_x = dim_x
        self.basis = tuple(basis)
        if not self.basis or len(set(self.basis)) != len(self.basis):
            raise MalformedInputError("num_basis must be nonempty and duplicate-free")
        n = len(self.basis)
        if form.dim != n:
            raise MalformedInputError("form dimension does not match num_basis")
        self.form = form
        self.nef_gens = tuple(self._check_vec(v, "nef generator") for v in nef_gens)
        self.pseff_gens = tuple(self._check_vec(v, "pseff generator") for v in pseff_gens)
        if not self.pseff_gens:
            raise MalformedInputError("need at least one pseff generator")
        self.k_class = self._check_vec(k_class, "K_V")
        self.h_class = self._check_vec(h_class, "H")
        self.rigid = tuple(rigid)
        for r in self.rigid:
            self._check_vec(r.cls, "rigid class")
            if not r.only_rep:
                raise MalformedInputError("rigid annotation needs a representative")
            for token, coeff in r.only_rep:
                if not token or coeff <= 0:
                    raise MalformedInputError(
                        "rigid representative needs named components with positive "
                        "coefficients"
                    )
        self._last = None, None  # the class _values saw last, and its entry
        self._validate_geometry()

    def _check_vec(self, v: QVector, what: str) -> QVector:
        if not isinstance(v, QVector):
            v = QVector(v)
        if len(v) != len(self.basis):
            raise MalformedInputError(
                f"{what} has {len(v)} coordinates for {len(self.basis)} basis classes"
            )
        return v

    # -- cone geometry -----------------------------------------------------

    @cached_property
    def facet_normals(self) -> tuple[QVector, ...]:
        """Primitive integer inequalities cutting out the pseudo-effective cone.

        Each generator is scaled to an integer ray (a positive multiple, so
        the cone is unchanged). The cone must be full-dimensional (the rays
        span) and salient (the normals span back); both are schema
        requirements and are rejected here otherwise.

        The normals are the extreme rays of the dual cone, found in integers
        by the double description method (Motzkin, Raiffa, Thompson and
        Thrall, 1953). ``n`` independent rays, picked greedily, span a
        simplicial cone: a ray joins when the Gram matrix of the chosen rays
        and it is nonsingular (:func:`_gram_factor`). Its normals are the
        columns of ``S^-1`` for ``S`` with those rays as rows: ``S^-1 = S^T
        (S S^T)^-1``, so ``phi_i = S^T y`` with ``(d, y)`` the integer solve
        of ``S S^T y = d e_i``, ``d > 0``. That is ``d`` times column ``i``,
        so over its gcd it is the primitive normal with ``phi_i(s_i) > 0``,
        whatever positive multiple a route finds. Each other ray ``g`` is
        added in turn: normals with ``phi(g) >= 0`` stay, the others go, and
        each adjacent ``(+, -)`` pair gives the new normal
        ``phi+(g) phi- - phi-(g) phi+`` over its gcd. Two normals are
        adjacent when their zero sets (the added rays they vanish on) meet
        in at least ``n - 2`` rays and no third normal's zero set contains
        that meet (Fukuda and Prodon, "Double description method revisited",
        1996). So the work follows the facet count, not the subset count;
        a cone with more than ``MAX_FACET_SUBSETS`` generator subsets is
        still refused first (``reason="too-large"``). The normals span, so
        the cone is salient, when the ``n x n`` Gram matrix of their
        columns is nonsingular.
        """
        n = len(self.basis)
        subsets = math.comb(len(self.pseff_gens), n - 1)
        if subsets > MAX_FACET_SUBSETS:
            raise DomainError(
                f"facet enumeration over {subsets} generator subsets exceeds the "
                f"limit of {MAX_FACET_SUBSETS}",
                reason="too-large",
            )
        rays = self._rays
        start: list[int] = []
        for j, ray in enumerate(rays):
            factor = _gram_factor([rays[i] for i in start] + [ray])
            if factor[0][-1]:
                start.append(j)
                if len(start) == n:
                    break  # factor is the whole simplex's
        else:
            raise MalformedInputError(
                "pseff generators must span the class lattice",
                reason="cone-not-full-dimensional",
            )
        simplex = [rays[j] for j in start]
        # each normal's zero set: a bit mask of the added rays it vanishes on
        normals, zeros = [], []
        for i, j in enumerate(start):
            y = _substitute(factor, [int(k == i) for k in range(n)])[1]
            normal = [sum(map(mul, y, column)) for column in zip(*simplex)]
            g = math.gcd(*normal)
            normals.append(tuple(x // g for x in normal))
            zeros.append(sum(1 << k for k in start if k != j))
        for j, ray in enumerate(rays):
            if j in start:
                continue
            bit = 1 << j
            values = [sum(map(mul, phi, ray)) for phi in normals]
            negative = [q for q, v in enumerate(values) if v < 0]
            kept = [phi for phi, v in zip(normals, values) if v >= 0]
            kept_zeros = [zs | bit if v == 0 else zs for zs, v in zip(zeros, values) if v >= 0]
            for p, vp in enumerate(values):
                if vp <= 0:
                    continue
                for q in negative:
                    meet = zeros[p] & zeros[q]
                    if meet.bit_count() < n - 2 or any(
                        zs & meet == meet for k, zs in enumerate(zeros) if k != p and k != q
                    ):
                        continue
                    normal = [vp * a - values[q] * b for a, b in zip(normals[q], normals[p])]
                    g = math.gcd(*normal)
                    kept.append(tuple(x // g for x in normal))
                    kept_zeros.append(meet | bit)
            normals, zeros = kept, kept_zeros
        normals.sort()
        if not normals or not _gram_factor(list(zip(*normals)))[0][-1]:
            raise MalformedInputError("cone is not salient", reason="cone-not-salient")
        return tuple(QVector(phi) for phi in normals)

    @lazy
    def _rays(self) -> list[list[int]]:
        """Each generator's integer numerators: a positive multiple, the same ray."""
        return [numerators(g)[1] for g in self.pseff_gens]

    @lazy
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The facet normals as ``int`` rows."""
        return tuple(tuple(x.numerator for x in phi) for phi in self.facet_normals)

    def _values(self, cls: QVector) -> list:
        """The entry ``[den, (den * phi(cls), ...), slope]`` over the facets
        ``phi``, ``den`` the common denominator of ``cls``: the one evaluation
        of the facet functionals on a class, in integers. The last class's
        entry is kept; :meth:`_slope` fills in its slope on first use, and
        only it reads that slot."""
        cls = self._check_vec(cls, "class")
        last, entry = self._last
        if cls != last:
            den, num = numerators(cls)
            entry = [den, tuple([sum(map(mul, row, num)) for row in self._rows]), None]
            self._last = cls, entry
        return entry

    def contains(self, cls: QVector) -> bool:
        """Exact pseudo-effective cone membership: no facet functional is
        negative on ``cls``."""
        return min(self._values(cls)[1]) >= 0

    def _slope(self, cls: QVector) -> tuple[int, int]:
        """The largest ``phi(cls) / phi(H)`` over the facets, unclamped, as
        ``(p, q)`` with ``q > 0``: ``t H - cls`` is pseudo-effective exactly
        when ``t >= p / q``. Ratios are compared by cross-multiplying, every
        ``phi(H)`` being positive; the class's entry keeps the result."""
        entry = self._values(cls)
        if entry[2] is None:
            den, values = entry[:2]
            best, best_h = values[0], self._phi_h[0]
            for v, phi_h in zip(values, self._phi_h):
                if v * best_h > best * phi_h:
                    best, best_h = v, phi_h
            entry[2] = best * self._h_den, best_h * den
        return entry[2]

    def _validate_geometry(self) -> None:
        # phi(H) per facet as integers over h_den, the common denominator of H
        self._h_den, self._phi_h = self._values(self.h_class)[:2]
        if min(self._phi_h) <= 0:
            raise MalformedInputError(
                "H is not interior to the pseudo-effective cone (not ample)",
                reason="h-not-ample",
            )
        # the sign of H . g (dim_X = 3) or deg g (the form's first row): an integer dot
        h_num = numerators(self.h_class)[1]
        probe = self.form.apply_int(h_num if self.dim_x == 3 else
                                    [int(i == 0) for i in range(len(h_num))])
        for ray in self._rays:
            if not any(ray):
                raise MalformedInputError("zero vector among pseff generators")
            if sum(map(mul, probe, ray)) <= 0:
                raise MalformedInputError(
                    "H fails strict positivity against a pseff generator" if self.dim_x == 3
                    else "H-degree of a pseff generator is not positive",
                    reason="h-not-ample",
                )
        for v in self.nef_gens:
            if not self.contains(v):
                raise MalformedInputError(
                    "nef generator outside the pseudo-effective cone"
                )

    # -- numerical functionals ----------------------------------------------

    def degree(self, cls: QVector) -> Fraction:
        """Degree functional for curve cones (``dim_X = 2``): the form's
        single row acts as the functional."""
        if self.dim_x != 2:
            raise DomainError("degree functional only applies when dim_X = 2")
        cls = self._check_vec(cls, "class")
        return self.form.apply(cls)[0]

    def h_power(self) -> Fraction:
        """``H^(dim_X - 1)``: self-intersection for a surface, degree for a
        curve, computed once."""
        return self._h_power

    @lazy
    def _h_power(self) -> Fraction:
        h = self.h_class
        return self.form.pair(h, h) if self.dim_x == 3 else self.degree(h)

    @lazy
    def _lc_verdict(self) -> LcVerdict:
        return _decide_lc(self)

    def rigid_decomposition(
        self, cls: QVector
    ) -> tuple[tuple[str, Fraction], ...] | None:
        """The unique effective representative of ``cls`` if annotated.

        Ray matching: an annotation for ``C`` answers for ``t C`` (``t`` a
        positive rational) with coefficients scaled by ``t``.
        """
        cls = self._check_vec(cls, "class")
        for r in self.rigid:
            t = _proportionality(cls, r.cls)
            if t is not None and t > 0:
                return tuple((token, t * coeff) for token, coeff in r.only_rep)
        return None

    def to_doc(self) -> dict:
        return {
            "dim_X": self.dim_x,
            "num_basis": list(self.basis),
            "form": self.form.to_doc(),
            "nef_gens": [v.to_doc() for v in self.nef_gens],
            "pseff_gens": [v.to_doc() for v in self.pseff_gens],
            "K_V": self.k_class.to_doc(),
            "H": self.h_class.to_doc(),
            "rigid": [
                {
                    "class": r.cls.to_doc(),
                    "only_rep": [[token, rat_str(c)] for token, c in r.only_rep],
                }
                for r in self.rigid
            ],
        }


def _gram_factor(vectors: Sequence[Sequence[int]]) -> tuple:
    """The :func:`~singvol.lattice._eliminate` factor of the Gram matrix
    ``(u . v)`` of integer vectors: its last pivot is nonzero exactly when
    the vectors are independent."""
    rows = [{j: g for j, v in enumerate(vectors) if (g := sum(map(mul, u, v)))}
            for u in vectors]
    return _eliminate(rows, len(rows))


def _proportionality(a: QVector, b: QVector) -> Fraction | None:
    """``t`` with ``a = t b``, or None (always when ``b = 0``)."""
    t: Fraction | None = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return None
            continue
        ratio = x / y
        if t is None:
            t = ratio
        elif t != ratio:
            return None
    return t


# -- boundary classes and bounds --------------------------------------------


class BoundaryClass(Record):
    """The class ``-K_V + a H`` with its effectivity and rigidity flags."""

    __slots__ = _fields = ("a", "cls", "effective", "on_pseff_boundary", "rigid_rep")

    def to_doc(self) -> dict:
        return {
            "a": rat_str(self.a),
            "class": self.cls.to_doc(),
            "effective": self.effective,
            "on_pseff_boundary": self.on_pseff_boundary,
            "rigid_rep": None
            if self.rigid_rep is None
            else [[token, rat_str(c)] for token, c in self.rigid_rep],
        }


def _boundary_low(cone: PolarizedCone, a: Fraction) -> int:
    """The least facet value of ``-K_V + a H`` times a positive integer.

    For ``a = p / q`` each facet ``phi`` gives ``p phi(H) den - q h_den
    phi(K_V)`` from ``K_V``'s entry ``(den, den * phi(K_V))`` and ``phi(H)``
    over ``h_den``: ``q h_den den`` times ``phi(-K_V + a H)``. So the class is
    effective exactly when the result is ``>= 0``, and on the boundary of
    the pseudo-effective cone when it is ``0``; no class is built.
    """
    den, values = cone._values(cone.k_class)[:2]
    p, q = a.numerator * den, a.denominator * cone._h_den
    return min([p * h - q * v for h, v in zip(cone._phi_h, values)])


def boundary_class(cone: PolarizedCone, a) -> BoundaryClass:
    """Numerical boundary class at slope ``a``, with exact effectivity.

    ``effective`` and ``on_pseff_boundary`` are read from the integer test
    :func:`_boundary_low`; the class itself and its rigid decomposition are
    built only for the returned record.
    """
    a = rat(a)
    low = _boundary_low(cone, a)
    cls = -cone.k_class + cone.h_class.scale(a)
    return BoundaryClass(
        a=a,
        cls=cls,
        effective=low >= 0,
        on_pseff_boundary=low == 0,
        rigid_rep=cone.rigid_decomposition(cls) if low >= 0 else None,
    )


def cone_log_discrepancy(cone: PolarizedCone, a) -> Fraction:
    """Log discrepancy ``-a`` of the exceptional divisor for a pair whose
    boundary represents ``-K_V + a H``; requires that class effective, which
    the integer test :func:`_boundary_low` decides. The class is built only
    to name it in the refusal."""
    a = rat(a)
    if _boundary_low(cone, a) < 0:
        cls = -cone.k_class + cone.h_class.scale(a)
        raise DomainError(
            f"no effective boundary at a = {rat_str(a)}: class "
            f"{cls.to_doc()} is outside the pseudo-effective cone",
            reason="boundary-not-effective",
        )
    return -a


def vol_upper_bound(cone: PolarizedCone, a) -> Fraction:
    """``a^dim_X * H^(dim_X - 1)``: the bound an effective boundary at
    positive slope ``a`` imposes on every truncated volume. Effectivity is
    the integer test :func:`_boundary_low`, so no boundary class is built."""
    a = rat(a)
    if a <= 0:
        raise DomainError("vol_upper_bound needs a > 0", reason="nonpositive-slope")
    if _boundary_low(cone, a) < 0:
        raise DomainError(
            f"no effective boundary at a = {rat_str(a)}",
            reason="boundary-not-effective",
        )
    return a**cone.dim_x * cone.h_power()


# -- valuations ---------------------------------------------------------------


def valuation_limit(cone: PolarizedCone, cls: QVector) -> Fraction:
    """Exact limit of ``natural_valuation(cls, k) / k``: the least
    ``t >= 0`` with ``t H - cls`` pseudo-effective.

    Since ``H`` is interior to the cone, each facet inequality reads
    ``t >= phi(cls) / phi(H)``; the optimum is the largest such ratio,
    clamped at zero.
    """
    p, q = cone._slope(cls)
    return Fraction(max(p, 0), q)


def natural_valuation(cone: PolarizedCone, cls: QVector, k: int) -> int:
    """Least ``j >= 0`` such that ``j H - k cls`` is pseudo-effective.

    The value is ``ceil(k * valuation_limit(cls))`` from the class's slope,
    re-verified by membership on both sides of the step. By linearity,
    ``phi(j H - k cls)`` has the sign of ``j phi(H) den - k phi(cls) h_den``
    over the class's facet values, so the re-checks are integer sign tests.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError("multiple k must be a positive integer")
    p, q = cone._slope(cls)
    j = -(-k * max(p, 0) // q)  # ceil(k * limit), the slope clamped at 0
    den, values = cone._values(cls)[:2]
    h_step = [phi_h * den for phi_h in cone._phi_h]
    kh = k * cone._h_den
    slack = [j * h - kh * v for h, v in zip(h_step, values)]
    if min(slack) < 0:
        raise InternalConsistencyError("valuation optimum fails membership")
    if j > 0 and all(s >= h for s, h in zip(slack, h_step)):
        raise InternalConsistencyError("valuation optimum is not minimal")
    return j


def limiting_discrepancy(cone: PolarizedCone, m: int) -> Fraction:
    """Coefficient on ``E`` of the m-truncated log-discrepancy trace:
    ``-(1/m) * natural_valuation(K_V, m)``.

    This is a trace along the vertex blowup only; positivity or vanishing
    of the m-truncated volumes is NOT decided by it.
    """
    return Fraction(-natural_valuation(cone, cone.k_class, m), m)


# -- lc boundary certificates -------------------------------------------------


class LcVerdict(Record):
    """Outcome of the lc-boundary search: True / False / None (= unknown),
    the pinned slope when the numerics force one, and the reasoning chain."""

    __slots__ = _fields = ("exists", "forced_a", "certificate")

    def to_doc(self) -> dict:
        return {
            "exists": "unknown" if self.exists is None else self.exists,
            "forced_a": None if self.forced_a is None else rat_str(self.forced_a),
            "certificate": list(self.certificate),
        }


def _terms(pairs) -> str:
    """``c1*token1 + c2*token2 ...`` over the nonzero coefficients."""
    return " + ".join(f"{rat_str(c)}*{token}" for token, c in pairs if c != 0) or "0"


def lc_boundary_exists(cone: PolarizedCone) -> LcVerdict:
    """Decide from the numerical data whether any boundary makes the cone
    pair log canonical; the verdict is decided once per cone and kept.

    A boundary at slope ``a`` needs its class ``-K_V + a H`` effective,
    which forces ``a >= a_min`` (exact LP), while log canonicity of the
    pair forces ``a <= 0``. An empty range refutes existence outright;
    a range pinned to ``a = 0`` passes the question to the rigidity
    annotation of the pinned class (a forced component coefficient > 1
    refutes, no annotation leaves it open); and ``K_V`` exactly
    proportional to ``H`` with ratio <= 0 gives the empty boundary as a
    witness. Anything else is honestly unknown.
    """
    return cone._lc_verdict


def _decide_lc(cone: PolarizedCone) -> LcVerdict:
    """The verdict of :func:`lc_boundary_exists`, computed."""
    a_min = Fraction(*cone._slope(cone.k_class))
    exists = None
    certificate = [
        f"effectivity: -K_V + a*H is pseudo-effective only for a >= {rat_str(a_min)} "
        "(exact LP over the pseff generators)",
        "log canonicity: the exceptional divisor has log discrepancy -a, "
        "so a <= 0 is required",
    ]
    if a_min > 0:
        exists = False
        certificate.append(
            f"conclusion: the slope range [{rat_str(a_min)}, 0] is empty, "
            "so no boundary exists"
        )
    elif (ratio := _proportionality(cone.k_class, cone.h_class)) is not None and ratio <= 0:
        exists = True
        certificate.append(
            f"witness: K_V = {rat_str(ratio)}*H exactly, so the empty boundary "
            f"realizes slope a = {rat_str(ratio)} and the pair with no boundary "
            "is log canonical"
        )
    elif a_min < 0:
        certificate.append(
            f"undecided: every slope in [{rat_str(a_min)}, 0] admits an effective "
            "boundary class and the annotations do not single one out"
        )
    else:
        pinned = -cone.k_class
        pinned_str = _terms(zip(cone.basis, pinned))
        rep = cone.rigid_decomposition(pinned) or ()
        rep_str = _terms(rep)
        too_big = next(((token, c) for token, c in rep if c > 1), None)
        if too_big:
            exists = False
            certificate.append(
                f"rigidity: the only effective representative of {pinned_str} "
                f"is {rep_str}, whose component {too_big[0]} carries coefficient "
                f"{rat_str(too_big[1])} > 1, which no log canonical boundary allows"
            )
        else:
            certificate += [
                "pinning: the two constraints force a = 0, so the boundary class "
                f"must be -K_V = {pinned_str}",
                f"undecided: the rigid representative {rep_str} has coefficients "
                "<= 1, but annotations alone cannot certify the pair is log "
                "canonical"
                if rep
                else "undecided: no rigidity annotation covers the pinned class",
            ]
    return LcVerdict(
        exists=exists,
        forced_a=Fraction(0) if a_min == 0 else None,
        certificate=tuple(certificate),
    )


# -- report tables -------------------------------------------------------------


def vol_plus_table(cone: PolarizedCone, a_seq: Sequence) -> dict:
    """Upper-bound table along a decreasing slope sequence, with verdicts.

    Requires ``a_seq`` nonempty, strictly decreasing and positive, every
    slope admitting an effective boundary. Rows are exact; the limit
    verdicts are labeled by how they are known (computed here versus
    carried by citation), and the open comparison between the augmented
    volume and the limit volume is reported as such, never asserted.
    """
    slopes = [rat(a) for a in a_seq]
    if not slopes:
        raise DomainError("a_seq must be nonempty", reason="empty-sequence")
    if any(a <= 0 for a in slopes):
        raise DomainError("a_seq must be positive", reason="nonpositive-slope")
    if any(nxt >= prev for nxt, prev in zip(slopes[1:], slopes)):
        raise DomainError(
            "a_seq must be strictly decreasing", reason="not-decreasing"
        )
    rows = []
    for a in slopes:
        rows.append(
            {
                "a": rat_str(a),
                "upper_bound": rat_str(vol_upper_bound(cone, a)),
                "kind": "upper-bound",
                "status": STATUS_COMPUTED,
            }
        )
    verdict_lc = lc_boundary_exists(cone)
    verdicts = [
        claim("augmented-volume-zero", STATUS_CITED,
              "each row bounds every truncated volume by a^dim * H^(dim-1), "
              "which shrinks to 0 along slopes a -> 0; the identification of "
              "the infimum with the augmented volume is carried by citation"),
        claim("local-volume-zero", STATUS_CITED,
              "the local volume is dominated by every truncated volume, hence "
              "by the vanishing infimum above"),
    ]
    if verdict_lc.exists is True:
        verdicts.append(claim(
            "all-truncated-volumes-zero", STATUS_COMPUTED,
            "an lc boundary exists, so every truncated volume vanishes; "
            "witness recorded in the lc certificate"))
    if verdict_lc.exists is False:
        verdicts.append(claim("no-lc-boundary", STATUS_COMPUTED,
                              "; ".join(verdict_lc.certificate)))
        verdicts.append(claim(
            "zero-local-volume-without-lc-boundary", STATUS_COMPUTED,
            "the limiting log-discrepancy traces stay nonnegative (local "
            "volume 0) although no boundary makes the pair log canonical"))
    not_desk_verifiable = [
        claim("every-truncated-volume-positive", STATUS_CITED,
              "positivity of each m-truncated volume is a statement about all "
              "birational models, not decidable from this one-divisor trace"),
        claim("augmented-volume-equals-local-volume", STATUS_OPEN,
              "whether the two invariants agree in general is open; this "
              "report only ever computes the common upper bounds"),
    ]
    return {
        "rows": rows,
        "lc_boundary": verdict_lc.to_doc(),
        "verdicts": verdicts,
        "not_desk_verifiable": not_desk_verifiable,
    }


def curve_cone(genus: int, degree: int) -> PolarizedCone:
    """The cone over a smooth genus-``g`` curve polarized by degree ``d``."""
    if genus < 0 or degree < 1:
        raise DomainError("need genus >= 0 and degree >= 1")
    return PolarizedCone(
        dim_x=2,
        basis=("pt",),
        form=SymForm([[1]]),
        nef_gens=(QVector([1]),),
        pseff_gens=(QVector([1]),),
        k_class=QVector([2 * genus - 2]),
        h_class=QVector([degree]),
    )


def dcc_scan(g_max: int, a_max: int) -> dict:
    """Volumes of the Gorenstein cones over curves on a finite grid.

    Scans genus ``2 <= g <= g_max`` and integer slope ``1 <= a <= a_max``
    with ``d = (2g - 2)/a`` whenever integral; each volume is computed by
    the resolution-graph pipeline and cross-checked against the closed
    form, the integer ``a^2 d``, which the rows, minimum and distinct set
    then keep (``rat_str`` prints it as the equal ``Fraction``). The report
    lists the minimum with its witnesses and the sorted distinct values (any
    infinite strictly decreasing pattern would have to show up here as
    accumulation from above, which it does not).
    """
    from .envelope import ResolutionGraph, volume as graph_volume

    if g_max < 2 or a_max < 1:
        raise DomainError("need g_max >= 2 and a_max >= 1")
    if g_max * a_max > MAX_DCC_CELLS:
        raise DomainError(f"dcc scan grid of {g_max} x {a_max} cells exceeds the limit of "
                          f"{MAX_DCC_CELLS}", reason="too-large")
    rows = []  # (g, a, d, volume)
    for g in range(2, g_max + 1):
        for a in range(1, a_max + 1):
            if (2 * g - 2) % a != 0:
                continue
            d = (2 * g - 2) // a
            graph = ResolutionGraph.make([("v", -d, g)])
            vol = graph_volume(graph).volume
            closed = a * a * d
            if vol != closed:
                raise InternalConsistencyError(
                    f"graph-pipeline volume {vol} disagrees with closed form "
                    f"{closed} at (g, a, d) = ({g}, {a}, {d})"
                )
            rows.append((g, a, d, closed))
    if not rows:
        raise DomainError("empty scan grid")
    vmin = min(r[3] for r in rows)
    return {
        "grid": {"g_max": g_max, "a_max": a_max},
        "rows": [{"g": g, "a": a, "d": d, "volume": rat_str(v)} for g, a, d, v in rows],
        "min_volume": rat_str(vmin),
        "min_witnesses": [{"g": g, "a": a, "d": d} for g, a, d, v in rows if v == vmin],
        "distinct_volumes_ascending": [rat_str(v) for v in sorted({r[3] for r in rows})],
        "no_strictly_decreasing_chain": True,
    }


# -- named cones and cone documents ---------------------------------------------


def ruled_surface_cone() -> PolarizedCone:
    """The built-in ``paper-ruled-surface`` cone.

    ``V`` is the ruled surface over an elliptic curve attached to the
    unique nonsplit extension of the trivial bundle by itself. Its numeric
    lattice is spanned by the section ``C0`` and a fiber ``F`` with
    ``C0^2 = F^2 = 0`` and ``C0 . F = 1``; nef and pseudo-effective cones
    coincide and are spanned by ``C0`` and ``F``; ``K_V = -2 C0``; the
    polarization is ``H = C0 + F`` (so ``H^2 = 2``); and every effective
    divisor in ``|m C0|`` is ``m C0`` itself, recorded as a rigidity
    annotation on the ``C0`` ray.
    """
    return PolarizedCone(
        dim_x=3,
        basis=("C0", "F"),
        form=SymForm([[0, 1], [1, 0]]),
        nef_gens=(QVector([1, 0]), QVector([0, 1])),
        pseff_gens=(QVector([1, 0]), QVector([0, 1])),
        k_class=QVector([-2, 0]),
        h_class=QVector([1, 1]),
        rigid=(RigidClass(QVector([1, 0]), (("C0", Fraction(1)),)),),
    )


# ``cli.catalog_entries`` lists these names and patterns.
_CONE_FIXED = {
    "paper-ruled-surface": ruled_surface_cone,
    "elliptic-cone": lambda: curve_cone(1, 1),
}

_CONE_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (
        re.compile(r"^cone-g(\d+)-d(\d+)$"),
        lambda m: curve_cone(sio.name_number(m.group(1)), sio.name_number(m.group(2))),
    ),
    (
        re.compile(r"^elliptic-cone-(\d+)$"),
        lambda m: curve_cone(1, sio.name_number(m.group(1))),
    ),
)


def cone_by_name(name: str) -> PolarizedCone:
    return sio.by_name(name, _CONE_FIXED, _CONE_PATTERNS, "cone")


def _qvector(value: Any, what: str) -> QVector:
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{what} must be a list of rationals")
    return QVector(value)


def cone_from_doc(doc: Any) -> PolarizedCone:
    doc = sio.take(
        sio.require_mapping(doc, "cone"),
        "cone",
        ("dim_X", "num_basis", "form", "nef_gens", "pseff_gens", "K_V", "H"),
        ("rigid",),
    )
    basis = doc["num_basis"]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise MalformedInputError("num_basis must be a list of strings")
    form_rows = doc["form"]
    if not isinstance(form_rows, list) or not all(isinstance(row, list) for row in form_rows):
        raise MalformedInputError("form must be a list of rows")
    form = SymForm(form_rows)
    for field in ("nef_gens", "pseff_gens"):
        if not isinstance(doc[field], list):
            raise MalformedInputError(f"{field} must be a list of classes")
    if not isinstance(doc.get("rigid", []), list):
        raise MalformedInputError("rigid must be a list of annotations")
    rigid = []
    for r in doc.get("rigid", []):
        r = sio.take(sio.require_mapping(r, "rigid entry"), "rigid entry", ("class", "only_rep"))
        if not isinstance(r["only_rep"], list):
            raise MalformedInputError("only_rep must be a list of [token, coeff] pairs")
        rep = []
        for item in r["only_rep"]:
            if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(item[0], str):
                raise MalformedInputError("only_rep entries must be [token, coeff] pairs")
            rep.append((item[0], rat(item[1])))
        rigid.append(RigidClass(_qvector(r["class"], "rigid class"), tuple(rep)))
    return PolarizedCone(
        dim_x=sio.require_int(doc["dim_X"], "dim_X"),
        basis=tuple(basis),
        form=form,
        nef_gens=tuple(_qvector(v, "nef generator") for v in doc["nef_gens"]),
        pseff_gens=tuple(_qvector(v, "pseff generator") for v in doc["pseff_gens"]),
        k_class=_qvector(doc["K_V"], "K_V"),
        h_class=_qvector(doc["H"], "H"),
        rigid=tuple(rigid),
    )


# Bound into ``io`` when this module loads, so ``io.cone_from_doc`` resolves
# for perfbench's tracer, which wraps the ``io.*_from_doc`` codecs.
sio.cone_from_doc = cone_from_doc
