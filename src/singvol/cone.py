r"""Cone singularities polarized by an ample class, and their valuation traces.

``X`` is the cone over a smooth polarized variety ``(V, H)`` with ``V`` a
curve (``dim_X = 2``) or a surface (``dim_X = 3``). Blowing up the vertex
gives the single exceptional divisor ``E = V``, with co-normal bundle
``H``; sections of ``m H - D``-type classes govern the order of vanishing
along ``E``. Everything here is numerical: classes live in a small exact
lattice spanned by ``num_basis``, effectivity means membership in the
pseudo-effective cone (decided exactly by its facet inequalities, which are
enumerated from the generators and kept as one integer matrix, so every
facet test is an integer dot product), and the only non-numerical input is
the optional rigidity annotation saying that some class has a unique
effective representative.

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
module.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import Any, NamedTuple, Sequence

from . import io as sio
from .catalog import build_named, name_number
from .errors import (
    DomainError,
    InternalConsistencyError,
    MalformedInputError,
)
from .lattice import QVector, SymForm, numerators, rat, rat_str
from .record import Record

# Report-label vocabulary. Claims carried by citation are present for
# completeness of the record but were not (and cannot be) desk-checked here.
STATUS_COMPUTED = "computed-exact"
STATUS_CITED = "cited-not-computed"
STATUS_OPEN = "open-not-computed"

# Facet enumeration reduces every (n-1)-subset of the pseudo-effective
# generators; a cone with more subsets than this is refused as too large.
# At the limit, enumeration took about 4 s for 316 generators on the moment
# curve at basis 3 (2-vCPU machine, Python 3.11); perfbench's largest cone
# has C(13, 3) = 286 subsets.
MAX_FACET_SUBSETS = 50_000


class RigidClass(Record):
    """Annotation: every effective divisor in ``cls`` is the listed one.

    Matching is up to positive rational multiples: a query class equal to
    ``t * cls`` with ``t > 0`` matches, and the representative's
    coefficients scale by ``t``.
    """

    __slots__ = _fields = ("cls", "only_rep")

    def __init__(self, cls: QVector, only_rep: tuple[tuple[str, Fraction], ...]) -> None:
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "only_rep", only_rep)


class _FacetMatrix(NamedTuple):
    """The facet normals as ``int`` rows, and ``phi(H)`` for each row as an
    integer over ``h_den``, the common denominator of ``H``."""

    rows: tuple[tuple[int, ...], ...]
    phi_h: tuple[int, ...]
    h_den: int


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
        requirements and are rejected here otherwise. Every facet of a
        full-dimensional cone is spanned by ``dim - 1`` of its generators:
        each such subset that is independent is reduced by :func:`_echelon`,
        its kernel read off as a primitive integer normal, and the normal
        kept, pointing inwards, when no ray lies strictly on each side of it.
        Extra supporting hyperplanes that turn up are valid inequalities and
        harmless. A cone with more than ``MAX_FACET_SUBSETS`` subsets is
        refused before any is reduced (``reason="too-large"``).
        """
        n = len(self.basis)
        subsets = math.comb(len(self.pseff_gens), n - 1)
        if subsets > MAX_FACET_SUBSETS:
            raise DomainError(
                f"facet enumeration over {subsets} generator subsets exceeds the "
                f"limit of {MAX_FACET_SUBSETS}",
                reason="too-large",
            )
        rays = [numerators(g)[1] for g in self.pseff_gens]
        if len(_echelon(rays, n)[0]) != n:
            raise MalformedInputError(
                "pseff generators must span the class lattice",
                reason="cone-not-full-dimensional",
            )
        normals: set[tuple[int, ...]] = set()
        for subset in combinations(rays, n - 1):
            pivots, rows = _echelon(subset, n)
            if len(pivots) != n - 1:
                continue
            # the kernel is a line: l = lcm of the pivot entries on the free
            # column, and each pivot coordinate is -l * (that row's free
            # entry) / (its pivot entry)
            free = next(c for c in range(n) if c not in pivots)
            scale = math.lcm(*(row[col] for row, col in zip(rows, pivots)))
            normal = [0] * n
            normal[free] = scale
            for row, col in zip(rows, pivots):
                normal[col] = -row[free] * (scale // row[col])
            sides = set()
            for ray in rays:
                v = sum(map(mul, normal, ray))
                if v:
                    sides.add(v > 0)
                    if len(sides) == 2:
                        break
            if len(sides) == 1:
                # divide by the gcd, negated when the rays lie below
                g = math.gcd(*normal) if sides.pop() else -math.gcd(*normal)
                normals.add(tuple(x // g for x in normal))
        if len(_echelon(list(normals), n)[0]) != n:
            raise MalformedInputError("cone is not salient", reason="cone-not-salient")
        return tuple(QVector(phi) for phi in sorted(normals))

    @cached_property
    def _facets(self) -> _FacetMatrix:
        rows = tuple(tuple(x.numerator for x in phi) for phi in self.facet_normals)
        h_den, h_num = numerators(self.h_class)
        return _FacetMatrix(rows, tuple(sum(map(mul, r, h_num)) for r in rows), h_den)

    def contains(self, cls: QVector) -> bool:
        """Exact pseudo-effective cone membership: no facet functional is
        negative on ``cls``."""
        num = numerators(self._check_vec(cls, "class"))[1]
        return all(sum(map(mul, row, num)) >= 0 for row in self._facets.rows)

    def on_boundary(self, cls: QVector) -> bool:
        cls = self._check_vec(cls, "class")
        num = numerators(cls)[1]
        return self.contains(cls) and any(
            sum(map(mul, row, num)) == 0 for row in self._facets.rows
        )

    def _slope(self, cls: QVector) -> tuple[int, int]:
        """The largest ``phi(cls) / phi(H)`` over the facets, unclamped, as
        ``(p, q)`` with ``q > 0``: ``t H - cls`` is pseudo-effective exactly
        when ``t >= p / q``. Ratios are compared by cross-multiplying, every
        ``phi(H)`` being positive."""
        den, num = numerators(self._check_vec(cls, "class"))
        facets = self._facets
        best = best_h = None
        for row, phi_h in zip(facets.rows, facets.phi_h):
            v = sum(map(mul, row, num))
            if best is None or v * best_h > best * phi_h:
                best, best_h = v, phi_h
        return best * facets.h_den, best_h * den

    def _validate_geometry(self) -> None:
        if any(phi_h <= 0 for phi_h in self._facets.phi_h):
            raise MalformedInputError(
                "H is not interior to the pseudo-effective cone (not ample)",
                reason="h-not-ample",
            )
        for g in self.pseff_gens:
            if g.is_zero():
                raise MalformedInputError("zero vector among pseff generators")
            if self.dim_x == 3:
                if self.form.pair(self.h_class, g) <= 0:
                    raise MalformedInputError(
                        "H fails strict positivity against a pseff generator",
                        reason="h-not-ample",
                    )
            else:
                if self.degree(g) <= 0:
                    raise MalformedInputError(
                        "H-degree of a pseff generator is not positive",
                        reason="h-not-ample",
                    )
        if self.dim_x == 2 and self.degree(self.h_class) <= 0:
            raise MalformedInputError("H must have positive degree", reason="h-not-ample")
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
        curve."""
        if self.dim_x == 3:
            return self.form.pair(self.h_class, self.h_class)
        return self.degree(self.h_class)

    def rigid_decomposition(
        self, cls: QVector
    ) -> tuple[tuple[str, Fraction], ...] | None:
        """The unique effective representative of ``cls`` if annotated.

        Ray matching: an annotation for ``C`` answers for ``t C`` (``t`` a
        positive rational) with coefficients scaled by ``t``.
        """
        cls = self._check_vec(cls, "class")
        if cls.is_zero():
            return None
        for r in self.rigid:
            t = _proportionality(cls, r.cls)
            if t is not None and t > 0:
                return tuple((token, t * coeff) for token, coeff in r.only_rep)
        return None

    def to_doc(self) -> dict:
        doc = {
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
        return doc


def _echelon(
    vectors: Sequence[Sequence[int]], n: int
) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan reduction of the integer rows ``vectors``
    (``n`` columns each).

    Returns the pivot columns and the nonzero reduced rows, row ``k``
    nonzero in the ``k``-th pivot column and 0 in every other one; the rank
    is the number of pivots. Eliminating with pivot row ``top`` replaces a
    row by ``top[col] * row - row[col] * top`` divided by its gcd, which
    keeps the entries small.
    """
    rows = [list(v) for v in vectors]
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots, rows[: len(pivots)]


def _proportionality(a: QVector, b: QVector) -> Fraction | None:
    """``t`` with ``a = t b``, or None."""
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
    if t is None:  # b = 0: proportional only if a = 0
        return Fraction(0) if a.is_zero() else None
    return t


# -- boundary classes and bounds --------------------------------------------


class BoundaryClass(Record):
    """The class ``-K_V + a H`` with its effectivity and rigidity flags."""

    __slots__ = _fields = ("a", "cls", "effective", "on_pseff_boundary", "rigid_rep")

    def __init__(self, a: Fraction, cls: QVector, effective: bool, on_pseff_boundary: bool,
                 rigid_rep: tuple[tuple[str, Fraction], ...] | None) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "effective", effective)
        object.__setattr__(self, "on_pseff_boundary", on_pseff_boundary)
        object.__setattr__(self, "rigid_rep", rigid_rep)

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


def boundary_class(cone: PolarizedCone, a) -> BoundaryClass:
    """Numerical boundary class at slope ``a``, with exact effectivity."""
    a = rat(a)
    cls = -cone.k_class + cone.h_class.scale(a)
    effective = cone.contains(cls)
    return BoundaryClass(
        a=a,
        cls=cls,
        effective=effective,
        on_pseff_boundary=effective and cone.on_boundary(cls),
        rigid_rep=cone.rigid_decomposition(cls) if effective else None,
    )


def cone_log_discrepancy(cone: PolarizedCone, a) -> Fraction:
    """Log discrepancy ``-a`` of the exceptional divisor for a pair whose
    boundary represents ``-K_V + a H``; requires that class effective."""
    bc = boundary_class(cone, a)
    if not bc.effective:
        raise DomainError(
            f"no effective boundary at a = {rat_str(bc.a)}: class "
            f"{bc.cls.to_doc()} is outside the pseudo-effective cone",
            reason="boundary-not-effective",
        )
    return -bc.a


def vol_upper_bound(cone: PolarizedCone, a) -> Fraction:
    """``a^dim_X * H^(dim_X - 1)``: the bound an effective boundary at
    positive slope ``a`` imposes on every truncated volume."""
    a = rat(a)
    if a <= 0:
        raise DomainError("vol_upper_bound needs a > 0", reason="nonpositive-slope")
    bc = boundary_class(cone, a)
    if not bc.effective:
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


def natural_valuation(cone: PolarizedCone, cls: QVector, k: int,
                      limit: Fraction | None = None) -> int:
    """Least ``j >= 0`` such that ``j H - k cls`` is pseudo-effective.

    The value is ``ceil(k * valuation_limit(cls))``, from one evaluation of
    the exact slope (none when the caller passes that ``limit``), re-verified
    by direct membership on both sides of the step.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError("multiple k must be a positive integer")
    cls = cone._check_vec(cls, "class")
    if limit is None:
        limit = valuation_limit(cone, cls)
    j = -(-k * limit.numerator // limit.denominator)  # ceil(k * limit)
    scaled = cls.scale(k)
    if not cone.contains(cone.h_class.scale(j) - scaled):
        raise InternalConsistencyError("valuation optimum fails membership")
    if j > 0 and cone.contains(cone.h_class.scale(j - 1) - scaled):
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

    def __init__(self, exists: bool | None, forced_a: Fraction | None,
                 certificate: tuple[str, ...]) -> None:
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "forced_a", forced_a)
        object.__setattr__(self, "certificate", certificate)

    def to_doc(self) -> dict:
        return {
            "exists": "unknown" if self.exists is None else self.exists,
            "forced_a": None if self.forced_a is None else rat_str(self.forced_a),
            "certificate": list(self.certificate),
        }


def _class_str(cone: PolarizedCone, cls: QVector) -> str:
    parts = [
        f"{rat_str(c)}*{token}" for token, c in zip(cone.basis, cls) if c != 0
    ]
    return " + ".join(parts) if parts else "0"


def lc_boundary_exists(cone: PolarizedCone) -> LcVerdict:
    """Decide from the numerical data whether any boundary makes the cone
    pair log canonical.

    A boundary at slope ``a`` needs its class ``-K_V + a H`` effective,
    which forces ``a >= a_min`` (exact LP), while log canonicity of the
    pair forces ``a <= 0``. An empty range refutes existence outright;
    a range pinned to ``a = 0`` passes the question to the rigidity
    annotation of the pinned class (a forced component coefficient > 1
    refutes, no annotation leaves it open); and ``K_V`` exactly
    proportional to ``H`` with ratio <= 0 gives the empty boundary as a
    witness. Anything else is honestly unknown.
    """
    a_min = Fraction(*cone._slope(cone.k_class))
    effectivity = (
        f"effectivity: -K_V + a*H is pseudo-effective only for a >= {rat_str(a_min)} "
        "(exact LP over the pseff generators)"
    )
    lc_constraint = (
        "log canonicity: the exceptional divisor has log discrepancy -a, "
        "so a <= 0 is required"
    )
    if a_min > 0:
        return LcVerdict(
            exists=False,
            forced_a=None,
            certificate=(
                effectivity,
                lc_constraint,
                f"conclusion: the slope range [{rat_str(a_min)}, 0] is empty, "
                "so no boundary exists",
            ),
        )
    ratio = _proportionality(cone.k_class, cone.h_class)
    if ratio is not None and ratio <= 0:
        a0 = ratio
        return LcVerdict(
            exists=True,
            forced_a=Fraction(0) if a_min == 0 else None,
            certificate=(
                effectivity,
                lc_constraint,
                f"witness: K_V = {rat_str(a0)}*H exactly, so the empty boundary "
                f"realizes slope a = {rat_str(a0)} and the pair with no boundary "
                "is log canonical",
            ),
        )
    if a_min == 0:
        pinned = -cone.k_class
        pinned_str = _class_str(cone, pinned)
        pinning = (
            "pinning: the two constraints force a = 0, so the boundary class "
            f"must be -K_V = {pinned_str}"
        )
        rep = cone.rigid_decomposition(pinned)
        if rep is None:
            return LcVerdict(
                exists=None,
                forced_a=Fraction(0),
                certificate=(
                    effectivity,
                    lc_constraint,
                    pinning,
                    "undecided: no rigidity annotation covers the pinned class",
                ),
            )
        rep_str = " + ".join(f"{rat_str(c)}*{token}" for token, c in rep)
        too_big = [(token, c) for token, c in rep if c > 1]
        if too_big:
            token, c = too_big[0]
            return LcVerdict(
                exists=False,
                forced_a=Fraction(0),
                certificate=(
                    effectivity,
                    lc_constraint,
                    f"rigidity: the only effective representative of {pinned_str} "
                    f"is {rep_str}, whose component {token} carries coefficient "
                    f"{rat_str(c)} > 1, which no log canonical boundary allows",
                ),
            )
        return LcVerdict(
            exists=None,
            forced_a=Fraction(0),
            certificate=(
                effectivity,
                lc_constraint,
                pinning,
                f"undecided: the rigid representative {rep_str} has coefficients "
                "<= 1, but annotations alone cannot certify the pair is log "
                "canonical",
            ),
        )
    return LcVerdict(
        exists=None,
        forced_a=None,
        certificate=(
            effectivity,
            lc_constraint,
            f"undecided: every slope in [{rat_str(a_min)}, 0] admits an effective "
            "boundary class and the annotations do not single one out",
        ),
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
        {
            "claim": "augmented-volume-zero",
            "status": STATUS_CITED,
            "detail": (
                "each row bounds every truncated volume by a^dim * H^(dim-1), "
                "which shrinks to 0 along slopes a -> 0; the identification of "
                "the infimum with the augmented volume is carried by citation"
            ),
        },
        {
            "claim": "local-volume-zero",
            "status": STATUS_CITED,
            "detail": (
                "the local volume is dominated by every truncated volume, hence "
                "by the vanishing infimum above"
            ),
        },
    ]
    if verdict_lc.exists is True:
        verdicts.append(
            {
                "claim": "all-truncated-volumes-zero",
                "status": STATUS_COMPUTED,
                "detail": (
                    "an lc boundary exists, so every truncated volume vanishes; "
                    "witness recorded in the lc certificate"
                ),
            }
        )
    if verdict_lc.exists is False:
        verdicts.append(
            {
                "claim": "no-lc-boundary",
                "status": STATUS_COMPUTED,
                "detail": "; ".join(verdict_lc.certificate),
            }
        )
        verdicts.append(
            {
                "claim": "zero-local-volume-without-lc-boundary",
                "status": STATUS_COMPUTED,
                "detail": (
                    "the limiting log-discrepancy traces stay nonnegative (local "
                    "volume 0) although no boundary makes the pair log canonical"
                ),
            }
        )
    not_desk_verifiable = [
        {
            "claim": "every-truncated-volume-positive",
            "status": STATUS_CITED,
            "detail": (
                "positivity of each m-truncated volume is a statement about all "
                "birational models, not decidable from this one-divisor trace"
            ),
        },
        {
            "claim": "augmented-volume-equals-local-volume",
            "status": STATUS_OPEN,
            "detail": (
                "whether the two invariants agree in general is open; this "
                "report only ever computes the common upper bounds"
            ),
        },
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
    form ``a^2 d``. The report lists the minimum with its witnesses and
    the sorted distinct values (any infinite strictly decreasing pattern
    would have to show up here as accumulation from above, which it does
    not).
    """
    from .envelope import volume as graph_volume
    from .graph import ResolutionGraph

    if g_max < 2 or a_max < 1:
        raise DomainError("need g_max >= 2 and a_max >= 1")
    rows = []
    for g in range(2, g_max + 1):
        for a in range(1, a_max + 1):
            if (2 * g - 2) % a != 0:
                continue
            d = (2 * g - 2) // a
            graph = ResolutionGraph.make([("v", -d, g)])
            vol = graph_volume(graph).volume
            closed = Fraction(a * a * d)
            if vol != closed:
                raise InternalConsistencyError(
                    f"graph-pipeline volume {vol} disagrees with closed form "
                    f"{closed} at (g, a, d) = ({g}, {a}, {d})"
                )
            rows.append({"g": g, "a": a, "d": d, "volume": vol})
    if not rows:
        raise DomainError("empty scan grid")
    vmin = min(r["volume"] for r in rows)
    witnesses = [
        {"g": r["g"], "a": r["a"], "d": r["d"]} for r in rows if r["volume"] == vmin
    ]
    distinct = sorted({r["volume"] for r in rows})
    return {
        "grid": {"g_max": g_max, "a_max": a_max},
        "rows": [
            {"g": r["g"], "a": r["a"], "d": r["d"], "volume": rat_str(r["volume"])}
            for r in rows
        ],
        "min_volume": rat_str(vmin),
        "min_witnesses": witnesses,
        "distinct_volumes_ascending": [rat_str(v) for v in distinct],
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


# ``catalog.catalog_entries`` lists these names and patterns.
_CONE_FIXED = {
    "paper-ruled-surface": ruled_surface_cone,
    "elliptic-cone": lambda: curve_cone(1, 1),
}

_CONE_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (
        re.compile(r"^cone-g(\d+)-d(\d+)$"),
        lambda m: curve_cone(name_number(m.group(1)), name_number(m.group(2))),
    ),
    (
        re.compile(r"^elliptic-cone-(\d+)$"),
        lambda m: curve_cone(1, name_number(m.group(1))),
    ),
)


def cone_by_name(name: str) -> PolarizedCone:
    if name in _CONE_FIXED:
        return _CONE_FIXED[name]()
    for pattern, build in _CONE_PATTERNS:
        m = pattern.match(name)
        if m:
            return build_named(name, build, m)
    raise MalformedInputError(f"unknown catalog cone {name!r}", reason="unknown-catalog-name")


def _qvector(value: Any, what: str) -> QVector:
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{what} must be a list of rationals")
    return QVector(rat(x) for x in value)


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
    if not isinstance(form_rows, list):
        raise MalformedInputError("form must be a list of rows")
    form = SymForm([[rat(x) for x in row] for row in form_rows])
    for field in ("nef_gens", "pseff_gens"):
        if not isinstance(doc[field], list):
            raise MalformedInputError(f"{field} must be a list of classes")
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


# The codec's name in ``io``, its home before, bound by this module's import.
sio.cone_from_doc = cone_from_doc
