"""Polarized cones, valuations, boundary verdicts, the dcc scan."""

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from random import Random

import pytest

from singvol import (
    DomainError,
    MalformedInputError,
    PolarizedCone,
    QVector,
    ResolutionGraph,
    SymForm,
    boundary_class,
    cone_log_discrepancy,
    curve_cone,
    dcc_scan,
    lc_boundary_exists,
    limiting_discrepancy,
    natural_valuation,
    rat_str,
    valuation_limit,
    vol_plus_table,
    vol_upper_bound,
    volume,
)
from singvol.catalog import cone_over_curve
from singvol.cone import (
    MAX_DCC_CELLS,
    RigidClass,
    _boundary_low,
    cone_by_name,
    ruled_surface_cone,
)
from singvol.errors import InternalConsistencyError

F = Fraction


def _dot(u, v) -> Fraction:
    return sum(map(mul, u, v))


def vec(*entries) -> QVector:
    return QVector(tuple(F(e) for e in entries))


def ruled_without_rigidity() -> PolarizedCone:
    # same numerics as the built-in ruled-surface cone, no rigid annotations
    return PolarizedCone(
        dim_x=3,
        basis=("C0", "F"),
        form=SymForm(((0, 1), (1, 0))),
        nef_gens=(vec(1, 0), vec(0, 1)),
        pseff_gens=(vec(1, 0), vec(0, 1)),
        k_class=vec(-2, 0),
        h_class=vec(1, 1),
    )


def test_ruled_surface_cone_facets() -> None:
    c = ruled_surface_cone()
    assert set(n for n in c.facet_normals) == {(F(0), F(1)), (F(1), F(0))}


def test_facets_skip_dependent_generator_subsets() -> None:
    # (0, 0, 2) is parallel to (0, 0, 1): that pair spans no hyperplane, and
    # a normal made up for it would be x >= 0, which supports the cone only
    # along one ray and is no facet
    gens = (vec(1, 1, 1), vec(1, -1, 1), vec(0, 0, 1))

    def cone(pseff_gens) -> PolarizedCone:
        return PolarizedCone(
            dim_x=3,
            basis=("a", "b", "c"),
            form=SymForm(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            nef_gens=(vec(1, 0, 2),),
            pseff_gens=pseff_gens,
            k_class=vec(-1, -1, -1),
            h_class=vec(1, 0, 2),
        )

    with_pair = cone(gens + (vec(0, 0, 2),))
    assert with_pair.facet_normals == cone(gens).facet_normals
    assert set(with_pair.facet_normals) == {vec(-1, 0, 1), vec(1, -1, 0), vec(1, 1, 0)}


def test_membership_and_boundary() -> None:
    c = ruled_surface_cone()
    assert c.contains(vec(1, 1))
    assert c.contains(vec(0, 0))
    assert c.contains(vec(2, 0))
    assert not c.contains(vec(-1, 2))


def test_h_power_and_degree() -> None:
    c = ruled_surface_cone()
    assert c.h_power() == F(2)
    g2 = curve_cone(2, 1)
    assert g2.h_power() == F(1)
    assert g2.degree(vec(3)) == F(3)


def test_cone_validation_rejects_bad_data() -> None:
    form = SymForm(((0, 1), (1, 0)))
    # H on the boundary is not an ample polarization
    with pytest.raises(MalformedInputError) as exc:
        PolarizedCone(
            dim_x=3,
            basis=("C0", "F"),
            form=form,
            nef_gens=(vec(1, 0), vec(0, 1)),
            pseff_gens=(vec(1, 0), vec(0, 1)),
            k_class=vec(-2, 0),
            h_class=vec(1, 0),
        )
    assert exc.value.reason == "h-not-ample"
    # generators that do not span
    with pytest.raises(MalformedInputError) as exc:
        PolarizedCone(
            dim_x=3,
            basis=("C0", "F"),
            form=form,
            nef_gens=(vec(1, 0),),
            pseff_gens=(vec(1, 0),),
            k_class=vec(-2, 0),
            h_class=vec(1, 0),
        )
    assert exc.value.reason == "cone-not-full-dimensional"
    # non-salient cone (contains a line)
    with pytest.raises(MalformedInputError) as exc:
        PolarizedCone(
            dim_x=3,
            basis=("C0", "F"),
            form=form,
            nef_gens=(vec(1, 0), vec(-1, 0), vec(0, 1)),
            pseff_gens=(vec(1, 0), vec(-1, 0), vec(0, 1)),
            k_class=vec(-2, 0),
            h_class=vec(0, 1),
        )
    assert exc.value.reason == "cone-not-salient"
    with pytest.raises(MalformedInputError):
        PolarizedCone(
            dim_x=4,  # only surfaces and threefolds
            basis=("C0", "F"),
            form=form,
            nef_gens=(vec(1, 0), vec(0, 1)),
            pseff_gens=(vec(1, 0), vec(0, 1)),
            k_class=vec(-2, 0),
            h_class=vec(1, 1),
        )


def test_rigid_decomposition_scales_along_the_ray() -> None:
    c = ruled_surface_cone()
    assert c.rigid_decomposition(vec(2, 0)) == (("C0", F(2)),)
    assert c.rigid_decomposition(vec(F(3, 2), 0)) == (("C0", F(3, 2)),)
    assert c.rigid_decomposition(vec(1, 1)) is None


def test_boundary_class_values() -> None:
    c = ruled_surface_cone()
    bc = boundary_class(c, F(1, 2))
    assert bc.cls == (F(5, 2), F(1, 2))
    assert bc.effective and not bc.on_pseff_boundary

    bc0 = boundary_class(c, 0)
    assert bc0.cls == (F(2), F(0))
    assert bc0.effective and bc0.on_pseff_boundary
    assert bc0.rigid_rep == (("C0", F(2)),)

    assert not boundary_class(c, -1).effective


def test_cone_log_discrepancy_values() -> None:
    c = ruled_surface_cone()
    assert cone_log_discrepancy(c, F(1, 2)) == F(-1, 2)
    assert cone_log_discrepancy(c, 0) == F(0)
    with pytest.raises(DomainError) as exc:
        cone_log_discrepancy(c, -1)
    assert exc.value.reason == "boundary-not-effective"


def test_cone_log_discrepancy_matches_graph_model() -> None:
    # cone over a genus-g degree-d curve: the first effective slope is
    # a = (2g-2)/d and the discrepancy there equals the graph-side ell
    for g in (2, 3):
        for d in (1, 2, 3):
            a = F(2 * g - 2, d)
            from_cone = cone_log_discrepancy(curve_cone(g, d), a)
            graph_ell = cone_over_curve(g, d).discrepancy_report().ell
            assert from_cone == min(graph_ell.coeffs) == -a


def test_vol_upper_bound_values() -> None:
    c = ruled_surface_cone()
    assert vol_upper_bound(c, F(1, 2)) == F(1, 4)
    for k in range(11):
        a = F(1, 2 ** k)
        assert vol_upper_bound(c, a) == F(2) * a ** 3
    g2 = curve_cone(2, 1)
    assert vol_upper_bound(g2, F(2)) == F(4)


def test_vol_upper_bound_rejects_nonpositive_or_noneffective() -> None:
    c = ruled_surface_cone()
    with pytest.raises(DomainError) as exc:
        vol_upper_bound(c, 0)
    assert (exc.value.reason, str(exc.value)) == ("nonpositive-slope", "vol_upper_bound needs a > 0")
    with pytest.raises(DomainError) as exc:
        vol_upper_bound(curve_cone(2, 1), F(1, 2))  # boundary not effective
    assert (exc.value.reason, str(exc.value)) == (
        "boundary-not-effective", "no effective boundary at a = 1/2")
    assert exc.value.exit_code == 1


def test_slope_refusals_reason_and_message() -> None:
    # a_min = 2 on the genus-2 degree-1 cone: just below it the class is -1/97 pt
    with pytest.raises(DomainError) as exc:
        cone_log_discrepancy(curve_cone(2, 1), 2 - F(1, 97))
    assert (exc.value.reason, str(exc.value), exc.value.exit_code) == (
        "boundary-not-effective",
        "no effective boundary at a = 193/97: class ['-1/97'] is outside the "
        "pseudo-effective cone", 1)
    assert cone_log_discrepancy(curve_cone(2, 1), 2) == -2
    for slopes, reason, message in (
        ([], "empty-sequence", "a_seq must be nonempty"),
        ([F(1, 4), F(1, 2)], "not-decreasing", "a_seq must be strictly decreasing"),
        ([F(1, 2), F(1, 2)], "not-decreasing", "a_seq must be strictly decreasing"),
    ):
        with pytest.raises(DomainError) as exc:
            vol_plus_table(ruled_surface_cone(), slopes)
        assert (exc.value.reason, str(exc.value), exc.value.exit_code) == (reason, message, 1)


def test_valuation_limit_values() -> None:
    c = ruled_surface_cone()
    # smallest t >= 0 with tH - D in the cone
    assert valuation_limit(c, vec(1, 0)) == F(1)
    assert valuation_limit(c, vec(-1, -1)) == F(0)
    assert valuation_limit(c, vec(-3, 1)) == F(1)
    assert valuation_limit(c, vec(0, 0)) == F(0)
    assert valuation_limit(c, vec(F(1, 2), F(5, 2))) == F(5, 2)


def test_natural_valuation_values() -> None:
    c = ruled_surface_cone()
    assert natural_valuation(c, vec(1, 0), 3) == 3
    assert natural_valuation(c, vec(-2, 0), 7) == 0
    assert natural_valuation(c, vec(1, 1), 5) == 5
    assert natural_valuation(c, vec(-3, 1), 2) == 2
    # fractional optimum rounds up: t*(k D) = 5/2 at k = 1
    assert natural_valuation(c, vec(F(1, 2), F(5, 2)), 1) == 3
    assert natural_valuation(c, vec(F(1, 2), F(5, 2)), 2) == 5


def test_natural_valuation_rejects_bad_k() -> None:
    c = ruled_surface_cone()
    with pytest.raises(DomainError):
        natural_valuation(c, vec(1, 0), 0)
    with pytest.raises(DomainError):
        natural_valuation(c, vec(1, 0), -2)
    # a bool is an int to isinstance, but not a multiple
    with pytest.raises(DomainError):
        natural_valuation(c, vec(1, 0), True)
    with pytest.raises(DomainError):
        limiting_discrepancy(c, True)


def test_natural_valuation_evaluates_the_slope_once(monkeypatch) -> None:
    c = ruled_surface_cone()
    calls = []
    slope = PolarizedCone._slope

    def counted(self, cls):
        calls.append(cls)
        return slope(self, cls)

    monkeypatch.setattr(PolarizedCone, "_slope", counted)
    assert natural_valuation(c, vec(F(1, 2), F(5, 2)), 2) == 5
    assert len(calls) == 1
    assert limiting_discrepancy(c, 3) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("shift", [1, -1])
def test_natural_valuation_membership_rechecks_catch_a_wrong_slope(
    monkeypatch, shift: int
) -> None:
    # the limit of (1, 0) is 1 > 0; a slope one unit off moves j by k, which
    # either leaves j H - k D outside the cone or j - 1 still inside it
    c = ruled_surface_cone()
    slope = PolarizedCone._slope

    def wrong(self, cls):
        p, q = slope(self, cls)
        return p + shift * q, q

    assert natural_valuation(c, vec(1, 0), 3) == 3
    monkeypatch.setattr(PolarizedCone, "_slope", wrong)
    with pytest.raises(InternalConsistencyError):
        natural_valuation(c, vec(1, 0), 3)


def test_natural_valuation_rechecks_build_no_vector(monkeypatch) -> None:
    c = ruled_surface_cone()

    def forbidden(*args):
        raise AssertionError("natural_valuation built a vector or re-ran contains")

    monkeypatch.setattr(QVector, "scale", forbidden)
    monkeypatch.setattr(QVector, "__sub__", forbidden)
    monkeypatch.setattr(PolarizedCone, "contains", forbidden)
    assert natural_valuation(c, vec(F(1, 2), F(5, 2)), 2) == 5
    assert natural_valuation(c, vec(-2, 0), 7) == 0
    assert limiting_discrepancy(c, 3) == 0


class _Scanned(tuple):
    """A tuple that counts the loops over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_valuation_sweep_scans_the_facets_once_for_values_and_once_for_the_slope() -> None:
    c = ruled_surface_cone()
    c.__dict__["_rows"] = rows = _Scanned(c._rows)  # the facet rows behind _values
    c._phi_h = phi_h = _Scanned(c._phi_h)  # phi(H) per facet: the slope and each H-step
    cls = vec(F(1, 2), F(5, 2))
    assert [natural_valuation(c, cls, k) for k in range(1, 11)] == [
        -(-5 * k // 2) for k in range(1, 11)]
    assert (rows.scans, phi_h.scans) == (1, 1 + 10)  # values; the slope once, an H-step per k
    assert [limiting_discrepancy(c, m) for m in (1, 2, 3)] == [0, 0, 0]
    assert (rows.scans, phi_h.scans) == (2, 11 + 1 + 3)  # the same for K_V


def test_cone_pairs_h_once_for_the_bound_table(monkeypatch) -> None:
    pairs = []
    pair = SymForm.pair

    def counted(self, a, b):
        pairs.append((a, b))
        return pair(self, a, b)

    monkeypatch.setattr(SymForm, "pair", counted)
    c = ruled_surface_cone()
    assert pairs == []  # construction tests H . g in integers
    table = vol_plus_table(c, [F(1, 2**i) for i in range(6)])
    assert [row["upper_bound"] for row in table["rows"]] == [
        rat_str(2 * F(1, 2**i) ** 3) for i in range(6)]
    assert pairs == [(c.h_class, c.h_class)]
    assert c.h_power() == 2 and len(pairs) == 1  # the table's value, not paired again


def _counted_slopes(monkeypatch) -> list:
    """The classes whose slope ``_slope`` computes: a call that finds the
    slope kept in the class's entry computes nothing and is not counted."""
    calls = []
    slope = PolarizedCone._slope

    def counted(self, cls):
        last, entry = self._last
        if cls != last or entry[2] is None:
            calls.append(cls)
        return slope(self, cls)

    monkeypatch.setattr(PolarizedCone, "_slope", counted)
    return calls


def test_lc_verdict_and_bound_table_compute_k_v_slope_once(monkeypatch) -> None:
    c = ruled_surface_cone()
    calls = _counted_slopes(monkeypatch)
    verdict = lc_boundary_exists(c)
    table = vol_plus_table(c, [F(1, 2 ** k) for k in range(6)])
    assert table["lc_boundary"] == verdict.to_doc() and verdict.exists is False
    assert calls == [c.k_class]
    assert lc_boundary_exists(c) is verdict  # kept on the cone


def _counted_boundary_classes(monkeypatch) -> list:
    from singvol import cone as cone_module

    built = []
    boundary = cone_module.BoundaryClass

    def counted(**fields):
        built.append(fields["a"])
        return boundary(**fields)

    monkeypatch.setattr(cone_module, "BoundaryClass", counted)
    return built


def test_bounds_build_no_boundary_class(monkeypatch) -> None:
    c = ruled_surface_cone()
    built = _counted_boundary_classes(monkeypatch)
    assert vol_upper_bound(c, F(1, 2)) == F(1, 4)
    assert cone_log_discrepancy(c, F(1, 2)) == F(-1, 2)
    table = vol_plus_table(c, [F(1, 2 ** k) for k in range(6)])
    assert [row["upper_bound"] for row in table["rows"]] == [
        rat_str(2 * F(1, 2 ** k) ** 3) for k in range(6)]
    assert built == []
    assert boundary_class(c, F(1, 2)).effective and built == [F(1, 2)]


def _moment_cone(n, gens, rng):
    """A cone over ``gens`` with ``H`` their sum (interior), a form under which
    ``H`` pairs positively with every generator, and a random ``K_V``."""
    facets = _ref_facets(gens, n)
    h = sum(gens[1:], gens[0])
    v = sum(facets[1:], facets[0])  # positive on the cone but at 0
    form = SymForm([[x * y for y in v] for x in v])  # form . H = (v . H) v
    k_class = QVector(_random_rational(rng) for _ in range(n))
    cone = PolarizedCone(dim_x=3, basis=[f"b{i}" for i in range(n)], form=form,
                         nef_gens=(h,), pseff_gens=gens, k_class=k_class, h_class=h)
    return cone, facets


def test_integer_boundary_test_matches_membership_of_the_built_class() -> None:
    # -K_V + a H from the kept facet values of K_V and H, against contains on
    # the built class and the Fraction reference facets, at a_min, a_min +- 1/97
    # and random slopes
    rng = Random(97)
    cones = []
    for _ in range(300):
        n, form, nef, gens, k_class, h = _random_cone_data(rng)
        try:
            cone = PolarizedCone(dim_x=3, basis=[f"b{i}" for i in range(n)], form=form,
                                 nef_gens=nef, pseff_gens=gens, k_class=k_class, h_class=h)
        except MalformedInputError:
            continue
        cones.append((cone, _ref_facets(gens, n)))
    accepted = len(cones)
    for name, n, gens in _RARE_SHAPES:
        if name.startswith(("cyclic", "interior", "duplicates")):
            cones.append(_moment_cone(n, gens, rng))
    assert accepted >= 150 and len(cones) >= accepted + 12
    for cone, facets in cones:
        h, k_class = cone.h_class, cone.k_class
        a_min = max(_dot(phi, k_class) / _dot(phi, h) for phi in facets)
        slopes = [a_min, a_min - F(1, 97), a_min + F(1, 97)]
        slopes += [_random_rational(rng, 9) for _ in range(3)]
        for a in slopes:
            low = _boundary_low(cone, a)
            cls = -k_class + h.scale(a)
            values = [_dot(phi, cls) for phi in facets]
            assert (low >= 0) == cone.contains(cls) == (min(values) >= 0), (cone.to_doc(), a)
            assert (low == 0) == (min(values) == 0) == (a == a_min), (cone.to_doc(), a)
            bc = boundary_class(cone, a)
            assert (bc.effective, bc.on_pseff_boundary) == (low >= 0, low == 0)


@pytest.mark.parametrize("warm", [False, True])
def test_copied_cone_matches_the_original(warm) -> None:
    import copy
    import pickle

    c = ruled_surface_cone()
    classes = [vec(1, 0), vec(F(1, 2), F(5, 2)), vec(-3, 1)]
    values = [[natural_valuation(c, cls, k) for k in range(1, 6)] for cls in classes]
    if not warm:
        c = ruled_surface_cone()
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin.to_doc() == c.to_doc() and twin.form == c.form
        assert [[natural_valuation(twin, cls, k) for k in range(1, 6)]
                for cls in classes] == values
        assert lc_boundary_exists(twin) == lc_boundary_exists(c)


SAMPLE_CLASSES = [
    (1, 0), (0, 1), (1, 1), (-2, 0), (-1, -1),
    (1, -1), (2, 3), (-3, 1), (0, 5), (2, 0),
]


def test_valuation_laws_on_sample_classes() -> None:
    c = ruled_surface_cone()
    for entries in SAMPLE_CLASSES:
        d = vec(*entries)
        limit = valuation_limit(c, d)
        for k in range(1, 60):
            gap = F(natural_valuation(c, d, k), k) - limit
            assert 0 <= gap <= F(1, k)
        v1 = natural_valuation(c, d, 1)
        for m in range(1, 13):
            assert m * v1 >= natural_valuation(c, d, m)
        assert natural_valuation(c, d, 1) + natural_valuation(c, -d, 1) >= 0


def test_limiting_discrepancy_ruled_surface_is_zero() -> None:
    c = ruled_surface_cone()
    for m in (1, 2, 3, 4, 6, 12):
        assert limiting_discrepancy(c, m) == F(0)


def test_limiting_discrepancy_curve_cone_values() -> None:
    # degree 1: j*d - (2g-2) >= 0 forces j >= 2, so every level gives -2
    assert limiting_discrepancy(curve_cone(2, 1), 1) == F(-2)
    # degree 3 staircase
    c = curve_cone(2, 3)
    got = [limiting_discrepancy(c, m) for m in (1, 2, 3, 4, 6)]
    assert got == [F(-1), F(-1), F(-2, 3), F(-3, 4), F(-2, 3)]
    # divisibility monotonicity: A_m <= A_lm
    for m in (1, 2, 3):
        for l in (2, 3, 4):
            assert limiting_discrepancy(c, m) <= limiting_discrepancy(c, l * m)


def test_limiting_discrepancy_rejects_bad_m() -> None:
    with pytest.raises(DomainError):
        limiting_discrepancy(ruled_surface_cone(), 0)


def test_lc_boundary_exists_verdict_trio() -> None:
    no = lc_boundary_exists(ruled_surface_cone())
    assert no.exists is False
    assert no.forced_a == F(0)
    assert len(no.certificate) == 3

    yes = lc_boundary_exists(cone_by_name("elliptic-cone"))
    assert yes.exists is True
    assert yes.forced_a == F(0)

    unknown = lc_boundary_exists(ruled_without_rigidity())
    assert unknown.exists is None
    assert unknown.to_doc()["exists"] == "unknown"


def test_lc_boundary_exists_empty_range() -> None:
    v = lc_boundary_exists(curve_cone(2, 1))
    assert v.exists is False
    assert v.forced_a is None
    assert len(v.certificate) == 3


def test_certificate_mentions_rigidity_step() -> None:
    v = lc_boundary_exists(ruled_surface_cone())
    assert any("rigidity" in step for step in v.certificate)
    assert any("a >= 0" in step for step in v.certificate)
    assert any("a <= 0" in step for step in v.certificate)


def ruled_variant(k_class: QVector, rigid=()) -> PolarizedCone:
    return PolarizedCone(
        dim_x=3, basis=("C0", "F"), form=SymForm(((0, 1), (1, 0))),
        nef_gens=(vec(1, 0), vec(0, 1)), pseff_gens=(vec(1, 0), vec(0, 1)),
        k_class=k_class, h_class=vec(1, 1), rigid=rigid,
    )


EFFECTIVITY = ("effectivity: -K_V + a*H is pseudo-effective only for a >= {} "
               "(exact LP over the pseff generators)")
LC_CONSTRAINT = ("log canonicity: the exceptional divisor has log discrepancy -a, "
                 "so a <= 0 is required")
PINNING = ("pinning: the two constraints force a = 0, so the boundary class must be "
           "-K_V = 2*C0")


@pytest.mark.parametrize("cone, exists, forced_a, a_min, tail", [
    pytest.param(
        lambda: curve_cone(2, 1), False, None, "2",
        ["conclusion: the slope range [2, 0] is empty, so no boundary exists"],
        id="empty-range"),
    pytest.param(
        lambda: cone_by_name("elliptic-cone"), True, F(0), "0",
        ["witness: K_V = 0*H exactly, so the empty boundary realizes slope a = 0 and "
         "the pair with no boundary is log canonical"],
        id="witness"),
    pytest.param(
        lambda: curve_cone(0, 1), True, None, "-2",
        ["witness: K_V = -2*H exactly, so the empty boundary realizes slope a = -2 and "
         "the pair with no boundary is log canonical"],
        id="witness-open-range"),
    pytest.param(
        ruled_surface_cone, False, F(0), "0",
        ["rigidity: the only effective representative of 2*C0 is 2*C0, whose component "
         "C0 carries coefficient 2 > 1, which no log canonical boundary allows"],
        id="pinned-refuted-by-rigidity"),
    pytest.param(
        lambda: ruled_variant(vec(-2, 0)), None, F(0), "0",
        [PINNING, "undecided: no rigidity annotation covers the pinned class"],
        id="pinned-unannotated"),
    pytest.param(
        lambda: ruled_variant(vec(-2, 0), (RigidClass(vec(2, 0), (("A", F(1)), ("B", F(1, 2)))),)),
        None, F(0), "0",
        [PINNING, "undecided: the rigid representative 1*A + 1/2*B has coefficients <= 1, "
         "but annotations alone cannot certify the pair is log canonical"],
        id="pinned-rigid-within-bounds"),
    pytest.param(
        lambda: ruled_variant(vec(-2, -1)), None, None, "-1",
        ["undecided: every slope in [-1, 0] admits an effective boundary class and the "
         "annotations do not single one out"],
        id="open-range"),
])
def test_lc_verdict_branches_exact(cone, exists, forced_a, a_min, tail) -> None:
    v = lc_boundary_exists(cone())
    assert (v.exists, v.forced_a) == (exists, forced_a)
    assert v.certificate == (EFFECTIVITY.format(a_min), LC_CONSTRAINT, *tail)


def test_vol_plus_table_rows_and_verdicts() -> None:
    c = ruled_surface_cone()
    slopes = [F(1, 2 ** k) for k in range(11)]
    table = vol_plus_table(c, slopes)
    bounds = [row["upper_bound"] for row in table["rows"]]
    assert bounds == [str(F(2, 8 ** k)) for k in range(11)]
    assert all(row["kind"] == "upper-bound" for row in table["rows"])
    assert all(row["status"] == "computed-exact" for row in table["rows"])
    claims = {v["claim"] for v in table["verdicts"]}
    assert "augmented-volume-zero" in claims
    assert "local-volume-zero" in claims
    assert "no-lc-boundary" in claims
    labels = {(v["claim"], v["status"]) for v in table["not_desk_verifiable"]}
    assert ("every-truncated-volume-positive", "cited-not-computed") in labels
    assert ("augmented-volume-equals-local-volume", "open-not-computed") in labels


def test_vol_plus_table_lc_case_claims_all_truncations_vanish() -> None:
    table = vol_plus_table(cone_by_name("elliptic-cone"), [F(1), F(1, 2)])
    claims = {v["claim"] for v in table["verdicts"]}
    assert "all-truncated-volumes-zero" in claims
    assert table["lc_boundary"]["exists"] is True


def test_vol_plus_table_rejects_bad_sequences() -> None:
    c = ruled_surface_cone()
    with pytest.raises(DomainError):
        vol_plus_table(c, [])
    with pytest.raises(DomainError):
        vol_plus_table(c, [1, 1])
    with pytest.raises(DomainError):
        vol_plus_table(c, [F(1, 4), F(1, 2)])


def test_curve_cone_matches_graph_volume() -> None:
    # at the forced slope the cone-side bound equals the graph volume
    for g in (2, 3):
        for d in (1, 2, 3):
            a = F(2 * g - 2, d)
            bound = vol_upper_bound(curve_cone(g, d), a)
            assert bound == volume(cone_over_curve(g, d)).volume
            assert bound == F((2 * g - 2) ** 2, d)


def test_dcc_scan_small_grid_rows() -> None:
    out = dcc_scan(3, 2)
    assert out["grid"] == {"g_max": 3, "a_max": 2}
    assert out["rows"] == [
        {"g": 2, "a": 1, "d": 2, "volume": "2"},
        {"g": 2, "a": 2, "d": 1, "volume": "4"},
        {"g": 3, "a": 1, "d": 4, "volume": "4"},
        {"g": 3, "a": 2, "d": 2, "volume": "8"},
    ]
    assert out["min_volume"] == "2"
    assert out["min_witnesses"] == [{"g": 2, "a": 1, "d": 2}]
    assert out["distinct_volumes_ascending"] == ["2", "4", "8"]
    assert out["no_strictly_decreasing_chain"] is True


def test_dcc_scan_cross_checks_each_volume_against_the_closed_form(monkeypatch) -> None:
    # the scan certifies the graph pipeline: a volume off by one is refused
    from singvol import envelope

    pipeline = envelope.volume

    def off_by_one(graph):
        report = pipeline(graph)
        return type(report)(report.volume + 1, report.decomposition, report.is_lc)

    monkeypatch.setattr(envelope, "volume", off_by_one)
    with pytest.raises(InternalConsistencyError, match=r"graph-pipeline volume 3 disagrees "
                       r"with closed form 2 at \(g, a, d\) = \(2, 1, 2\)"):
        dcc_scan(3, 2)


def test_dcc_scan_rejects_bad_bounds() -> None:
    with pytest.raises(DomainError):
        dcc_scan(1, 5)
    with pytest.raises(DomainError):
        dcc_scan(5, 0)


def test_dcc_scan_grid_is_bounded_before_any_graph_is_built(monkeypatch) -> None:
    assert 60 * 16 <= MAX_DCC_CELLS
    assert len(dcc_scan(2, MAX_DCC_CELLS // 2)["rows"]) == 2

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(ResolutionGraph, "make", no_graph)
    for g_max, a_max in ((2, MAX_DCC_CELLS // 2 + 1), (10**9, 10**9)):
        with pytest.raises(DomainError) as exc:
            dcc_scan(g_max, a_max)
        assert exc.value.reason == "too-large"


def test_dcc_scan_volumes_never_drop_below_two() -> None:
    out = dcc_scan(12, 6)
    assert all(F(row["volume"]) >= 2 for row in out["rows"])


def test_cone_doc_round_values() -> None:
    doc = ruled_surface_cone().to_doc()
    assert doc["dim_X"] == 3
    assert doc["num_basis"] == ["C0", "F"]
    assert doc["K_V"] == ["-2", "0"]
    assert doc["H"] == ["1", "1"]


# -- differential test against a Fraction reference ------------------------------
#
# The reference is the earlier all-Fraction implementation: Gauss-Jordan over
# each (n-1)-subset of the generators as given, and every facet functional a
# Fraction dot product. The library runs the same tests on integer rows.


def _ref_echelon(vectors, n):
    rows = [list(v) for v in vectors]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        top = rows[rank] = [x / pv for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col] != 0:
                f = row[col]
                rows[r] = [x - f * y for x, y in zip(row, top)]
        pivots.append(col)
    return pivots, rows[: len(pivots)]


def _ref_primitive(v):
    denoms = math.lcm(*(x.denominator for x in v))
    ints = [int(x * denoms) for x in v]
    g = math.gcd(*ints)
    return QVector(F(x, g) for x in ints)


def _ref_facets(gens, n):
    if len(_ref_echelon(gens, n)[0]) != n:
        raise MalformedInputError("", reason="cone-not-full-dimensional")
    normals = set()
    if n == 1:
        positive = {g[0] > 0 for g in gens if g[0] != 0}
        if len(positive) != 1:
            raise MalformedInputError("", reason="cone-not-salient")
        normals.add(QVector([1]) if positive.pop() else QVector([-1]))
    else:
        for subset in combinations(gens, n - 1):
            pivots, rows = _ref_echelon(subset, n)
            if len(pivots) != n - 1:
                continue
            free = next(c for c in range(n) if c not in pivots)
            coords = [F(0)] * n
            coords[free] = F(1)
            for row, col in zip(rows, pivots):
                coords[col] = -row[free]
            normal = QVector(coords)
            values = [_dot(normal, g) for g in gens]
            if all(v >= 0 for v in values) and any(v > 0 for v in values):
                normals.add(_ref_primitive(normal))
            elif all(v <= 0 for v in values) and any(v < 0 for v in values):
                normals.add(_ref_primitive(-normal))
    if len(_ref_echelon(tuple(normals), n)[0]) != n:
        raise MalformedInputError("", reason="cone-not-salient")
    return tuple(sorted(normals))


def _ref_cone(form, nef, gens, k_class, h):
    """The reference facets, or the error the reference validation raises."""
    n = len(h)
    facets = _ref_facets(gens, n)
    if any(_dot(phi, h) <= 0 for phi in facets):
        raise MalformedInputError("", reason="h-not-ample")
    for g in gens:
        if not any(g):
            raise MalformedInputError("")
        if form.pair(h, g) <= 0:
            raise MalformedInputError("", reason="h-not-ample")
    for v in nef:
        if not all(_dot(phi, v) >= 0 for phi in facets):
            raise MalformedInputError("")
    return facets


def _ref_min_h(facets, h, cls):
    return max([F(0)] + [_dot(phi, cls) / _dot(phi, h) for phi in facets])


def _random_rational(rng, bound=6):
    return F(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 5)))


def _random_cone_data(rng):
    """Rational generators around a random direction, a parallel duplicate,
    and, now and then, a defect that the validation must reject."""
    n = rng.randint(1, 5)
    w = [rng.randint(1, 3) * rng.choice((1, -1)) for _ in range(n)]
    gens = []
    while len(gens) < n + rng.randint(0, 3):
        g = [_random_rational(rng) for _ in range(n)]
        if sum(a * b for a, b in zip(w, g)) > 0:
            gens.append(QVector(g))
    gens.append(gens[0].scale(F(rng.randint(1, 4), rng.randint(1, 3))))
    h = sum(gens[1:], gens[0]).scale(F(rng.randint(1, 5), rng.randint(1, 4)))
    h = h + QVector(_random_rational(rng, 1) for _ in range(n))
    defect = rng.randrange(12)
    if defect == 0:
        gens.append(-gens[1])  # contains a line
    elif defect == 1:
        gens = [QVector([1] + [0] * (n - 1)).scale(g[0]) for g in gens]  # on one axis
    elif defect == 2:
        h = gens[-1]  # on a ray
    elif defect == 3:
        gens.insert(rng.randrange(len(gens)), QVector([0] * n))
    rng.shuffle(gens)
    # the identity plus a large multiple of w w^T makes H . g > 0 in most
    # draws; with weight 0 it often fails
    weight = 0 if defect == 4 else 50 + 10 * n
    form = SymForm([[weight * w[i] * w[j] + int(i == j) for j in range(n)] for i in range(n)])
    nef = [h]
    if defect == 5:
        nef.append(QVector(_random_rational(rng) for _ in range(n)))
    k_class = (h.scale(-rng.randint(1, 2)) if rng.random() < 0.2
               else QVector(_random_rational(rng) for _ in range(n)))
    return n, form, nef, gens, k_class, h


def _bare_facets(gens, n):
    """``facet_normals`` of bare generators, or the error it raises, without
    the rest of the cone validation (which refuses a zero generator)."""
    cone = object.__new__(PolarizedCone)
    cone.basis = tuple(f"b{i}" for i in range(n))
    cone.pseff_gens = tuple(gens)
    try:
        return cone.facet_normals
    except MalformedInputError as exc:
        return exc.reason


def _reference_or_reason(gens, n):
    try:
        return _ref_facets(gens, n)
    except MalformedInputError as exc:
        return exc.reason


def _cyclic(n, m, rng):
    """``m`` rational points on the moment curve in ``n`` dimensions, each
    scaled by a positive rational, shuffled."""
    return [QVector(F(t ** p) for p in range(n)).scale(F(rng.randint(1, 4), rng.randint(1, 3)))
            for t in rng.sample(range(-9, 10), m)]


def _rare_shapes():
    rng = Random(11)
    for n, m in ((3, 12), (4, 9), (5, 8), (6, 7)):
        gens = _cyclic(n, m, rng)
        yield f"cyclic-{n}", n, gens
        interior = [sum(rng.sample(gens, rng.randint(2, m)), QVector([0] * n)) for _ in range(3)]
        yield f"interior-{n}", n, rng.sample(gens + interior, m + 3)
        copies = [g.scale(F(rng.randint(1, 5), rng.randint(1, 3))) for g in gens[:2]] + gens[:2]
        yield f"duplicates-{n}", n, rng.sample(gens + copies, m + 4)
        zero = list(gens)
        zero.insert(rng.randrange(m + 1), QVector([0] * n))
        yield f"zero-{n}", n, zero
        yield f"zero-first-{n}", n, [QVector([0] * n)] + gens
        yield f"line-{n}", n, rng.sample(gens + [-gens[0]], m + 1)
        yield f"all-signs-{n}", n, gens[:n] + [-g for g in gens[:n]]
        flat = [QVector(tuple(g)[:-1] + (F(0),)) for g in gens]
        yield f"not-spanning-{n}", n, flat
    yield "cyclic-3-in-order", 3, [QVector(F(t ** p) for p in range(3)) for t in range(-6, 7)]
    yield "simplicial-2", 2, [vec(1, 0), vec(0, 1)]
    yield "ray-1", 1, [vec(2), vec(F(1, 3)), vec(0)]
    yield "line-1", 1, [vec(2), vec(-1)]
    yield "half-plane-2", 2, [vec(1, 0), vec(0, 1), vec(-1, 0)]
    # the third generator lies in the span of the first two, so the start skips it
    gens = _cyclic(4, 8, rng)
    yield "dependent-lead-4", 4, [gens[0], gens[1], gens[0] + gens[1]] + gens[2:]
    # 300-digit entries: their Gram entries have about 600 digits
    yield "large-entries-4", 4, [QVector(rng.randrange(10 ** 299, 10 ** 300) for _ in range(4))
                                 for _ in range(7)]


_RARE_SHAPES = list(_rare_shapes())


@pytest.mark.parametrize("name, n, gens", _RARE_SHAPES, ids=[c[0] for c in _RARE_SHAPES])
def test_facet_enumeration_matches_reference_on_rare_shapes(name, n, gens) -> None:
    expected = _reference_or_reason(gens, n)
    assert _bare_facets(gens, n) == expected
    kind = name.rsplit("-", 1)[0]
    if kind in ("line", "all-signs", "half-plane"):
        assert expected == "cone-not-salient"
    elif kind == "not-spanning":
        assert expected == "cone-not-full-dimensional"
    else:
        assert isinstance(expected, tuple) and expected


def test_integer_facet_kernel_matches_fraction_reference() -> None:
    rng = Random(20240)
    accepted = rejected = 0
    for _ in range(500):
        n, form, nef, gens, k_class, h = _random_cone_data(rng)
        try:
            expected = _ref_cone(form, nef, gens, k_class, h)
        except MalformedInputError as exc:
            expected = exc
        try:
            cone = PolarizedCone(
                dim_x=3, basis=[f"b{i}" for i in range(n)], form=form, nef_gens=nef,
                pseff_gens=gens, k_class=k_class, h_class=h,
            )
        except MalformedInputError as exc:
            assert isinstance(expected, MalformedInputError), (gens, h, exc.reason)
            assert type(exc) is type(expected) and exc.reason == expected.reason, (gens, h)
            rejected += 1
            continue
        assert not isinstance(expected, Exception), (gens, h, expected.reason)
        accepted += 1
        assert cone.facet_normals == expected
        classes = [k_class, h, gens[0], -gens[0], QVector([0] * n)]
        classes += [QVector(_random_rational(rng) for _ in range(n)) for _ in range(3)]
        for cls in classes:
            values = [_dot(phi, cls) for phi in expected]
            assert cone.contains(cls) == all(v >= 0 for v in values)
            limit = _ref_min_h(expected, h, cls)
            assert valuation_limit(cone, cls) == limit
            for k in (1, 2, 5):
                assert natural_valuation(cone, cls, k) == max(0, math.ceil(k * limit))
        a_min = max(_dot(phi, k_class) / _dot(phi, h) for phi in expected)
        for a in (a_min - 1, a_min, a_min + F(1, 3), -a_min):
            bc = boundary_class(cone, a)
            values = [_dot(phi, bc.cls) for phi in expected]
            assert bc.effective == (min(values) >= 0)
            assert bc.on_pseff_boundary == (min(values) == 0)
        verdict = lc_boundary_exists(cone)
        assert f"a >= {a_min} (" in verdict.certificate[0]
        i = next(i for i, x in enumerate(h) if x != 0)
        ratio = k_class[i] / h[i]
        witness = ratio <= 0 and k_class == h.scale(ratio)
        if a_min > 0:
            assert (verdict.exists, verdict.forced_a) == (False, None)
        elif witness:
            assert verdict.exists is True
            assert verdict.forced_a == (F(0) if a_min == 0 else None)
        else:
            assert verdict.exists is None
            assert verdict.forced_a == (F(0) if a_min == 0 else None)
    assert accepted >= 250 and rejected >= 100, (accepted, rejected)


# -- boundary values of the refusals and re-checks -----------------------------------
# Each test below pins one comparison at its boundary value: the same test fails
# when that one operator is swapped (< with <=, > with >=), as
# tests/mutation_probe.py does.


def _two_ray_cone(dim_x: int, form) -> PolarizedCone:
    return PolarizedCone(
        dim_x=dim_x, basis=("a", "b"), form=SymForm(form), nef_gens=(vec(1, 1),),
        pseff_gens=(vec(1, 0), vec(0, 1)), k_class=vec(-1, -1), h_class=vec(1, 1),
    )


def test_h_pairing_to_zero_with_a_generator_is_not_ample() -> None:
    # H = (1, 1) is interior, but H . (0, 1) = 0 under diag(1, 0)
    assert _two_ray_cone(3, ((1, 0), (0, 1))).h_power() == 2
    with pytest.raises(MalformedInputError, match="H fails strict positivity") as exc:
        _two_ray_cone(3, ((1, 0), (0, 0)))
    assert exc.value.reason == "h-not-ample"


def test_generator_of_degree_zero_is_not_ample() -> None:
    # the form's first row (1, 0) is the degree: deg (0, 1) = 0
    assert _two_ray_cone(2, ((1, 1), (1, 0))).h_power() == 2
    with pytest.raises(MalformedInputError, match="H-degree of a pseff generator") as exc:
        _two_ray_cone(2, ((1, 0), (0, 0)))
    assert exc.value.reason == "h-not-ample"


def test_rigid_representative_with_a_zero_coefficient_is_refused() -> None:
    def cone(coeff):
        return PolarizedCone(
            dim_x=3, basis=("C0", "F"), form=SymForm(((0, 1), (1, 0))),
            nef_gens=(vec(1, 0), vec(0, 1)), pseff_gens=(vec(1, 0), vec(0, 1)),
            k_class=vec(-2, 0), h_class=vec(1, 1),
            rigid=(RigidClass(vec(1, 0), (("C0", coeff),)),),
        )

    assert cone(F(1, 3)).rigid_decomposition(vec(3, 0)) == (("C0", F(1)),)
    with pytest.raises(MalformedInputError, match="positive coefficients"):
        cone(F(0))


def test_cone_at_exactly_the_facet_subset_limit_is_enumerated(monkeypatch) -> None:
    from singvol import cone as cone_module

    def moment_cone(points: int) -> PolarizedCone:
        gens = [vec(1, t, t * t) for t in range(points)]
        h = vec(*(sum(col) for col in zip(*gens)))  # H . g > 0 under the identity
        return PolarizedCone(dim_x=3, basis=("e0", "e1", "e2"),
                             form=SymForm(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                             nef_gens=(h,), pseff_gens=gens, k_class=-h, h_class=h)

    monkeypatch.setattr(cone_module, "MAX_FACET_SUBSETS", math.comb(4, 2))
    assert len(moment_cone(4).facet_normals) == 4
    with pytest.raises(DomainError) as exc:
        moment_cone(5)
    assert exc.value.reason == "too-large"


def test_rigid_annotation_does_not_answer_for_the_zero_class() -> None:
    # 0 = 0 * C0 is proportional to the annotated ray with factor 0, not > 0
    assert ruled_surface_cone().rigid_decomposition(vec(0, 0)) is None


def test_natural_valuation_minimality_recheck_at_one_step(monkeypatch) -> None:
    # the limit of (1, 0) is 1; a slope of 2 gives j = 2 at k = 1, and j - 1 = 1
    # lies on the facet x >= 0 of 1*H - (1, 0): slack equal to the H-step there
    c = ruled_surface_cone()
    slope = PolarizedCone._slope

    def one_too_many(self, cls):
        p, q = slope(self, cls)
        return p + q, q

    assert natural_valuation(c, vec(1, 0), 1) == 1
    monkeypatch.setattr(PolarizedCone, "_slope", one_too_many)
    with pytest.raises(InternalConsistencyError, match="not minimal"):
        natural_valuation(c, vec(1, 0), 1)


def test_vol_plus_table_refuses_a_zero_slope_itself() -> None:
    # vol_upper_bound would refuse a = 0 too, with the same reason but its own message
    with pytest.raises(DomainError, match="a_seq must be positive") as exc:
        vol_plus_table(ruled_surface_cone(), [1, 0])
    assert exc.value.reason == "nonpositive-slope"


def test_dcc_scan_smallest_grid() -> None:
    assert dcc_scan(2, 1)["rows"] == [{"g": 2, "a": 1, "d": 2, "volume": "2"}]
