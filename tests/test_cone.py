"""Polarized cones, valuations, boundary verdicts, the dcc scan."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from singvol import (
    DomainError,
    MalformedInputError,
    PolarizedCone,
    QVector,
    SymForm,
    boundary_class,
    cone_log_discrepancy,
    curve_cone,
    dcc_scan,
    lc_boundary_exists,
    limiting_discrepancy,
    natural_valuation,
    valuation_limit,
    vol_plus_table,
    vol_upper_bound,
    volume,
)
from singvol.catalog import cone_over_curve
from singvol.cone import cone_by_name, ruled_surface_cone
from singvol.errors import InternalConsistencyError

F = Fraction


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
    assert c.on_boundary(vec(2, 0))
    assert not c.on_boundary(vec(1, 1))


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
    with pytest.raises(DomainError):
        vol_upper_bound(c, 0)
    with pytest.raises(DomainError):
        vol_upper_bound(curve_cone(2, 1), F(1, 2))  # boundary not effective


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


def test_dcc_scan_rejects_bad_bounds() -> None:
    with pytest.raises(DomainError):
        dcc_scan(1, 5)
    with pytest.raises(DomainError):
        dcc_scan(5, 0)


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
            values = [normal.dot(g) for g in gens]
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
    if any(phi.dot(h) <= 0 for phi in facets):
        raise MalformedInputError("", reason="h-not-ample")
    for g in gens:
        if g.is_zero():
            raise MalformedInputError("")
        if form.pair(h, g) <= 0:
            raise MalformedInputError("", reason="h-not-ample")
    for v in nef:
        if not all(phi.dot(v) >= 0 for phi in facets):
            raise MalformedInputError("")
    return facets


def _ref_min_h(facets, h, cls):
    return max([F(0)] + [phi.dot(cls) / phi.dot(h) for phi in facets])


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
        gens = [QVector.unit(n, 0).scale(g[0]) for g in gens]  # on one axis
    elif defect == 2:
        h = gens[-1]  # on a ray
    elif defect == 3:
        gens.insert(rng.randrange(len(gens)), QVector.zero(n))
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
        classes = [k_class, h, gens[0], -gens[0], QVector.zero(n)]
        classes += [QVector(_random_rational(rng) for _ in range(n)) for _ in range(3)]
        for cls in classes:
            values = [phi.dot(cls) for phi in expected]
            assert cone.contains(cls) == all(v >= 0 for v in values)
            assert cone.on_boundary(cls) == (all(v >= 0 for v in values) and 0 in values)
            limit = _ref_min_h(expected, h, cls)
            assert valuation_limit(cone, cls) == limit
            for k in (1, 2, 5):
                assert natural_valuation(cone, cls, k) == max(0, math.ceil(k * limit))
        a_min = max(phi.dot(k_class) / phi.dot(h) for phi in expected)
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
