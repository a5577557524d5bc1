"""Nef envelopes, the subset oracle, volumes."""

from fractions import Fraction
from itertools import combinations
from operator import le, mul
from random import Random

import pytest

from singvol import (
    OracleSizeError,
    ResolutionGraph,
    nef_envelope_trace,
    volume,
    zariski_oracle,
)
from singvol.envelope import ORACLE_MAX_VERTICES, ZariskiDecomposition, _feasible_walk, _finish
from singvol.errors import InternalConsistencyError, MalformedInputError
from singvol.graph import ExcDivisor
from singvol.lattice import QVector, SymForm, rat_str
from singvol.randgen import random_divisor, random_graph

F = Fraction


def chain(*self_ints: int) -> ResolutionGraph:
    vertices = tuple((f"v{i + 1}", s, 0) for i, s in enumerate(self_ints))
    edges = tuple((f"v{i + 1}", f"v{i + 2}") for i in range(len(self_ints) - 1))
    return ResolutionGraph.make(vertices, edges)


def test_positive_part_of_effective_divisor_is_zero() -> None:
    g = chain(-2)
    dec = nef_envelope_trace(g, g.divisor((F(1),)))
    assert dec.p.coeffs == (F(0),)
    assert dec.n.coeffs == (F(1),)
    assert dec.active == frozenset({"v1"})


def test_partial_support_chain() -> None:
    g = chain(-2, -2)
    dec = nef_envelope_trace(g, g.divisor((F(1), F(0))))
    assert dec.p.coeffs == (F(0), F(0))
    assert dec.n.coeffs == (F(1), F(0))
    assert dec.active == frozenset({"v1"})


def test_already_nef_divisor_is_its_own_envelope() -> None:
    g = ResolutionGraph.make((("v", -2, 2),))
    a = g.divisor((F(-1),))
    dec = nef_envelope_trace(g, a)
    assert dec.p == a
    assert not any(dec.n.coeffs)
    assert dec.active == frozenset()


def test_three_chain_mixed_signs() -> None:
    g = chain(-2, -2, -2)
    dec = nef_envelope_trace(g, g.divisor((F(1), F(0), F(-1))))
    assert dec.p.coeffs == (F(-1, 3), F(-2, 3), F(-1))
    assert dec.n.coeffs == (F(4, 3), F(2, 3), F(0))
    assert dec.active == frozenset({"v1", "v2"})
    assert -dec.p.self_intersection() == F(4, 3)


def test_oracle_matches_trace_on_worked_examples() -> None:
    cases = [
        (chain(-2), (F(1),)),
        (chain(-2, -2), (F(1), F(0))),
        (chain(-2, -2, -2), (F(1), F(0), F(-1))),
        (ResolutionGraph.make((("v", -2, 2),)), (F(-1),)),
    ]
    for g, coeffs in cases:
        a = g.divisor(coeffs)
        assert zariski_oracle(g, a) == nef_envelope_trace(g, a)


def test_volume_zero_iff_log_canonical() -> None:
    assert volume(chain(-2)).volume == 0
    assert volume(chain(-2)).is_lc

    rep = volume(ResolutionGraph.make((("v", -1, 2),)))
    assert rep.volume == F(4)
    assert not rep.is_lc

    rep2 = volume(ResolutionGraph.make((("v", -2, 2),)))
    assert rep2.volume == F(2)


def test_cone_volume_closed_form_grid() -> None:
    # single genus-g vertex with self-intersection -d: volume (2g-2)^2/d
    for g in (2, 3, 4):
        for d in (1, 2, 3, 5):
            graph = ResolutionGraph.make((("c", -d, g),))
            assert volume(graph).volume == F((2 * g - 2) ** 2, d)


def test_oracle_size_guard() -> None:
    assert ORACLE_MAX_VERTICES == 12
    g = chain(*([-2] * 13))
    with pytest.raises(OracleSizeError):
        zariski_oracle(g, g.divisor([0] * 13))


def test_envelopes_refuse_a_divisor_from_another_graph() -> None:
    # a divisor is read only on its own graph (or an equal one), never
    # reread as coefficients on another graph with as many vertices
    a2 = chain(-2, -2)
    other = ResolutionGraph.make((("x", -3, 1), ("y", -5, 0)), (("x", "y"),))
    a = other.discrepancy_report().ell
    for route in (nef_envelope_trace, zariski_oracle):
        with pytest.raises(MalformedInputError, match="different graphs"):
            route(a2, a)
        assert route(chain(-2, -2), a2.divisor((F(1), F(-1)))) == route(a2, a2.divisor((F(1), F(-1))))


def reference_finish(graph: ResolutionGraph, a, n_coeffs: QVector) -> object:
    """``_finish`` as it was before it took integers: ``P = A - N`` in
    ``Fraction``s, and the three certificate checks on ``Fraction`` vectors."""
    apply = graph.intersection_form.apply
    p = a.coeffs - n_coeffs
    assert min(n_coeffs) >= 0
    assert min(apply(p)) >= 0
    assert sum(map(mul, p, apply(n_coeffs))) == 0
    active = frozenset(v.id for v, c in zip(graph.vertices, n_coeffs) if c != 0)
    return ZariskiDecomposition(graph.divisor(p), graph.divisor(n_coeffs), active)


def dense_rows(graph: ResolutionGraph) -> list[list[F]]:
    """The intersection matrix as dense ``Fraction`` rows, read from ``to_doc``."""
    return [[F(x) for x in row] for row in graph.intersection_form.to_doc()]


def block_solve(rows: list[list[F]], rhs, subset) -> QVector:
    """``x`` with ``M_S x_S = rhs_S`` on the indices ``subset`` and zero off it,
    ``M`` given by ``rows``: the principal block solved as its own dense
    ``SymForm``."""
    x = [F(0)] * len(rows)
    if subset:
        block = SymForm([[rows[i][j] for j in subset] for i in subset])
        for i, v in zip(subset, block.solve([rhs[i] for i in subset])):
            x[i] = v
    return QVector(x)


def reference_feasible(graph: ResolutionGraph, a) -> list[QVector]:
    """Every feasible ``N``, one per vertex subset in size order: one
    independent :func:`block_solve` per subset, with ``Fraction`` checks."""
    r = len(graph.vertices)
    m_a = a.intersections()
    form, rows = graph.intersection_form, dense_rows(graph)
    feasible = []
    for size in range(r + 1):
        for subset in combinations(range(r), size):
            n_coeffs = block_solve(rows, m_a, subset)
            if min(n_coeffs) >= 0 and min(form.apply(a.coeffs - n_coeffs)) >= 0:
                feasible.append(n_coeffs)
    return feasible


def reference_oracle(graph: ResolutionGraph, a, feasible_n: list[QVector]) -> object:
    """The oracle as it was before the depth-first walk: the componentwise
    maximum of ``P = A - N`` over the ``N`` of :func:`reference_feasible`."""
    feasible = [a.coeffs - n for n in feasible_n]
    if not feasible:
        raise InternalConsistencyError("no feasible Zariski candidate found")
    p_max = QVector(max(vals) for vals in zip(*feasible))
    if p_max not in feasible:
        raise InternalConsistencyError(
            "feasible candidates have no componentwise-maximal element"
        )
    return reference_finish(graph, a, a.coeffs - p_max)


def walk_feasible(graph: ResolutionGraph, a) -> list[tuple]:
    """The feasible ``N`` the oracle's walk yields, as ``Fraction`` tuples."""
    den, nums = a.ints
    form = graph.intersection_form
    return [tuple(F(v, d * den) for v in y)
            for d, y in _feasible_walk(form._integral[1], form.apply_int(nums))]


def _differential_divisor(rng: Random, g: ResolutionGraph, kind: int):
    """A random rational divisor (kind 0), an already nef one, so N = 0
    (kind 1), or one with every coefficient <= 0 (kind 2)."""
    if kind == 1:
        w = random_divisor(rng, g, 0, 3).coeffs  # A . E = w >= 0
        return g.divisor(g.intersection_form.solve(w))
    if kind == 2:
        return random_divisor(rng, g, -3, 0)
    return random_divisor(rng, g)


def test_oracle_matches_per_subset_reference_seeded() -> None:
    # 1-10 vertices, with extra cycle edges and multiplicity-2 edges; the
    # walk must yield every feasible candidate, not only the maximal one,
    # since its early exits could drop one and still find the maximum
    rng = Random(520)
    g1, g3 = chain(-2), chain(-2, -3, -2)
    cases = [(g1, g1.divisor((F(1),)), None), (g3, g3.divisor((F(1), F(1, 2), F(2))), None),
             (g3, g3.divisor((F(-1), F(-1), F(-1))), None)]
    for case in range(300):
        g = random_graph(rng, 10)
        cases.append((g, _differential_divisor(rng, g, case % 3), case % 3))
    seen = set()
    for case, (g, a, kind) in enumerate(cases):
        feasible = reference_feasible(g, a)
        walked = walk_feasible(g, a)
        assert sorted(walked) == sorted(map(tuple, feasible)), case
        dec = zariski_oracle(g, a)
        assert dec == reference_oracle(g, a, feasible), case
        if kind == 1:
            assert not any(dec.n.coeffs) and dec.p == a
        pairs = [frozenset((e.i, e.j)) for e in g.edges]
        seen.add(("cycle", len(set(pairs)) >= len(g.vertices)))
        seen.add(("mult-2", any(e.mult == 2 for e in g.edges)))
        seen.add(("N = 0", not any(dec.n.coeffs)))
        seen.add(("r = 1", len(g.vertices) == 1))
        seen.add(("A >= 0", min(a.coeffs) >= 0))
        seen.add(("N > 0 everywhere", len(dec.active) == len(g.vertices)))
        seen.add(("several feasible", len(walked) > 1))
    keys = ("cycle", "mult-2", "N = 0", "r = 1", "A >= 0", "N > 0 everywhere", "several feasible")
    assert all({(k, True), (k, False)} <= seen for k in keys), seen


def test_oracle_matches_per_subset_reference_at_the_bound() -> None:
    rng = Random(521)
    g = random_graph(rng, ORACLE_MAX_VERTICES, ORACLE_MAX_VERTICES)
    a = random_divisor(rng, g)
    assert len(g.vertices) == ORACLE_MAX_VERTICES
    dec = zariski_oracle(g, a)
    assert dec == reference_oracle(g, a, reference_feasible(g, a))
    assert dec == nef_envelope_trace(g, a)
    assert dec.active and dec.p.coeffs != a.coeffs


def test_trace_equals_oracle_seeded() -> None:
    rng = Random(515)
    for _ in range(40):
        g = random_graph(rng, 4)
        a = random_divisor(rng, g)
        trace = nef_envelope_trace(g, a)
        oracle = zariski_oracle(g, a)
        assert trace.p == oracle.p
        assert trace.n == oracle.n
        assert trace.active == oracle.active


def test_decomposition_structure_seeded() -> None:
    rng = Random(516)
    for _ in range(40):
        g = random_graph(rng, 4)
        a = random_divisor(rng, g)
        dec = nef_envelope_trace(g, a)
        # P + N = A, N >= 0, P nef, and P . E = 0 on the support of N
        assert (dec.p + dec.n).coeffs == a.coeffs
        assert min(dec.n.coeffs) >= 0
        ints = dec.p.intersections()
        assert min(ints) >= 0
        assert dec.active == frozenset(
            vid for vid, x in zip(g.ids, dec.n.coeffs) if x != 0
        )
        for vid in dec.active:
            assert dec.p.intersect(vid) == 0


def test_nonnegative_input_gives_zero_positive_part_seeded() -> None:
    rng = Random(517)
    for _ in range(25):
        g = random_graph(rng, 4)
        a = random_divisor(rng, g)
        if min(a.coeffs) < 0:
            a = g.divisor(tuple(abs(c) for c in a.coeffs))
        assert not any(nef_envelope_trace(g, a).p.coeffs)


def test_envelope_is_maximal_seeded() -> None:
    # no coordinate bump keeps both P <= A and nefness
    rng = Random(518)
    eps = F(1, 1000)
    for _ in range(25):
        g = random_graph(rng, 4)
        a = random_divisor(rng, g)
        p = nef_envelope_trace(g, a).p
        for vid in g.ids:
            bumped = p + g.divisor(g.basis_divisor(vid).coeffs.scale(eps))
            still_below = bumped.leq(a)
            still_nef = min(bumped.intersections()) >= 0
            assert not (still_below and still_nef)


def test_envelope_monotone_seeded() -> None:
    rng = Random(519)
    for _ in range(25):
        g = random_graph(rng, 4)
        a = random_divisor(rng, g)
        bump = random_divisor(rng, g)
        bigger = a + g.divisor(tuple(abs(c) for c in bump.coeffs))
        assert nef_envelope_trace(g, a).p.leq(nef_envelope_trace(g, bigger).p)


def test_volume_report_doc_uses_rational_strings() -> None:
    doc = volume(ResolutionGraph.make((("v", -1, 2),))).to_doc()
    assert doc["volume"] == "4"
    assert doc["is_lc"] is False
    assert doc["P"] == {"v": "-2"}
    assert doc["N"] == {"v": "0"}
    assert doc["active"] == []


def reference_trace(graph: ResolutionGraph, a) -> object:
    """The trace as it was before its integer rounds: every round applies
    the form to ``Fraction`` vectors, ``A >= 0`` takes rounds like any other
    divisor, and the three certificate checks run in ``Fraction``s."""
    apply, rows = graph.intersection_form.apply, dense_rows(graph)
    m_a = apply(a.coeffs)
    working = {j for j, x in enumerate(m_a) if x < 0}
    while True:
        n_coeffs = block_solve(rows, m_a, sorted(working))
        p_ints = apply(a.coeffs - n_coeffs)
        violators = {j for j, x in enumerate(p_ints) if j not in working and x < 0}
        if not violators:
            break
        working |= violators
    return reference_finish(graph, a, n_coeffs)


def _reference_graph(rng: Random) -> ResolutionGraph:
    """1-40 vertices: a random tree listed root first, extra cycle edges and
    multiplicity-2 edges, genus, and diagonally dominant weights."""
    n = rng.randint(1, 40)
    edges = [(f"v{rng.randrange(k)}", f"v{k}", rng.choice((1, 1, 1, 2))) for k in range(1, n)]
    if n >= 3 and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            a, b = rng.sample(range(n), 2)
            edges.append((f"v{a}", f"v{b}", 1))
    load = {f"v{k}": 0 for k in range(n)}
    for a, b, mult in edges:
        load[a] += mult
        load[b] += mult
    vertices = [(v, -(load[v] + rng.choice((0, 1, 1, 2)) + (k == 0)),
                 rng.choice((0, 0, 0, 0, 1, 2))) for k, v in enumerate(load)]
    return ResolutionGraph.make(vertices, edges)


def test_trace_matches_fraction_reference_seeded(monkeypatch) -> None:
    from singvol import envelope

    rows: list[int] = []  # the rows each round hands to the elimination
    eliminate = envelope._eliminate

    def counting(block, n, *args):
        rows.append(n)
        return eliminate(block, n, *args)

    monkeypatch.setattr(envelope, "_eliminate", counting)
    rng = Random(606)
    seen = set()
    kinds = ("mixed", "nonnegative", "nonpositive", "log-discrepancy")
    for case in range(320):
        g = _reference_graph(rng)
        kind = kinds[case % 4]
        if kind == "mixed":
            a = random_divisor(rng, g)
        elif kind == "nonnegative":
            a = random_divisor(rng, g, 0, 3)
        elif kind == "nonpositive":
            a = random_divisor(rng, g, -3, 0)
        else:
            a = g.discrepancy_report().ell
        expected = reference_trace(g, a)
        del rows[:]
        dec = nef_envelope_trace(g, a)
        assert dec == expected, case
        if min(a.coeffs) >= 0:
            assert not rows, case  # the A >= 0 shortcut runs no round
            assert dec.n == a and not any(dec.p.coeffs)
        pairs = [frozenset((e.i, e.j)) for e in g.edges]
        seen.add(("cycle", len(set(pairs)) >= len(g.vertices)))
        seen.add(("mult-2", any(e.mult == 2 for e in g.edges)))
        seen.add(("genus", any(v.genus for v in g.vertices)))
        seen.add(("rational", any(c.denominator > 1 for c in a.coeffs)))
        seen.add(("N = 0", not any(dec.n.coeffs)))
        seen.add(("P = 0", not any(dec.p.coeffs)))
    for key in ("cycle", "mult-2", "genus", "rational", "N = 0", "P = 0"):
        assert {(key, True), (key, False)} <= seen, seen


def test_integer_path_matches_fraction_reference_seeded() -> None:
    # ell and the lc data from the canonical solve's integers, the integer
    # _finish behind the trace and the oracle, and the self-pairing, each
    # against the Fraction computation it replaced
    from singvol.catalog import graph_by_name

    rng = Random(608)
    graphs = [graph_by_name(n) for n in ("cusp-4", "simple-elliptic-3", "cone-g2-d1", "E8")]
    graphs += [_reference_graph(rng) for _ in range(300)]
    seen = set()
    for case, g in enumerate(graphs):
        report = g.discrepancy_report()
        ell = QVector(1 - x for x in g.mumford_pullback_canonical().coeffs)
        assert report.ell.coeffs == ell and all(type(x) is F for x in report.ell.coeffs), case
        assert report.is_lc == (min(ell) >= 0), case
        assert report.lc_mod_support == {v.id for v, x in zip(g.vertices, ell) if x < 0}, case
        form = g.intersection_form
        for a in (report.ell, random_divisor(rng, g)):
            dec = nef_envelope_trace(g, a)
            assert dec == reference_finish(g, a, dec.n.coeffs), case
            if len(g.vertices) <= 10:
                oracle = zariski_oracle(g, a)
                assert oracle == reference_finish(g, a, oracle.n.coeffs) == dec, case
                seen.add("oracle")
            for x in (a.coeffs, dec.p.coeffs):
                copy = QVector(x)
                assert copy is not x
                assert form.pair(x, x) == form.pair(x, copy) == sum(map(mul, x, form.apply(x))), case
        seen.add(("lc", report.is_lc))
        seen.add(("ell = 0", report.is_lc, 0 in ell))
    assert "oracle" in seen
    assert {("lc", True), ("lc", False)} <= seen, seen
    assert {("ell = 0", True, True), ("ell = 0", False, True)} <= seen, seen


def test_integer_divisors_match_their_fractions_seeded() -> None:
    # a divisor from (den, nums) against one from the Fractions nums / den:
    # to_doc against rat_str per coefficient, equality and hashing, the
    # integer arithmetic against QVector's, and pickle and copy of both
    import copy
    import math
    import pickle

    rng = Random(1717)
    g4 = chain(-2, -2, -2, -2)
    cases = [(g4, 6, [0, -3, 6, 4]), (g4, 4, [2, -4, 0, 6]), (g4, 1, [0, 0, 0, 0]),
             (g4, 3, [-3, 3, -9, 0]), (g4, 5, [-7, 0, 10, 1])]
    for _ in range(150):
        g = _reference_graph(rng)
        den = rng.randint(1, 12)
        cases.append((g, den, [rng.randint(-3 * den, 3 * den) for _ in g.vertices]))
    for case, (g, den, nums) in enumerate(cases):
        coeffs = QVector(F(v, den) for v in nums)
        from_ints, from_fractions = ExcDivisor.from_ints(g, den, nums), g.divisor(coeffs)
        expected = {v.id: rat_str(x) for v, x in zip(g.vertices, coeffs)}
        assert from_ints.to_doc() == expected == from_fractions.to_doc(), case
        assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions), case
        d, n = from_ints.ints
        assert from_fractions.ints == (d, n) and type(n) is tuple, case
        assert d > 0 and math.gcd(d, *n) == 1 and from_ints.coeffs == coeffs, case
        for x in (from_ints, from_fractions):
            for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert twin == x and hash(twin) == hash(x) and twin.to_doc() == expected, case
        other = random_divisor(rng, g)
        assert (from_ints + other).coeffs == coeffs + other.coeffs, case
        assert (from_ints - other).coeffs == coeffs - other.coeffs, case
        assert (-from_ints).coeffs == -coeffs, case
        assert from_ints.leq(other) == all(map(le, coeffs, other.coeffs)), case
        assert from_ints.leq(from_fractions) and other.leq(other), case
        assert from_ints.self_intersection() == g.intersection_form.pair(coeffs, coeffs), case


@pytest.mark.parametrize("name", ["star", "A80"])
def test_volume_and_discrepancy_reports_build_no_fractions(name) -> None:
    # B, ell, P and N keep the solves' integers up to the printed report:
    # none of them builds (and caches) its Fraction coeffs on the way
    from singvol.catalog import graph_by_name

    if name == "star":  # the large-graphs star: a genus-2 centre, four long arms
        vertices, edges = [("c", -4, 2)], []
        for a in range(4):
            ids = ["c"] + [f"a{a}_{k}" for k in range(6)]
            vertices += [(v, -3 if (a + k) % 4 == 0 else -2, 0) for k, v in enumerate(ids[1:])]
            edges += list(zip(ids, ids[1:]))
        g = ResolutionGraph.make(vertices, edges)
    else:
        g = graph_by_name(name)
    vol, report = volume(g), g.discrepancy_report()
    docs = vol.to_doc(), report.to_doc()
    divisors = (report.b, report.ell, vol.decomposition.p, vol.decomposition.n)
    assert not any("coeffs" in vars(d) for d in divisors)
    assert (vol.volume > 0) == (name == "star")
    for doc, d in ((docs[1]["ell"], report.ell), (docs[0]["P"], vol.decomposition.p)):
        assert doc == {v.id: rat_str(x) for v, x in zip(g.vertices, d.coeffs)}


def test_finish_refuses_each_broken_certificate() -> None:
    # _finish(graph, den, den A, den N)
    g = chain(-2)  # M = (-2)
    with pytest.raises(InternalConsistencyError,
                       match=r"negative coefficient: N = QVector\(-1/3\)"):
        _finish(g, 3, [0], [-1])
    with pytest.raises(InternalConsistencyError, match="meets a curve negatively"):
        _finish(g, 1, [1], [0])  # P = 1, P . E = -2
    with pytest.raises(InternalConsistencyError, match="not orthogonal"):
        _finish(g, 1, [0], [1])  # P = -1 nef, P . N = 2
    dec = _finish(g, 4, [2], [2])
    assert dec.p.coeffs == (F(0),) and dec.n.coeffs == (F(1, 2),)
    assert dec.active == frozenset({"v1"})


def test_volume_builds_no_dense_form() -> None:
    g = ResolutionGraph.make([("c", -2, 2)] + [(f"v{k}", -2, 0) for k in range(30)],
                             [("c", "v0")] + [(f"v{k}", f"v{k + 1}") for k in range(29)])
    assert volume(g).volume > 0


@pytest.mark.parametrize("center, arms", [(-1, (11,)), (-3, (4, 4, 3))])
def test_trace_eliminates_each_working_vertex_once(monkeypatch, center, arms) -> None:
    # a genus-1 curve with (-2)-chains hanging off it: the working set grows
    # by about one vertex per arm per round, and each round borders the one
    # factor, so the rows handed to the elimination add up to the support
    from singvol import envelope, lattice

    vertices, edges = [("e", center, 1)], []
    for a, length in enumerate(arms):
        ids = ["e"] + [f"a{a}v{k}" for k in range(length)]
        vertices += [(v, -2, 0) for v in ids[1:]]
        edges += list(zip(ids, ids[1:]))
    g = ResolutionGraph.make(vertices, edges)
    ell = g.discrepancy_report().ell
    rows: list[int] = []
    eliminate = lattice._eliminate

    def counting(block, n, *args, **options):
        rows.append(n)
        return eliminate(block, n, *args, **options)

    monkeypatch.setattr(lattice, "_eliminate", counting)
    monkeypatch.setattr(envelope, "_eliminate", counting, raising=False)
    dec = nef_envelope_trace(g, ell)
    assert len(rows) >= 3
    assert sum(rows) == len(dec.active)
    monkeypatch.undo()
    assert dec == zariski_oracle(g, ell)


def test_trace_borders_no_rim_vertex_the_candidate_meets_with_zero(monkeypatch) -> None:
    # A meets only v3 negatively; the first candidate then meets its rim
    # vertex v2 with exactly 0, so no second round borders v2 (a rim test
    # that also took the zeros would, and would reach the same envelope)
    from singvol import envelope, lattice

    g = ResolutionGraph.make([("v1", -4, 0), ("v2", -2, 2), ("v3", -4, 0)],
                             [("v1", "v2", 1), ("v2", "v3", 2)])
    a = g.divisor((F(-3), F(-3), F(2)))
    rows: list[int] = []
    eliminate = lattice._eliminate

    def counting(block, n, *args, **options):
        rows.append(n)
        return eliminate(block, n, *args, **options)

    monkeypatch.setattr(envelope, "_eliminate", counting)
    dec = nef_envelope_trace(g, a)
    assert rows == [1] and dec.active == frozenset({"v3"})
    assert sum(rows) == len(dec.active)
    assert dec.p.intersect("v2") == 0
    monkeypatch.undo()
    assert dec == zariski_oracle(g, a)


def test_volume_refuses_a_vanishing_envelope_on_a_non_lc_graph(monkeypatch) -> None:
    # the volume vanishes exactly in the lc case, checked in the same call
    from singvol import envelope

    g = ResolutionGraph.make([("e", -2, 2)])  # ell = -1: not lc
    assert not g.discrepancy_report().is_lc

    def vanishing(graph, a):
        return ZariskiDecomposition(graph.divisor([0] * len(graph.ids)), a, frozenset(graph.ids))

    monkeypatch.setattr(envelope, "nef_envelope_trace", vanishing)
    with pytest.raises(InternalConsistencyError,
                       match="volume vanishing disagrees with log canonicity"):
        volume(g)


def test_volume_refuses_a_negative_volume(monkeypatch) -> None:
    # -P.P >= 0 on a negative-definite form, checked in the same call: a
    # negated mat-vec, inside volume only, turns it negative
    from singvol import envelope
    from singvol.lattice import SymForm

    g = ResolutionGraph.make([("e", -3, 2)])  # P = -2/3, volume 4/3
    dec = nef_envelope_trace(g, g.discrepancy_report().ell)  # caches the solve first
    apply_int = SymForm.apply_int
    monkeypatch.setattr(envelope, "nef_envelope_trace", lambda graph, a: dec)
    monkeypatch.setattr(SymForm, "apply_int", lambda form, v: [-x for x in apply_int(form, v)])
    with pytest.raises(InternalConsistencyError, match="volume came out negative: -4/3"):
        volume(g)
