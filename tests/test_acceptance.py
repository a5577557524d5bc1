"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest still shows one PASSED/FAILED row per
criterion.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from time import perf_counter

from singvol import (
    FreeBlowup,
    ModelTower,
    PolarizedCone,
    ResolutionGraph,
    SatelliteBlowup,
    SymForm,
    invariance_report,
    lc_boundary_exists,
    natural_valuation,
    nef_envelope_trace,
    valuation_limit,
    vol_plus_table,
    volume,
    zariski_oracle,
)
from singvol.catalog import graph_by_name
from singvol.cli import main
from singvol.cone import STATUS_CITED, STATUS_OPEN, ruled_surface_cone
from singvol.envelope import ORACLE_MAX_VERTICES
from singvol.lattice import QVector
from singvol.randgen import random_divisor, random_graph, random_tower

F = Fraction


@contextmanager
def criterion(number: int, label: str, seconds: float | None = None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {label}")
        raise
    elapsed = perf_counter() - start
    if seconds is not None and elapsed >= seconds:
        print(f"criterion {number}: FAIL  {label} (runtime {elapsed:.2f}s, budget {seconds}s)")
        raise AssertionError(f"criterion {number} runtime {elapsed:.3f}s exceeded {seconds}s")
    print(f"criterion {number}: PASS  {label} ({elapsed:.2f}s)")


def test_criterion_1_cone_volumes_exact() -> None:
    with criterion(1, "cone volumes match the closed form exactly", 1.0):
        for g, d, expected in ((2, 1, F(4)), (2, 2, F(2))):
            graph = ResolutionGraph.make((("c", -d, g),))
            assert volume(graph).volume == expected
            assert expected == F((2 * g - 2) ** 2, d)


def test_criterion_2_lc_catalog() -> None:
    names = (
        [f"A{n}" for n in range(1, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8"]
        + [f"simple-elliptic-{d}" for d in range(1, 6)]
        + [f"cusp-{n}" for n in range(3, 7)]
    )
    with criterion(2, "every catalog lc graph has volume 0", 1.0):
        for name in names:
            rep = volume(graph_by_name(name))
            assert rep.is_lc, name
            assert rep.volume == 0, name


def test_criterion_3_envelope_equals_oracle() -> None:
    rng = Random(1003)
    with criterion(3, "active-set envelope equals the subset oracle on 100 graphs", 10.0):
        for _ in range(100):
            graph = random_graph(rng, 5)
            a = random_divisor(rng, graph, low=-3, high=3)
            trace = nef_envelope_trace(graph, a)
            oracle = zariski_oracle(graph, a)
            assert trace.p == oracle.p
            assert trace.n == oracle.n
            assert trace.active == oracle.active


def test_criterion_4_model_invariance() -> None:
    rng = Random(1004)
    required = {
        "volume-constant",
        "nef-part-pulls-back",
        "canonical-transform",
        "new-vertex-coefficient",
    }
    with criterion(4, "volume and nef part invariant along 100 blowup towers", 30.0):
        for _ in range(100):
            base = random_graph(rng, 8)
            tower = random_tower(rng, base, 3)
            rep = invariance_report(tower)
            assert rep.ok, [c.to_doc() for c in rep.failures()]
            if tower.steps:
                names = {c.name for c in rep.checks}
                assert required <= names


def test_criterion_5_counterexample_reproduction() -> None:
    cone = ruled_surface_cone()
    slopes = [F(1, 2**k) for k in range(11)]
    with criterion(5, "ruled-surface bounds 2^(1-3k) and the no-lc-boundary certificate", 1.0):
        table = vol_plus_table(cone, slopes)
        got = [row["upper_bound"] for row in table["rows"]]
        assert got == [str(F(2, 8**k)) for k in range(11)]
        claims = {v["claim"] for v in table["verdicts"]}
        assert {"augmented-volume-zero", "local-volume-zero", "no-lc-boundary"} <= claims
        verdict = lc_boundary_exists(cone)
        assert verdict.exists is False
        assert verdict.forced_a == 0
        assert len(verdict.certificate) == 3
        assert "a >= 0" in verdict.certificate[0]
        assert "a <= 0" in verdict.certificate[1]
        assert "rigidity" in verdict.certificate[2]


def test_criterion_6_valuation_laws() -> None:
    cone = ruled_surface_cone()
    classes = [
        (1, 0), (0, 1), (1, 1), (-2, 0), (-1, -1),
        (1, -1), (2, 3), (-3, 1), (0, 5), (2, 0),
    ]
    with criterion(6, "valuation laws on 10 classes up to k = 1000", 10.0):
        for entries in classes:
            d = QVector((F(entries[0]), F(entries[1])))
            limit = valuation_limit(cone, d)
            for k in range(1, 1001):
                gap = F(natural_valuation(cone, d, k), k) - limit
                assert 0 <= gap <= F(1, k)
            v1 = natural_valuation(cone, d, 1)
            for m in range(1, 13):
                assert m * v1 >= natural_valuation(cone, d, m)
            assert v1 + natural_valuation(cone, d.scale(-1), 1) >= 0


def test_criterion_7_dcc_scan() -> None:
    from singvol import dcc_scan

    with criterion(7, "Gorenstein cone volumes on the 20 x 10 grid bottom out at 2", 5.0):
        out = dcc_scan(20, 10)
        assert out["min_volume"] == "2"
        assert out["min_witnesses"] == [{"g": 2, "a": 1, "d": 2}]
        assert all(F(row["volume"]) >= 2 for row in out["rows"])
        assert out["no_strictly_decreasing_chain"] is True
        ascending = [F(v) for v in out["distinct_volumes_ascending"]]
        assert ascending == sorted(set(ascending))


def test_criterion_8_citation_labels(capsys) -> None:
    cone = ruled_surface_cone()
    with criterion(8, "non-desk-verifiable claims carry citation labels"):
        table = vol_plus_table(cone, [F(1), F(1, 2)])
        labels = {(v["claim"], v["status"]) for v in table["not_desk_verifiable"]}
        assert ("every-truncated-volume-positive", STATUS_CITED) in labels
        assert ("augmented-volume-equals-local-volume", STATUS_OPEN) in labels
        code = main(["cone", "limiting", "catalog:paper-ruled-surface", "--m", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "caveat" in out


def _random_tree(rng: Random, n: int) -> tuple[list, list]:
    """A random tree listed root first, with multiplicity-2 edges, genus and
    diagonally dominant weights; the root has genus >= 1, so it is not lc."""
    parent = [rng.randrange(k) for k in range(1, n)]
    mult = [rng.choice((1, 1, 1, 2)) for _ in range(1, n)]
    load = [0] * n
    for k in range(1, n):
        load[k] += mult[k - 1]
        load[parent[k - 1]] += mult[k - 1]
    vertices = [(f"v{k}", -(load[k] + max(rng.choice((0, 1, 1, 2)), k == 0)),
                 rng.randint(1, 2) if k == 0 else rng.choice((0, 0, 0, 0, 0, 1, 2)))
                for k in range(n)]
    edges = [(f"v{parent[k - 1]}", f"v{k}", mult[k - 1]) for k in range(1, n)]
    return vertices, edges


def test_criterion_9_large_tree_construction() -> None:
    vertices, edges = _random_tree(Random(0), 400)
    with criterion(9, "a random 400-vertex tree builds (definiteness test included)", 1.0):
        graph = ResolutionGraph.make(vertices, edges)
        assert len(graph.vertices) == 400


def test_criterion_10_oversized_catalog_graph_refused(capsys) -> None:
    with criterion(10, "graph lc catalog:A3000 ends with a JSON error, exit 1", 2.0):
        code = main(["graph", "lc", "catalog:A3000"])
        out = capsys.readouterr().out
        assert code == 1
        assert '"reason": "too-large"' in out


def test_criterion_11_long_chain_volume() -> None:
    graph = ResolutionGraph.make([(f"v{k}", -3, 0) for k in range(320)],
                                 [(f"v{k}", f"v{k + 1}") for k in range(319)])
    with criterion(11, "volume of the 320-vertex (-3)-chain, a cyclic quotient", 1.0):
        rep = volume(graph)
        assert rep.volume == 0 and rep.is_lc


def _tree_det(graph: ResolutionGraph) -> Fraction:
    """det M of a tree's form by leaf elimination in Fractions: removing a
    leaf l multiplies in its diagonal d_l and turns its neighbour's d_p into
    d_p - w^2 / d_l, w the edge multiplicity."""
    diag = {v.id: F(v.self_int) for v in graph.vertices}
    nbrs = {v.id: {} for v in graph.vertices}
    for e in graph.edges:
        nbrs[e.i][e.j] = nbrs[e.j][e.i] = nbrs[e.i].get(e.j, 0) + e.mult
    assert sum(map(len, nbrs.values())) == 2 * (len(diag) - 1), "not a tree"
    leaves = [v for v, adj in nbrs.items() if len(adj) <= 1]
    det = F(1)
    while leaves:
        leaf = leaves.pop()
        det *= diag[leaf]
        for p, w in nbrs.pop(leaf).items():
            diag[p] -= w * w / diag[leaf]
            del nbrs[p][leaf]
            if len(nbrs[p]) == 1:
                leaves.append(p)
    return det


def test_criterion_12_large_tree_tower_invariance() -> None:
    vertices, edges = _random_tree(Random(0), 400)
    base = ResolutionGraph.make(vertices, edges)
    i, j, _ = next(e for e in edges if e[2] == 1)  # blowing up its node keeps a tree
    with criterion(12, "invariance report on a 2-step tower over a 400-vertex tree", 2.0):
        tower = ModelTower(base, (FreeBlowup("v399"), SatelliteBlowup(i, j)))
        rep = invariance_report(tower)
        assert rep.ok, [c.to_doc() for c in rep.failures()]
    for graph in tower.models:
        assert graph.intersection_form.det() == _tree_det(graph)


def test_criterion_13_many_cycle_graph_doc_refused(tmp_path, capsys) -> None:
    # 700 vertices, a tree plus 1,400 chords: eliminating it took minutes
    rng = Random(2)
    edges = {(rng.randrange(k), k) for k in range(1, 700)}
    while len(edges) < 2100:
        a, b = sorted(rng.sample(range(700), 2))
        edges.add((a, b))
    doc = {"vertices": [{"id": f"v{k}", "self_int": -3, "genus": 0} for k in range(700)],
           "edges": [{"i": f"v{a}", "j": f"v{b}"} for a, b in sorted(edges)]}
    path = tmp_path / "cycles.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with criterion(13, "graph vol on a 700-vertex graph of cycle rank 1,401 ends with a "
                   "JSON error, exit 1", 2.0):
        code = main(["graph", "vol", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert '"reason": "too-large"' in out


def test_criterion_14_large_entry_graph_doc_refused(tmp_path, capsys) -> None:
    # 700 (-10,000)-curves on a tree plus 50 chords: inside both size limits,
    # it took about 15 s to build and solve
    rng = Random(0)
    edges = {(rng.randrange(k), k) for k in range(1, 700)}
    while len(edges) < 749:
        a, b = sorted(rng.sample(range(700), 2))
        edges.add((a, b))
    doc = {"vertices": [{"id": f"v{k}", "self_int": -10_000, "genus": 0} for k in range(700)],
           "edges": [{"i": f"v{a}", "j": f"v{b}"} for a, b in sorted(edges)]}
    path = tmp_path / "large-entries.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with criterion(14, "graph vol on 700 (-10,000)-curves with 50 chords ends with a "
                   "JSON error, exit 1", 2.0):
        code = main(["graph", "vol", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert '"reason": "too-large"' in out


def test_criterion_15_large_cone_facets() -> None:
    # 316 generators at basis 3 sit just inside MAX_FACET_SUBSETS; reducing
    # every pair of them took about 4.5 s
    gens = [QVector([F(t ** p) for p in range(3)]) for t in range(-158, 158)]
    h = sum(gens[1:], gens[0])
    with criterion(15, "facets of the 316-generator moment-curve cone at basis 3", 0.5):
        cone = PolarizedCone(dim_x=3, basis=("e0", "e1", "e2"),
                             form=SymForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                             nef_gens=(h,), pseff_gens=gens, k_class=QVector.zero(3),
                             h_class=h)
        normals = cone.facet_normals
    # the cyclic polygon: one facet through each pair of neighbours on the curve
    assert len(normals) == 316
    rays = [[int(x) for x in g] for g in gens]
    for phi in normals:
        values = [sum(int(a) * b for a, b in zip(phi, ray)) for ray in rays]
        assert min(values) == 0 and values.count(0) == 2


def test_criterion_16_long_non_lc_chain_volume() -> None:
    # a genus-1 (-1)-curve after 699 (-2)-curves: the trace's working set
    # grows by one vertex per round, and eliminating it afresh each round
    # took 2.5 s (2-vCPU machine, Python 3.11)
    graph = ResolutionGraph.make([(f"v{k}", -2, 0) for k in range(699)] + [("e", -1, 1)],
                                 [(f"v{k}", f"v{k + 1}") for k in range(698)] + [("v698", "e")])
    with criterion(16, "volume of a genus-1 (-1)-curve after 699 (-2)-curves", 1.0):
        rep = volume(graph)
        assert rep.volume == F(488601, 700) and not rep.is_lc


def test_criterion_17_oracle_at_its_vertex_bound() -> None:
    # 2^12 subsets per graph; the walk decides each in integers with its
    # cheapest tests first: 0.25 s here, 0.5-0.7 s with a back-substitution
    # and a full mat-vec per subset (2-vCPU machine, Python 3.11)
    rng = Random(1017)
    cases = []
    for _ in range(20):
        graph = random_graph(rng, ORACLE_MAX_VERTICES, ORACLE_MAX_VERTICES)
        assert len(graph.vertices) == ORACLE_MAX_VERTICES
        cases.append((graph, random_divisor(rng, graph)))
    with criterion(17, "subset oracle equals the envelope on 20 graphs at 12 vertices", 0.8):
        for graph, a in cases:
            assert zariski_oracle(graph, a) == nef_envelope_trace(graph, a)
