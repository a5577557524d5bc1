"""Blowup bookkeeping and model invariance."""

from fractions import Fraction
from random import Random

import pytest

from singvol import (
    DomainError,
    FreeBlowup,
    MalformedInputError,
    ModelTower,
    ResolutionGraph,
    SatelliteBlowup,
    blow_up,
    invariance_report,
    nef_envelope_trace,
    pushforward,
    volume,
)
from singvol.randgen import random_divisor, random_graph, random_step, random_tower
from singvol.graph import MAX_GRAPH_VERTICES
from singvol.tower import (
    MAX_TOWER_STEPS,
    envelope_pullback_check,
    fresh_vertex_id,
    tower_to_doc,
)

F = Fraction


def a_chain(n: int) -> ResolutionGraph:
    vertices = tuple((f"v{i + 1}", -2, 0) for i in range(n))
    edges = tuple((f"v{i + 1}", f"v{i + 2}") for i in range(n - 1))
    return ResolutionGraph.make(vertices, edges)


def test_free_blowup_adds_minus_one_leaf() -> None:
    g = blow_up(a_chain(1), FreeBlowup("v1"))
    assert g.ids == ("v1", "b1")
    assert g.vertices[g.index("v1")].self_int == -3
    assert g.vertices[g.index("b1")].self_int == -1
    assert g.vertices[g.index("b1")].genus == 0
    assert len(g.edges) == 1 and g.edges[0].joins("v1", "b1")


def test_repeated_free_blowups_pick_fresh_ids() -> None:
    g = blow_up(a_chain(1), FreeBlowup("v1"))
    g = blow_up(g, FreeBlowup("v1"))
    assert g.ids == ("v1", "b1", "b2")
    assert g.vertices[g.index("v1")].self_int == -4
    assert fresh_vertex_id(g) == "b3"


def test_satellite_blowup_splits_an_edge() -> None:
    g = blow_up(a_chain(2), SatelliteBlowup("v1", "v2"))
    assert g.ids == ("v1", "v2", "b1")
    assert g.vertices[g.index("v1")].self_int == -3
    assert g.vertices[g.index("v2")].self_int == -3
    assert g.vertices[g.index("b1")].self_int == -1
    pairs = sorted(tuple(sorted((e.i, e.j))) for e in g.edges)
    assert pairs == [("b1", "v1"), ("b1", "v2")]


def test_satellite_blowup_decrements_multiple_edge() -> None:
    base = ResolutionGraph.make((("a", -3, 0), ("b", -3, 0)), (("a", "b", 2),))
    g = blow_up(base, SatelliteBlowup("a", "b"))
    by_pair = {tuple(sorted((e.i, e.j))): e.mult for e in g.edges}
    assert by_pair == {("a", "b"): 1, ("a", "b1"): 1, ("b", "b1"): 1}
    assert g.vertices[g.index("a")].self_int == -4
    assert g.vertices[g.index("b")].self_int == -4


def test_blowup_rejects_bad_steps() -> None:
    g = a_chain(3)
    with pytest.raises(MalformedInputError):
        blow_up(g, FreeBlowup("zz"))
    with pytest.raises(MalformedInputError):
        blow_up(g, SatelliteBlowup("v1", "v1"))
    with pytest.raises(MalformedInputError):
        blow_up(g, SatelliteBlowup("v1", "v3"))  # no edge
    with pytest.raises(MalformedInputError):
        blow_up(g, SatelliteBlowup("v1", "v2", edge=1))  # index out of range


def test_blowup_refuses_a_step_that_is_no_blowup() -> None:
    with pytest.raises(MalformedInputError) as exc:
        blow_up(a_chain(2), "v1")
    assert (exc.value.reason, str(exc.value), exc.value.exit_code) == (
        "malformed-input", "unknown blowup step 'v1'", 2)


@pytest.mark.parametrize("base, steps", [
    (MAX_GRAPH_VERTICES, 1),  # the top model would pass the graph size limit
    (MAX_GRAPH_VERTICES - 10, 11),
    (2, MAX_TOWER_STEPS + 1),
])
def test_tower_size_is_refused_before_the_first_blowup(monkeypatch, base, steps) -> None:
    def no_blowup(*args):
        raise AssertionError("a blowup ran")

    graph = a_chain(base)
    monkeypatch.setattr("singvol.tower.blow_up", no_blowup)
    with pytest.raises(DomainError) as exc:
        ModelTower(graph, (FreeBlowup("v1"),) * steps)
    assert exc.value.reason == "too-large"


def test_tower_at_the_size_limits_is_built() -> None:
    assert len(ModelTower(a_chain(2), (FreeBlowup("v1"),) * MAX_TOWER_STEPS).top.ids) == 52
    top = ModelTower(a_chain(MAX_GRAPH_VERTICES - 1), (FreeBlowup("v1"),)).top
    assert len(top.ids) == MAX_GRAPH_VERTICES


def test_pullback_free_copies_center_coefficient() -> None:
    base = a_chain(2)
    d = base.divisor((F(3), F(-1)))
    up = ModelTower(base, (FreeBlowup("v1"),)).pullback(0, d)
    assert up.coeffs == (F(3), F(-1), F(3))


def test_pullback_satellite_sums_endpoint_coefficients() -> None:
    base = a_chain(2)
    d = base.divisor((F(3), F(-1)))
    up = ModelTower(base, (SatelliteBlowup("v1", "v2"),)).pullback(0, d)
    assert up.coeffs == (F(3), F(-1), F(2))


def test_pushforward_inverts_pullback() -> None:
    base = a_chain(2)
    d = base.divisor((F(1, 2), F(-5, 3)))
    for step in (FreeBlowup("v2"), SatelliteBlowup("v1", "v2")):
        assert pushforward(ModelTower(base, (step,)).pullback(0, d), base) == d


def test_pushforward_onto_the_same_vertex_ids() -> None:
    # onto its own graph a divisor is unchanged; onto the same ids in
    # another order it is refused, never read off by position
    base = a_chain(2)
    d = base.divisor((F(1, 2), F(-5, 3)))
    assert pushforward(d, base) == d
    swapped = ResolutionGraph.make((("v2", -2, 0), ("v1", -2, 0)), (("v1", "v2"),))
    with pytest.raises(MalformedInputError, match="disagree on order"):
        pushforward(d, swapped)
    with pytest.raises(MalformedInputError, match="vertices the child lacks"):
        pushforward(d, a_chain(3))


def test_pullback_rejects_a_divisor_off_its_level() -> None:
    base = a_chain(2)
    tower = ModelTower(base, (FreeBlowup("v1"), FreeBlowup("v2")))
    d = base.divisor((F(1), F(2)))
    with pytest.raises(MalformedInputError):
        tower.pullback(1, d)  # d lives on level 0
    with pytest.raises(MalformedInputError):
        tower.pullback(2, d)  # no step 2
    with pytest.raises(MalformedInputError):
        tower.pullback(-1, d)
    top = tower.pullback(1, tower.pullback(0, d))
    assert top.coeffs == (F(1), F(2), F(1), F(2))
    with pytest.raises(MalformedInputError):
        tower.pullback(2, top)  # on the top model, but there is no step 2


def test_blown_up_canonical_coefficient_drops_by_one() -> None:
    # B' on the new vertex is b_i - 1 (free) or b_i + b_j - 1 (satellite)
    base = ResolutionGraph.make((("v", -1, 2),))
    b = base.mumford_pullback_canonical()
    assert b.coeffs == (F(3),)
    top = blow_up(base, FreeBlowup("v"))
    b2 = top.mumford_pullback_canonical()
    assert b2.coeffs[top.index("b1")] == b.coeffs[base.index("v")] - 1


def test_new_canonical_coefficient_may_be_negative() -> None:
    # blowing up a smooth-ish vertex forces b_new = -1; fine, the model
    # is no longer relatively minimal
    top = blow_up(a_chain(1), FreeBlowup("v1"))
    b = top.mumford_pullback_canonical()
    assert b.coeffs == (F(0), F(-1))


def test_invariance_report_on_worked_tower() -> None:
    tower = ModelTower(a_chain(2), (SatelliteBlowup("v1", "v2"), FreeBlowup("b1")))
    rep = invariance_report(tower)
    assert rep.ok
    assert rep.failures() == ()
    names = {c.name for c in rep.checks}
    assert {
        "volume-constant",
        "nef-part-pulls-back",
        "canonical-transform",
        "new-vertex-coefficient",
        "pushforward-pullback-identity",
        "det-magnitude-preserved",
        "composed-canonical-transform",
    } <= names


def test_volume_constant_along_tower() -> None:
    base = ResolutionGraph.make((("v", -1, 2),))
    tower = ModelTower(base, (FreeBlowup("v"), FreeBlowup("b1")))
    vols = [volume(m).volume for m in tower.models]
    assert vols == [F(4), F(4), F(4)]


def test_tower_volumes_are_public_and_cached() -> None:
    base = ResolutionGraph.make((("v", -1, 2),))
    tower = ModelTower(base, (FreeBlowup("v"), FreeBlowup("b1")))
    assert tower.volumes is tower.volumes
    assert [r.volume for r in tower.volumes] == [F(4), F(4), F(4)]
    assert tower.volumes[-1] == volume(tower.top)


def test_determinant_magnitude_preserved() -> None:
    base = a_chain(3)
    d0 = abs(base.intersection_form.det())
    top = blow_up(base, SatelliteBlowup("v2", "v3"))
    assert abs(top.intersection_form.det()) == d0


def test_envelope_pullback_check_on_examples() -> None:
    base = a_chain(2)
    tower = ModelTower(base, (SatelliteBlowup("v1", "v2"),))
    assert envelope_pullback_check(tower, base.divisor((F(1), F(-1))))
    assert envelope_pullback_check(tower, base.divisor((F(-2), F(0))))


def test_nef_part_pulls_back_exactly_seeded() -> None:
    rng = Random(77)
    for _ in range(20):
        base = random_graph(rng, 5)
        tower = random_tower(rng, base, 2)
        a = random_divisor(rng, base)
        p = nef_envelope_trace(base, a).p
        lifted_a = a
        lifted_p = p
        for level in range(len(tower.steps)):
            lifted_a = tower.pullback(level, lifted_a)
            lifted_p = tower.pullback(level, lifted_p)
        assert nef_envelope_trace(tower.top, lifted_a).p == lifted_p


def test_invariance_report_seeded() -> None:
    rng = Random(78)
    for _ in range(20):
        base = random_graph(rng, 5)
        tower = random_tower(rng, base, 3)
        rep = invariance_report(tower)
        assert rep.ok, [c.to_doc() for c in rep.failures()]


def test_tower_doc_ok_flag() -> None:
    tower = ModelTower(a_chain(2), (SatelliteBlowup("v1", "v2"),))
    doc = invariance_report(tower).to_doc()
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert all(check["passed"] for check in doc["checks"])


def test_random_tower_blows_up_each_step_once(monkeypatch) -> None:
    # each step is drawn inside the tower's own loop against the model it
    # applies to: one blowup per step, and the same tower and rng state as
    # drawing every step against a running model first
    from singvol import randgen
    from singvol import tower as tower_module

    calls = []
    real = tower_module.blow_up

    def counting(graph, step):
        calls.append(step)
        return real(graph, step)

    for seed in range(30):
        rng, replay = Random(seed), Random(seed)
        base = random_graph(rng, 6)
        random_graph(replay, 6)
        steps, current = [], base
        for _ in range(replay.randint(1, 3)):
            steps.append(random_step(replay, current))
            current = real(current, steps[-1])
        for module in (tower_module, randgen):
            monkeypatch.setattr(module, "blow_up", counting)
        calls.clear()
        tower = random_tower(rng, base)
        monkeypatch.undo()
        assert calls == steps
        assert tower_to_doc(tower) == tower_to_doc(ModelTower(base, tuple(steps)))
        assert tower.top == current and rng.getstate() == replay.getstate()
