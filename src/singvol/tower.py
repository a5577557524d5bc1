r"""Blowups of resolution models and the invariants they preserve.

A blowup inserts one new (-1)-vertex into a graph:

* free blowup at a smooth point of ``E_i``: the new vertex meets ``E_i``
  once and ``E_i``'s self-intersection drops by one;
* satellite blowup at a node ``E_i \cap E_j``: the new vertex meets both,
  the chosen edge record loses one unit of multiplicity (and disappears at
  zero), and both self-intersections drop by one.

Total-transform pullback adds a new coefficient (``d_i``, or ``d_i + d_j``
for a satellite) and leaves the old ones alone; pushforward drops it, so
``pushforward(pullback(D)) = D``. The canonical pullback transforms as
``B' = pullback(B) - E_new``, volumes are constant along a tower, and the
nef part of the envelope pulls back on the nose. ``invariance_report``
recomputes both sides of each of these from scratch at every level and
reports any mismatch as a structured counterexample.

The tower document codec lives here too (:func:`tower_from_doc`,
:func:`tower_to_doc`), so reading graphs never loads this module.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from . import io as sio
from .envelope import VolumeReport, nef_envelope_trace, volume
from .errors import DomainError, MalformedInputError
from .graph import MAX_GRAPH_VERTICES, Edge, ExcDivisor, ResolutionGraph, Vertex, graph_from_doc
from .lattice import rat_str, ratio_str
from .record import Record, lazy


class FreeBlowup(Record):
    """Blow up a smooth point of the curve ``vertex``."""

    __slots__ = _fields = ("vertex",)

    @property
    def center(self) -> tuple[str, ...]:  # the curves through the blown-up point
        return (self.vertex,)


class SatelliteBlowup(Record):
    """Blow up a node of ``i`` and ``j``; ``edge`` picks among parallel
    edge records joining them (in edge-list order)."""

    __slots__ = _fields = ("i", "j", "edge")
    _defaults = (0,)

    @property
    def center(self) -> tuple[str, ...]:
        return (self.i, self.j)


# Not ``typing.Union``, whose cache would keep each import's package alive.
BlowupStep = FreeBlowup | SatelliteBlowup

# The most steps in a tower. Every level is solved and rendered, so the
# report grows with steps x top-model size: 50 free blowups took 0.2-0.4 s on a
# 4-vertex chain and 0.4-0.8 s (13 MB) on a 650-vertex one, 100 took 0.2 s and
# 0.8-1.3 s on 4 and 600 vertices, 500 3.4-4.1 s on 4 (2-vCPU, Python 3.11.7).
MAX_TOWER_STEPS = 50


def fresh_vertex_id(graph: ResolutionGraph) -> str:
    used = set(graph.ids)
    n = 1
    while f"b{n}" in used:
        n += 1
    return f"b{n}"


def blow_up(graph: ResolutionGraph, step: BlowupStep) -> ResolutionGraph:
    """Apply one blowup; the new vertex, named by :func:`fresh_vertex_id`,
    is appended last."""
    nid = fresh_vertex_id(graph)
    consumed = -1  # the index of the edge record a satellite blowup uses up
    if isinstance(step, SatelliteBlowup):
        if step.i == step.j:
            raise MalformedInputError("satellite blowup needs two distinct vertices")
        ij_edges = [k for k, e in enumerate(graph.edges) if e.joins(step.i, step.j)]
        if not ij_edges:
            raise MalformedInputError(f"no edge joins {step.i!r} and {step.j!r}",
                                      reason="missing-edge")
        if not 0 <= step.edge < len(ij_edges):
            raise MalformedInputError(
                f"edge index {step.edge} out of range: {len(ij_edges)} edge(s) "
                f"join {step.i!r} and {step.j!r}"
            )
        consumed = ij_edges[step.edge]
    elif not isinstance(step, FreeBlowup):
        raise MalformedInputError(f"unknown blowup step {step!r}")
    center = step.center
    touched = {graph.index(v) for v in center}
    vertices = tuple(
        Vertex(v.id, v.self_int - 1, v.genus) if k in touched else v
        for k, v in enumerate(graph.vertices)
    ) + (Vertex(nid, -1, 0),)
    edges = tuple(
        Edge(e.i, e.j, e.mult - 1) if k == consumed else e
        for k, e in enumerate(graph.edges)
        if not (k == consumed and e.mult == 1)
    ) + tuple(Edge(v, nid, 1) for v in center)
    return ResolutionGraph(vertices, edges)


def pushforward(divisor: ExcDivisor, parent: ResolutionGraph) -> ExcDivisor:
    """Forget the coefficients on vertices absent from ``parent``."""
    child = divisor.graph
    extra = set(child.ids) - set(parent.ids)
    if set(parent.ids) - set(child.ids):
        raise MalformedInputError("parent graph has vertices the child lacks")
    if not extra and parent.ids != child.ids:
        raise MalformedInputError("graphs share all vertices but disagree on order")
    den, nums = divisor.ints
    return ExcDivisor.from_ints(parent, den, [nums[child.index(i)] for i in parent.ids])


class ModelTower:
    """A base graph with a finite sequence of blowup steps.

    ``models[t]`` is the graph after ``t`` steps; the vertex step ``t``
    creates is the last one of ``models[t + 1]``. Construction applies every
    step, so a tower that exists is structurally valid at every level. An
    item of ``steps`` may also be a callable that draws the step from the
    model it applies to, so a random tower is built in the same one pass.
    """

    def __init__(self, base: ResolutionGraph,
                 steps: Sequence[BlowupStep | Callable[[ResolutionGraph], BlowupStep]]) -> None:
        # each step adds one vertex, so the sizes are known before any blowup
        if len(steps) > MAX_TOWER_STEPS:
            raise DomainError(f"tower has {len(steps)} steps, above the limit of "
                              f"{MAX_TOWER_STEPS}", reason="too-large")
        top = len(base.vertices) + len(steps)
        if top > MAX_GRAPH_VERTICES:
            raise DomainError(f"tower's top model would have {top} vertices, above the "
                              f"limit of {MAX_GRAPH_VERTICES}", reason="too-large")
        models, applied = [base], []
        for step in steps:
            if callable(step):
                step = step(models[-1])
            applied.append(step)
            models.append(blow_up(models[-1], step))
        self.steps = tuple(applied)
        self.models = tuple(models)

    @property
    def top(self) -> ResolutionGraph:
        return self.models[-1]

    def pullback(self, t: int, divisor: ExcDivisor) -> ExcDivisor:
        """Total transform of a divisor on ``models[t]`` under step ``t``.

        Old coefficients are unchanged; the new vertex receives the
        multiplicity of the divisor at the blown-up point.
        """
        if not 0 <= t < len(self.steps) or divisor.graph != self.models[t]:
            raise MalformedInputError(f"divisor does not live on level {t} of the tower")
        g, step = self.models[t], self.steps[t]
        den, nums = divisor.ints
        new = sum(nums[g.index(v)] for v in step.center)
        return ExcDivisor.from_ints(self.models[t + 1], den, (*nums, new))

    @lazy
    def volumes(self) -> tuple[VolumeReport, ...]:
        """``volume(models[t])`` for every level, computed once."""
        return tuple(volume(g) for g in self.models)


class InvarianceCheck(Record):
    __slots__ = _fields = ("level", "name", "passed", "lhs", "rhs")

    def to_doc(self) -> dict:
        return {
            "level": self.level,
            "name": self.name,
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class InvarianceReport(Record):
    __slots__ = _fields = ("ok", "checks")

    def failures(self) -> tuple[InvarianceCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [c.to_doc() for c in self.checks],
            "failures": [c.to_doc() for c in self.failures()],
        }


def invariance_report(tower: ModelTower) -> InvarianceReport:
    """Recompute every transformation law on every level of the tower.

    Checks per step: volume constancy, exact pullback of the nef part
    (with the one-sided inequality reported separately), the canonical
    transform ``B' = pullback(B) - E_new`` against an independent
    adjunction solve upstairs, the new-coefficient rule, nonnegativity of
    ``A' - pullback(A)``, pushforward/pullback round trip, and |det M|
    preservation. A final whole-tower check composes the canonical
    transform across all steps at once.
    """
    checks: list[InvarianceCheck] = []

    def record(level: int, name: str, passed: bool, lhs, rhs) -> None:
        checks.append(InvarianceCheck(level, name, passed, lhs, rhs))

    for t, step in enumerate(tower.steps):
        g, g2 = tower.models[t], tower.models[t + 1]
        nid = g2.vertices[-1].id

        vol, vol2 = tower.volumes[t], tower.volumes[t + 1]
        record(t, "volume-constant", vol2.volume == vol.volume,
               rat_str(vol.volume), rat_str(vol2.volume))

        p_up = tower.pullback(t, vol.decomposition.p)
        p2 = vol2.decomposition.p
        p2_doc, p_up_doc = p2.to_doc(), p_up.to_doc()
        record(t, "nef-part-pulls-back", p2.ints == p_up.ints, p2_doc, p_up_doc)
        record(t, "nef-part-bounded-by-pullback", p2.leq(p_up), p2_doc, p_up_doc)

        b = g.mumford_pullback_canonical()
        b2 = g2.mumford_pullback_canonical()
        e_new = g2.basis_divisor(nid)
        b_up = tower.pullback(t, b)
        transformed = b_up - e_new
        record(t, "canonical-transform", b2.ints == transformed.ints,
               b2.to_doc(), transformed.to_doc())
        (den, nums), (den2, nums2) = b.ints, b2.ints
        expected = sum(nums[g.index(v)] for v in step.center) - den
        record(t, "new-vertex-coefficient", nums2[-1] * den == expected * den2,
               ratio_str(nums2[-1], den2), ratio_str(expected, den))

        a = g.discrepancy_report().ell
        a2 = g2.discrepancy_report().ell
        gap = a2 - tower.pullback(t, a)
        record(t, "discrepancy-gap-nonnegative", min(gap.ints[1]) >= 0,
               gap.to_doc(), "0")

        roundtrip = pushforward(b_up, g)
        record(t, "pushforward-pullback-identity", roundtrip.ints == b.ints,
               roundtrip.to_doc(), b.to_doc())

        det, det2 = g.intersection_form.det(), g2.intersection_form.det()
        record(t, "det-magnitude-preserved", abs(det) == abs(det2),
               rat_str(abs(det)), rat_str(abs(det2)))

    if tower.steps:
        running = tower.models[0].mumford_pullback_canonical()
        for t in range(len(tower.steps)):
            g2 = tower.models[t + 1]
            running = tower.pullback(t, running) - g2.basis_divisor(g2.vertices[-1].id)
        top_b = tower.top.mumford_pullback_canonical()
        record(len(tower.steps) - 1, "composed-canonical-transform",
               running.ints == top_b.ints, running.to_doc(), top_b.to_doc())

    return InvarianceReport(ok=all(c.passed for c in checks), checks=tuple(checks))


def envelope_pullback_check(tower: ModelTower, a: ExcDivisor) -> bool:
    """One-off check that the envelope of a given ``A`` pulls back exactly
    along the whole tower (used by the randomized suites)."""
    current, p = a, nef_envelope_trace(tower.models[0], a).p
    for t in range(len(tower.steps)):
        current = tower.pullback(t, current)
        p = tower.pullback(t, p)
    # The pulled-back A is generally not the log-discrepancy divisor of the
    # top model, but its envelope must still be the pulled-back nef part.
    top_dec = nef_envelope_trace(tower.top, current)
    return top_dec.p.ints == p.ints


# -- tower documents ------------------------------------------------------------


def tower_from_doc(doc: Any) -> ModelTower:
    doc = sio.take(doc, "tower", ("base", "steps"))
    base = graph_from_doc(doc["base"])
    if not isinstance(doc["steps"], list):
        raise MalformedInputError("tower steps must be a list")
    steps = []
    for s in doc["steps"]:
        s = sio.require_mapping(s, "step")
        kind = s.get("kind")
        if kind == "free":
            s = sio.take(s, "free step", ("kind", "i"))
            if not isinstance(s["i"], str):
                raise MalformedInputError("free step needs a vertex id string")
            steps.append(FreeBlowup(s["i"]))
        elif kind == "satellite":
            s = sio.take(s, "satellite step", ("kind", "i", "j"), ("edge",))
            if not isinstance(s["i"], str) or not isinstance(s["j"], str):
                raise MalformedInputError("satellite step needs two vertex id strings")
            steps.append(SatelliteBlowup(s["i"], s["j"], sio.require_int(s.get("edge", 0), "edge")))
        else:
            raise MalformedInputError(f"unknown step kind {kind!r}")
    return ModelTower(base, tuple(steps))


def tower_to_doc(tower: ModelTower) -> dict:
    steps = []
    for s in tower.steps:
        if isinstance(s, FreeBlowup):
            steps.append({"kind": "free", "i": s.vertex})
        else:
            steps.append({"kind": "satellite", "i": s.i, "j": s.j, "edge": s.edge})
    return {"base": tower.models[0].to_doc(), "steps": steps}


# Bound into ``io`` when this module loads: perfbench's tracer wraps
# ``io.tower_from_doc``, and its workloads call ``io.tower_to_doc``.
sio.tower_from_doc, sio.tower_to_doc = tower_from_doc, tower_to_doc
