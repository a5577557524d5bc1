"""The benchmark's tracer still sees the graph, envelope and cone work.

``perfbench/tracer.py`` wraps singvol's functions by name. A deleted target
makes the benchmark exit with a ``LookupError``; a target that still exists
but is no longer on the call path makes its spans read 0. These tests catch
both by tracing one volume computation and one cone.
"""

import importlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module() -> dict:
    # exec rather than import, so no bytecode cache is written into perfbench/
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    return tracer


def _traced(run):
    """Run ``run(modules)`` under a tracer; return its result and the tracer."""
    tracer = _tracer_module()
    modules = SimpleNamespace(**{
        name: importlib.import_module(f"singvol.{name}")
        for name in {target[0] for target in tracer["TARGETS"]}
    })
    tr = tracer["Tracer"](modules)  # raises LookupError on a missing target
    tr.install()
    try:
        return run(modules), tr
    finally:
        tr.uninstall()


def test_tracer_records_every_graph_and_envelope_span_of_a_volume() -> None:
    catalog = importlib.import_module("singvol.catalog")

    def run(modules):
        graph = catalog.graph_by_name("cone-g2-d1")
        report = modules.envelope.volume(graph)
        modules.envelope.zariski_oracle(graph, graph.discrepancy_report().ell)
        return report

    report, tr = _traced(run)
    assert report.volume > 0
    by = tr.summary()["by_name"]
    spans = [n for n in tr.names if n.startswith(("graph.", "envelope."))]
    assert spans == ["envelope.oracle", "envelope.trace", "envelope.volume",
                     "graph.canonical", "graph.construct"]
    assert all(by[n]["calls"] >= 1 for n in spans), {n: by[n]["calls"] for n in spans}
    assert by["graph.canonical"]["calls"] == 1


def test_tracer_records_every_cone_span_of_a_cone_item() -> None:
    # the steps of one benchmark cone: construct, lc verdict, bound table and
    # valuations, on a basis-3 cone over eight points of the moment curve
    def run(modules):
        lat, cone = modules.lattice, modules.cone
        gens = [lat.QVector([1, t, t * t]) for t in range(-4, 4)]
        h = lat.QVector([sum(col) for col in zip(*gens)])
        pc = cone.PolarizedCone(
            dim_x=3, basis=["e0", "e1", "e2"],
            form=lat.SymForm([[100, 0, 0], [0, -1, 0], [0, 0, -1]]), nef_gens=[h],
            pseff_gens=gens, k_class=-(h + gens[0]), h_class=h,
        )
        verdict = cone.lc_boundary_exists(pc)
        cone.vol_plus_table(pc, [1, Fraction(1, 2)])
        values = [cone.natural_valuation(pc, gens[0], k) for k in (1, 2, 5)]
        return pc, verdict, values

    (pc, verdict, values), tr = _traced(run)
    assert len(pc.facet_normals) == 8
    assert verdict.exists is None and values == [1, 1, 3]  # ceil(5k/12)
    by = tr.summary()["by_name"]
    spans = ["cone.construct", "cone.contains", "cone.facets", "cone.lc_verdict",
             "cone.table", "cone.valuation"]
    assert all(by[n]["calls"] >= 1 for n in spans), {n: by[n]["calls"] for n in spans}
    assert by["cone.facets"]["calls"] == 1
    assert by["cone.facets"]["amount"] == 8


def test_oracle_runs_no_production_solve() -> None:
    # the oracle keeps its own elimination, so the trace's solves and the
    # oracle share no code; the benchmark counts solves by enclosing span.
    # The trace borders one factor of its own instead of calling SymForm.solve,
    # so neither span reads a lattice.solve
    catalog = importlib.import_module("singvol.catalog")

    def run(modules):
        graph = catalog.graph_by_name("E8")
        a = graph.discrepancy_report().ell - graph.divisor(graph.basis_divisor("v4").coeffs.scale(3))
        trace = modules.envelope.nef_envelope_trace(graph, a)
        return trace, modules.envelope.zariski_oracle(graph, a)

    (trace, oracle), tr = _traced(run)
    assert trace == oracle and oracle.active and any(oracle.p.coeffs)
    summary = tr.summary()
    assert summary["by_name"]["envelope.oracle"]["calls"] == 1
    assert ("envelope.trace", "lattice.solve") not in summary["inside"]
    assert ("envelope.oracle", "lattice.solve") not in summary["inside"]


def test_invariance_report_computes_no_leading_minors() -> None:
    # the |det M| check reads each level's cached leaf-first pass; the
    # leading minors lie on no production path
    catalog = importlib.import_module("singvol.catalog")

    def run(modules):
        tower = modules.tower
        steps = (tower.FreeBlowup("f1"), tower.SatelliteBlowup("f1", "b1"))
        return tower.invariance_report(tower.ModelTower(catalog.graph_by_name("D5"), steps))

    report, tr = _traced(run)
    assert report.ok
    inside = tr.summary()["inside"]
    assert inside[("tower.invariance", "lattice.det")][0] == 4  # two per step
    assert ("tower.invariance", "lattice.minors") not in inside
