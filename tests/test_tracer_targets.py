"""The benchmark's tracer still sees the graph and envelope work.

``perfbench/tracer.py`` wraps singvol's functions by name. A deleted target
makes the benchmark exit with a ``LookupError``; a target that still exists
but is no longer on the call path makes its spans read 0. This test catches
both by tracing one volume computation.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module() -> dict:
    # exec rather than import, so no bytecode cache is written into perfbench/
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    return tracer


def test_tracer_records_every_graph_and_envelope_span_of_a_volume() -> None:
    tracer = _tracer_module()
    modules = SimpleNamespace(**{
        name: importlib.import_module(f"singvol.{name}")
        for name in {target[0] for target in tracer["TARGETS"]}
    })
    catalog = importlib.import_module("singvol.catalog")
    tr = tracer["Tracer"](modules)  # raises LookupError on a missing target
    tr.install()
    try:
        graph = catalog.graph_by_name("cone-g2-d1")
        report = modules.envelope.volume(graph)
        modules.envelope.zariski_oracle(graph, graph.log_discrepancy_divisor())
    finally:
        tr.uninstall()
    assert report.volume > 0
    by = tr.summary()["by_name"]
    spans = [n for n in tr.names if n.startswith(("graph.", "envelope."))]
    assert spans == ["envelope.oracle", "envelope.trace", "envelope.volume",
                     "graph.canonical", "graph.construct"]
    assert all(by[n]["calls"] >= 1 for n in spans), {n: by[n]["calls"] for n in spans}
    assert by["graph.canonical"]["calls"] == 1
