#!/usr/bin/env python3
"""Benchmark for singvol: four seeded workloads, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large-graphs --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run is a closed loop with one client: it runs the
workload's pool of items, one after another, in whole cycles for
``--seconds``, and reports the end-to-end metrics. With ``--trace 1`` it runs
whole cycles too, each item once untraced and once with every traced function
wrapped (in alternating order), and reports the per-layer metrics per cycle.
Outputs are checked on every item; at the default seed they must also match
the digests stored in ``expected.json``.

The second-to-last stdout line is a report (input sizes, digests, tail
percentile, sample counts, environment); the last line is the result object.
Exit status: 0 all items correct, 1 some item failed, 2 the program could not
be set up (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import types

import reference
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
STARTUP_ARGV = ["-m", "singvol", "catalog", "list"]
EXTRA_ROUNDS = 12
HARD_LIMIT_S = 150.0
MODULES = ("lattice", "graph", "envelope", "tower", "randgen", "cone", "catalog", "io", "cli")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "startup_ms.p50": "ms",
}

PER_LAYER_NAMES = (
    "lattice.minors.calls", "lattice.minors.self_s",
    "lattice.solve.calls", "lattice.solve.rows", "lattice.solve.self_s",
    "lattice.apply.calls", "lattice.apply.self_s", "lattice.det.calls",
    "graph.construct.calls", "graph.construct.rejected", "graph.construct.self_s",
    "graph.canonical.calls", "graph.canonical.self_s", "graph.canonical.per_graph",
    "envelope.trace.calls", "envelope.trace.self_s", "envelope.trace.solves_per_call",
    "envelope.trace.solve_rows_per_call",
    "envelope.oracle.calls", "envelope.oracle.self_s", "envelope.oracle.solves_per_call",
    "envelope.volume.calls", "envelope.volume.self_s",
    "tower.blow_up.calls", "tower.blow_up.self_s", "tower.blow_up.per_step",
    "tower.invariance.calls", "tower.invariance.self_s",
    "tower.invariance.volume_calls_per_model", "tower.invariance.canonical_calls_per_model",
    "tower.pullback_check.self_s", "randgen.graph.self_s", "randgen.tower.self_s",
    "cone.construct.self_s", "cone.facets.self_s", "cone.facets.count",
    "cone.contains.calls", "cone.contains.self_s", "cone.valuation.calls",
    "cone.valuation.self_s", "cone.lc_verdict.self_s", "cone.table.self_s",
    "cone.dcc_scan.self_s",
    "io.load_json.self_s", "io.from_doc.self_s", "io.to_json.self_s", "io.to_json.bytes",
    "io.digest.self_s", "cli.main.self_s", "cli.interpreter_ms", "cli.import_ms",
    "cli.startup_share", "trace.overhead_frac",
    *(f"{layer}.self_s" for layer in tracing.LAYERS),
    "trace.unspanned_s", "trace.wall_s",
)


def layer_unit(name: str) -> str:
    """Per-layer values are per cycle of the workload's pool."""
    last = name.rsplit(".", 1)[1]
    if last.startswith("per_") or last.endswith("_per_call") or last.endswith("_per_model") \
            or last in ("startup_share", "overhead_frac"):
        return "ratio"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s/cycle"
    if last == "bytes":
        return "bytes/cycle"
    return "count/cycle"


PER_LAYER = {name: layer_unit(name) for name in PER_LAYER_NAMES}


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


def import_singvol() -> types.SimpleNamespace:
    """Import singvol afresh from this checkout's ``src``.

    Earlier imports are dropped first, so each call pays the package's own
    import cost again (the standard library stays loaded).
    """
    if not os.path.isfile(os.path.join(SRC, "singvol", "__init__.py")):
        raise SetupError(f"no singvol package in {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "singvol" or n.startswith("singvol.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("singvol")
    except ImportError as exc:
        raise SetupError(f"cannot import singvol: {exc}") from exc
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "singvol"):
        raise SetupError(f"imported singvol from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=package, **{m: importlib.import_module(f"singvol.{m}") for m in MODULES})


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Outputs:
    """Checks item outputs: the same item must give the same bytes every time
    it runs, and, where stored digests exist, the stored bytes."""

    def __init__(self, size: int, expected: dict | None) -> None:
        self.size = size
        self.expected = expected["items"] if expected else []
        self.seen: dict[int, str] = {}
        self.failures: list[str] = []
        self.max_bits = 0

    def check(self, key: int, out: bytes | None, error: str | None = None,
              bits: bool = False) -> bool:
        if out is None:
            return self.fail(key, error or "no output")
        d = digest(out)
        if key not in self.seen:
            self.seen[key] = d
            if bits:
                self.max_bits = max([self.max_bits] + [
                    int(run).bit_length() for run in re.findall(rb"\d+", out)])
        elif self.seen[key] != d:
            return self.fail(key, "output differs from an earlier run of the same item")
        if key < len(self.expected) and self.expected[key] != d:
            return self.fail(key, f"output digest {d} differs from the stored "
                                   f"{self.expected[key]}")
        return True

    def fail(self, key: int, message: str) -> bool:
        self.failures.append(f"item {key}: {message}")
        return False

    def workload_digest(self) -> str | None:
        """Digest of the pool's outputs, or None if the first cycle did not finish."""
        if any(k not in self.seen for k in range(self.size)):
            return None
        return digest("".join(self.seen[k] for k in range(self.size)).encode("ascii"))


def run_one(fn, sv, item) -> tuple[bytes | None, str | None, float]:
    start = time.perf_counter()
    try:
        out, error = fn(sv, item), None
    except Exception as exc:  # an item failing must not stop the run: count it
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 values beyond it, and which
    percentile that is (the maximum when there are fewer than 11 values)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def process_times(argv: list[str], n: int) -> list[tuple[float, float]]:
    """``n`` runs of a Python process: (start, wall seconds) of each."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                       timeout=60, check=True)
        times.append((start, time.perf_counter() - start))
    return times


def measure(wl, sv, inputs, seconds: float, outputs: Outputs, deadline: float,
            before) -> dict:
    """Closed loop, one client: the pool's items back to back, in whole
    cycles, while one more cycle still fits in ``seconds``. ``before(t)``
    runs before each item, ``t`` seconds into the loop. Returns (start,
    seconds) of every item run, by pool position, and the peak resident set
    (of this process, or for ``cli`` of its largest child) after the first
    cycle, which is the same work in every run."""
    size = wl.size(inputs)
    items = wl.items(inputs)
    times: list[list[tuple[float, float]]] = [[] for _ in range(size)]
    cycles = failed = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for key in range(size):
            before(time.perf_counter() - start)
            item_start = time.perf_counter()
            out, error, dt = run_one(wl.run_item, sv, next(items))
            times[key].append((item_start, dt))
            failed += not outputs.check(key, out, error, bits=wl.name != "cli")
        cycles += 1
        if cycles == 1:
            rss_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF).ru_maxrss
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds or now > deadline:
            break
    return {"times": times, "cycles": cycles, "attempted": cycles * size,
            "elapsed": now - start, "failed": failed, "rss_kb": rss_kb}


def measure_traced(wl, sv, inputs, seconds: float, outputs: Outputs, deadline: float) -> dict:
    """Whole cycles of the pool; each item untraced and traced, compared."""
    tr = tracing.Tracer(sv)
    size = wl.size(inputs)
    is_cli = wl.name == "cli"
    run = wl.replay_item if is_cli else wl.run_item
    plain_s = traced_s = process_s = 0.0
    cycles = failed = attempted = 0
    a80_items = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        plain_items, traced_items = wl.items(inputs), wl.items(inputs)
        for key in range(size):
            item, twin = next(plain_items), next(traced_items)
            attempted += 1
            outs = []
            if is_cli:
                out, error, dt = run_one(wl.run_item, sv, item)
                process_s += dt
                outs.append(out)
                ok = outputs.check(key, out, error)
            else:
                ok = True
            for traced in ((False, True) if (key + cycles) % 2 == 0 else (True, False)):
                if traced:
                    tr.current_item = attempted - 1
                    tr.install()
                    try:
                        out, error, dt = run_one(run, sv, twin)
                    finally:
                        tr.uninstall()
                    traced_s += dt
                else:
                    out, error, dt = run_one(run, sv, item)
                    plain_s += dt
                outs.append(out)
                ok = outputs.check(key, out, error) and ok
            if len(set(outs)) != 1:
                ok = outputs.fail(key, "traced and untraced outputs differ")
            failed += not ok
            if wl.name == "large-graphs" and key == 0:
                a80_items.append(attempted - 1)
        cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds or now > deadline:
            break
    return {"tracer": tr, "cycles": cycles, "plain_s": plain_s, "traced_s": traced_s,
            "process_s": process_s, "attempted": attempted, "failed": failed,
            "elapsed": now - start, "a80_items": a80_items}


def layer_metrics(m: dict, cli_probe: dict) -> dict:
    """Per-layer metrics, per cycle of the pool, from the recorded spans."""
    summary = m["tracer"].summary()
    by = summary["by_name"]
    cycles = m["cycles"]

    def calls(name):
        return by[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    def inside(context, name, field=0):
        return summary["inside"].get((context, name), [0, 0])[field]

    values = {}
    for name, s in by.items():
        values[f"{name}.calls"] = s["calls"] / cycles
        values[f"{name}.self_s"] = s["self_ns"] / 1e9 / cycles
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_ns"] for n, s in by.items() if n.split(".")[0] == layer) / 1e9 / cycles
    built = calls("graph.construct") - by["graph.construct"]["failed"]
    models = by["tower.invariance"]["amount"]
    wall_ns = m["traced_s"] * 1e9
    values.update({
        "lattice.solve.rows": by["lattice.solve"]["amount"] / cycles,
        "graph.construct.rejected": by["graph.construct"]["failed"] / cycles,
        "graph.canonical.per_graph": ratio(calls("graph.canonical"), built),
        "envelope.trace.solves_per_call":
            ratio(inside("envelope.trace", "lattice.solve"), calls("envelope.trace")),
        "envelope.trace.solve_rows_per_call":
            ratio(inside("envelope.trace", "lattice.solve", 1), calls("envelope.trace")),
        "envelope.oracle.solves_per_call":
            ratio(inside("envelope.oracle", "lattice.solve"), calls("envelope.oracle")),
        "tower.blow_up.per_step": ratio(calls("tower.blow_up"), by["tower.model"]["amount"]),
        "tower.invariance.volume_calls_per_model":
            ratio(inside("tower.invariance", "envelope.volume"), models),
        "tower.invariance.canonical_calls_per_model":
            ratio(inside("tower.invariance", "graph.canonical"), models),
        "cone.facets.count": by["cone.facets"]["amount"] / cycles,
        "io.to_json.bytes": by["io.to_json"]["amount"] / cycles,
        "cli.startup_share": 1 - ratio(m["plain_s"], m["process_s"]) if m["process_s"] else 0.0,
        "trace.overhead_frac": ratio(m["traced_s"], m["plain_s"]) - 1,
        "trace.wall_s": wall_ns / 1e9 / cycles,
        "trace.unspanned_s": (wall_ns - summary["root_ns"]) / 1e9 / cycles,
        **cli_probe,
    })
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def source_state() -> dict:
    files = sorted(f for f in os.listdir(os.path.join(SRC, "singvol")) if f.endswith(".py"))
    h = hashlib.sha256()
    for f in files:
        with open(os.path.join(SRC, "singvol", f), "rb") as fh:
            h.update(f.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def load_expected(workload: str) -> dict | None:
    if not os.path.isfile(EXPECTED):
        return None
    with open(EXPECTED, encoding="ascii") as fh:
        return json.load(fh).get(workload)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        expected: dict | None | str = "stored") -> tuple[dict, dict, Outputs]:
    """One benchmark run; returns the result object, the report and the
    checked outputs."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    if expected == "stored":
        expected = load_expected(workload) if seed == DEFAULT_SEED and not tiny else None
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        setups = []
        speed = reference.Speed()
        speed.sample()

        def set_up():
            start = time.perf_counter()
            sv = import_singvol()
            wl = workloads.make(workload, ROOT)
            inputs = wl.generate(seed, tiny, os.path.join(OUT, f"{workload}-inputs"))
            setups.append((start, time.perf_counter() - start))
            return sv, wl, inputs

        for _ in range(SETUP_REPEATS):
            sv, wl, inputs = set_up()
        outputs = Outputs(wl.size(inputs), expected)
        report = {
            "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
            "tiny": tiny, "python": platform.python_version(), "nproc": os.cpu_count(),
            **source_state(), "inputs": wl.describe(inputs),
        }
        if trace:
            result = _traced(wl, sv, inputs, seconds, outputs, deadline, workload, seed, tiny,
                             report)
        else:
            result = _untraced(wl, sv, inputs, seconds, outputs, deadline, set_up, setups,
                               speed, report)
    finally:
        os.chdir(cwd)
    report.update({
        "digest": outputs.workload_digest(),
        "expected_digest": expected["digest"] if expected else None,
        "fail_frac": result["failed"] / result["attempted"],
        "failures": outputs.failures[:5],
    })
    result["correct"] = result["failed"] == 0 and report["digest"] is not None and (
        expected is None or report["digest"] == expected["digest"])
    return result, report, outputs


def _untraced(wl, sv, inputs, seconds, outputs, deadline, set_up, setups, speed,
              report) -> dict:
    """End-to-end metrics. Every duration is first brought to the speed of
    the machine at rest (``reference.Speed.corrected``), by the in-process
    reference for work in this process and by interpreter start-up for child
    processes (the ``cli`` items and start-up probes). Each pool item's time
    is then the median of its runs in this run (it ran once per cycle);
    throughput, median and tail are taken over those per-item times. Set-up,
    and outside ``cli`` one ``catalog list`` process, are repeated at
    ``EXTRA_ROUNDS`` evenly spaced times through the loop, so their medians
    cover the whole run, not only its first moments."""
    is_cli = wl.name == "cli"
    processes = reference.Speed.of_processes()
    probes: list[tuple[float, float]] = []
    rounds: list[float] = []

    def before(elapsed: float) -> None:
        speed.maybe_sample()
        if is_cli:
            processes.maybe_sample()
        if elapsed >= len(rounds) * seconds / EXTRA_ROUNDS:
            rounds.append(elapsed)
            set_up()  # timed into ``setups``; the loop keeps using its own modules
            if not is_cli:
                processes.sample()
                probes.extend(process_times(STARTUP_ARGV, 1))
                processes.sample()

    m = measure(wl, sv, inputs, seconds, outputs, deadline, before)
    speed.sample()
    processes.sample()

    def per_position(runs: list[list[tuple[float, float]]], fix) -> list[float]:
        return [statistics.median(fix(start, dt) for start, dt in ts) for ts in runs]

    item_speed = processes if is_cli else speed
    item_s, raw = (per_position(m["times"], fix)
                   for fix in (item_speed.corrected, lambda _, dt: dt))
    if is_cli:
        probes = [run for item, ts in zip(inputs, m["times"])
                  if ["-m", "singvol", *item["argv"]] == STARTUP_ARGV for run in ts]
    startup = [processes.corrected(start, dt) for start, dt in probes]
    tail_s, tail_pct = tail(item_s)
    metrics = {
        "setup_s": statistics.median(speed.corrected(start, dt) for start, dt in setups),
        "items_per_s": len(item_s) / sum(item_s),
        "item_ms.p50": statistics.median(item_s) * 1e3,
        "item_ms.tail": tail_s * 1e3,
        "peak_rss_mb": m["rss_kb"] / 1024,
        "startup_ms.p50": statistics.median(startup) * 1e3,
    }
    factors = {name: [dt / s.nominal_s for dt in s.dt]
               for name, s in (("python", speed), ("processes", processes))}
    report.update({
        "items": m["attempted"], "cycles": m["cycles"], "elapsed_s": m["elapsed"],
        "tail_percentile": tail_pct,
        "samples": {"setup_s": len(setups), "item_ms": len(item_s),
                    "startup_ms": len(startup),
                    "reference": {name: len(f) for name, f in factors.items()}},
        "speed_factor": {name: {"median": statistics.median(f), "min": min(f), "max": max(f)}
                         for name, f in factors.items()},
        "uncorrected": {
            "setup_s": statistics.median(dt for _, dt in setups),
            "items_per_s": len(raw) / sum(raw),
            "item_ms.p50": statistics.median(raw) * 1e3,
            "item_ms.tail": tail(raw)[0] * 1e3,
            "startup_ms.p50": statistics.median(dt for _, dt in probes) * 1e3,
        },
        "max_output_bits": outputs.max_bits,
    })
    if wl.name == "large-graphs":
        report["roadmap"] = {"A80_item_ms": item_s[0] * 1e3}
    if wl.name == "random-suite":
        # 100 cases at 8 vertices: at most the cost of the CLI's 100 cases
        # at up to 8 vertices.
        report["roadmap"] = {"cases_100_at_8_vertices_s": sum(item_s)}
    return {"correct": False, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def _traced(wl, sv, inputs, seconds, outputs, deadline, workload, seed, tiny, report) -> dict:
    m = measure_traced(wl, sv, inputs, seconds, outputs, deadline)
    cli_probe = {}
    if wl.name == "cli":
        n = 1 if tiny else 7
        bare = statistics.median(dt for _, dt in process_times(["-c", "pass"], n))
        imported = statistics.median(dt for _, dt in process_times(["-c", "import singvol"], n))
        cli_probe = {"cli.interpreter_ms": bare * 1e3, "cli.import_ms": (imported - bare) * 1e3}
    metrics = layer_metrics(m, cli_probe)
    tr = m["tracer"]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json.gz")
    tr.write(spans_path)
    report.update({"cycles": m["cycles"], "items": m["attempted"], "elapsed_s": m["elapsed"],
                   "spans": len(tr.name), "spans_file": os.path.relpath(spans_path, ROOT)})
    if m["a80_items"]:
        report["roadmap"] = {
            f"A80_{name}_s": tr.inclusive_s(set(m["a80_items"]), name) / len(m["a80_items"])
            for name in ("graph.construct", "envelope.volume")}
    return {"correct": False, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}}


def record(workload: str, seconds: float) -> dict:
    """Run at the default seed and store its output digests in expected.json."""
    result, report, outputs = run(workload, DEFAULT_SEED, seconds, False, expected=None)
    if not result["correct"]:
        raise SystemExit(f"not recording: {report['failures']}")
    seen = [outputs.seen[k] for k in range(outputs.size)]
    stored = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED, encoding="ascii") as fh:
            stored = json.load(fh)
    stored[workload] = {"seed": DEFAULT_SEED, "digest": report["digest"], "items": seen}
    with open(EXPECTED, "w", encoding="ascii") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return stored[workload]


def main(argv: list[str] | None = None) -> int:
    # One CPU for this process and its children, so the speed references
    # and the work they correct run on the same vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as the default seed's")
    args = parser.parse_args(argv)
    try:
        if args.record:
            print(json.dumps(record(args.workload, args.seconds)["digest"]))
            return 0
        result, report, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in report["failures"]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
