"""Self-tests of the benchmark at tiny sizes.

Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
import tracer
import workloads


def tiny(workload: str, seed: int = 0, trace: bool = False, expected=None):
    return run.run(workload, seed, 0, trace, tiny=True, expected=expected)


def values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.NAMES)
def test_runs_report_every_metric_and_traced_digest_equals_untraced(name):
    plain, plain_report, _ = tiny(name, seed=3)
    again, again_report, _ = tiny(name, seed=3)
    traced, traced_report, _ = tiny(name, seed=3, trace=True)
    for result in (plain, again, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert all(v > 0 for v in values(plain).values())
    assert plain_report["digest"] is not None
    assert plain_report["digest"] == again_report["digest"] == traced_report["digest"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_different_seeds_give_different_inputs(name):
    assert tiny(name, seed=1)[1]["digest"] != tiny(name, seed=2)[1]["digest"]


def test_corrupted_expected_digest_counts_as_failure():
    _, report, outputs = tiny("large-graphs")
    stored = [outputs.seen[k] for k in range(len(outputs.seen))]
    result, _, _ = tiny("large-graphs", expected={"digest": report["digest"], "items": stored})
    assert result["correct"] and result["failed"] == 0
    corrupted = list(stored)
    corrupted[1] = "0" * 16
    result, bad_report, _ = tiny("large-graphs",
                                 expected={"digest": report["digest"], "items": corrupted})
    assert not result["correct"]
    assert result["failed"] >= 1 and bad_report["fail_frac"] > 0
    assert any("differs from the stored" in f for f in bad_report["failures"])


@pytest.mark.parametrize("name", ["large-graphs", "random-suite", "cones"])
def test_layer_self_times_and_unspanned_time_add_up_to_traced_wall(name):
    m = values(tiny(name, trace=True)[0])
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["trace.unspanned_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.unspanned_s"] >= 0


def test_speed_scales_a_duration_by_the_reference_samples_around_it():
    speed = reference.Speed(task=None, nominal_s=0.5, every_s=1.0, nearest=3)
    # Samples at t = 0..9; the machine runs at half speed from t = 5 on.
    speed.at = [float(t) for t in range(10)]
    speed.dt = [0.5] * 5 + [1.0] * 5
    assert speed.factor(1.0, 2.0) == 1.0
    assert speed.corrected(7.0, 4.0) == 2.0
    # Nearest to t = 4.5 are the samples at 4, 5 and then 3 (ties go left).
    assert speed.factor(4.0, 5.0) == 1.0
    assert speed.factor(20.0, 21.0) == 2.0


def test_tracer_wraps_every_binding_and_restores_them():
    sv = run.import_singvol()
    originals = (sv.envelope.volume, sv.tower.volume, sv.cli.volume, sv.randgen.blow_up)
    tr = tracer.Tracer(sv)
    tr.install()
    try:
        assert sv.tower.volume is sv.envelope.volume is sv.cli.volume is not originals[0]
        assert sv.randgen.blow_up is sv.tower.blow_up is not originals[3]
        sv.package.volume(sv.catalog.a_n(3))
    finally:
        tr.uninstall()
    assert (sv.envelope.volume, sv.tower.volume, sv.cli.volume, sv.randgen.blow_up) == originals
    by = tr.summary()["by_name"]
    assert by["envelope.volume"]["calls"] == 1 and by["graph.canonical"]["calls"] == 1


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
