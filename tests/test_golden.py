"""CLI reports pinned byte for byte by golden files.

Each file in ``tests/golden`` holds the argv, exit code and stdout of one
command run through ``cli.main``. After a deliberate change to a report,
re-record them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from singvol.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Written into the working directory as ``tower.json`` and ``cone.json``; a
# relative path keeps the report's ``source`` field independent of where the
# test runs.
TOWER_DOC = {
    "base": {
        "vertices": [
            {"id": "c", "self_int": -1, "genus": 2},
            {"id": "t", "self_int": -3, "genus": 0},
        ],
        "edges": [{"i": "c", "j": "t"}],
    },
    "steps": [
        {"kind": "free", "i": "c"},
        {"kind": "satellite", "i": "c", "j": "b1"},
        {"kind": "satellite", "i": "c", "j": "t"},
    ],
}

# A basis-4 cone over six points of the moment curve (1, t, t^2, t^3), one of
# them at t = 1/2, with half their sum as H: eight facets, rational entries.
CONE_DOC = {
    "dim_X": 3,
    "num_basis": ["e0", "e1", "e2", "e3"],
    "form": [[110, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "nef_gens": [["3", "3/4", "61/8", "153/16"]],
    "pseff_gens": [
        ["1", "-2", "4", "-8"],
        ["1", "-1", "1", "-1"],
        ["1", "0", "0", "0"],
        ["1", "1/2", "1/4", "1/8"],
        ["1", "1", "1", "1"],
        ["1", "3", "9", "27"],
    ],
    "K_V": ["1/3", "1/3", "1/3", "1/3"],
    "H": ["3", "3/4", "61/8", "153/16"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in ("A7", "E8", "cusp-5", "simple-elliptic-3", "cone-g2-d1"):
        for cmd in ("vol", "discrepancies", "lc", "lcmod"):
            cases[f"graph-{cmd}-{name}"] = ["graph", cmd, f"catalog:{name}"]
    cases["graph-blowup-tower"] = ["graph", "blowup", "tower.json"]
    cases["graph-random-suite"] = [
        "graph", "random-suite", "--count", "20", "--max-vertices", "6", "--seed", "7",
    ]
    # the oracle's edge: the largest graphs it accepts, and the first refused
    cases["graph-random-suite-12"] = [
        "graph", "random-suite", "--count", "4", "--max-vertices", "12", "--seed", "6",
    ]
    cases["error-oracle-size"] = ["graph", "random-suite", "--max-vertices", "13"]
    for name, cls in (("paper-ruled-surface", "1,-1"), ("elliptic-cone", "1"),
                      ("elliptic-cone-2", "3/2")):
        source = f"catalog:{name}"
        cases[f"cone-bound-{name}"] = ["cone", "bound", source, "--a", "1/2"]
        cases[f"cone-valuation-{name}"] = [
            "cone", "valuation", source, "--class", cls, "--k", "5",
        ]
        cases[f"cone-limiting-{name}"] = ["cone", "limiting", source, "--m", "6"]
    cases["cone-bound-moment-4"] = ["cone", "bound", "cone.json", "--a", "1/2"]
    cases["cone-valuation-moment-4"] = [
        "cone", "valuation", "cone.json", "--class", "1/2,-1/3,2,5/7", "--k", "5",
    ]
    cases["cone-limiting-moment-4"] = ["cone", "limiting", "cone.json", "--m", "6"]
    cases["cone-counterexample"] = ["cone", "counterexample"]
    cases["cone-dcc-scan"] = ["cone", "dcc-scan", "--g-max", "20", "--a-max", "10"]
    cases["catalog-list"] = ["catalog", "list"]
    cases["error-exit-1"] = ["cone", "bound", "catalog:elliptic-cone", "--a", "-1"]
    cases["error-exit-2"] = ["graph", "vol", "catalog:Q5"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> dict:
    """Run one command in the current directory; return its golden record."""
    Path("tower.json").write_text(json.dumps(TOWER_DOC), encoding="utf-8")
    Path("cone.json").write_text(json.dumps(CONE_DOC), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def test_golden_files_match_cases() -> None:
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case: str, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert _run(CASES[case]) == expected


def _input_doc(group: str, source: str):
    """The document a report with this ``source`` digests."""
    from singvol.catalog import graph_by_name
    from singvol.cone import cone_by_name, cone_from_doc
    from singvol.tower import tower_from_doc, tower_to_doc

    if source == "tower.json":
        return tower_to_doc(tower_from_doc(TOWER_DOC))
    if source == "cone.json":
        return cone_from_doc(CONE_DOC).to_doc()
    name = source.removeprefix("catalog:")
    return (graph_by_name if group == "graph" else cone_by_name)(name).to_doc()


def test_digest_is_the_sha256_prefix_of_each_golden_input() -> None:
    # the digest's SHA-256 may come from any implementation: pin it to hashlib's
    from singvol.io import digest, to_json

    checked = 0
    for case, argv in CASES.items():
        report = json.loads(json.loads((GOLDEN / f"{case}.json").read_text("utf-8"))["stdout"])
        inputs = report.get("inputs", {})
        if "source" not in inputs:
            continue
        doc = _input_doc(argv[0], inputs["source"])
        expected = hashlib.sha256(to_json(doc).encode("ascii")).hexdigest()[:16]
        assert digest(doc) == expected == inputs["digest"], case
        checked += 1
    assert checked == 34


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            records = {case: _run(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(cwd)
    for case, record in records.items():
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
