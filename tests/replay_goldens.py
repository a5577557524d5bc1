#!/usr/bin/env python3
"""Golden replay: run every case of ``tests/golden/`` and
``tests/help_golden.json`` through ``cli.main`` and compare it byte for byte.

Run from anywhere with any supported interpreter (standard library only)::

    python3 tests/replay_goldens.py

pytest does not collect this file: its name does not start with ``test_``.
It imports ``singvol`` from this checkout's ``src``, replays in a temporary
working directory (where the report cases read ``tower.json`` and
``cone.json``) with ``COLUMNS=80``, prints the first difference and exits
1 there, or exits 0 when every case matches. ``test_golden.py`` and
``test_help_golden.py`` run the same cases under pytest and re-record them
with the helpers here; ``test_goldens_replay_on_other_interpreters`` runs
this script under pyenv's Python 3.10, 3.12 and 3.13 where they start.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HELP_GOLDEN = ROOT / "tests" / "help_golden.json"

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


def run_report(argv: list[str]) -> dict:
    """Run one command in the current directory; return its golden record."""
    from singvol.cli import main

    Path("tower.json").write_text(json.dumps(TOWER_DOC), encoding="utf-8")
    Path("cone.json").write_text(json.dumps(CONE_DOC), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def run_help(argv: list[str]) -> dict:
    """Run one ``--help`` or refused command line; return its golden record."""
    from singvol.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay() -> int:
    """Replay every golden in a temporary directory; 1 at the first difference."""
    cases = [(path.name, json.loads(path.read_text(encoding="utf-8")), run_report)
             for path in sorted(GOLDEN.glob("*.json"))]
    cases += [(f"{HELP_GOLDEN.name}: {name}", record, run_help)
              for name, record in json.loads(HELP_GOLDEN.read_text(encoding="utf-8")).items()]
    os.environ["COLUMNS"] = "80"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="replay-goldens-") as scratch:
        os.chdir(scratch)
        try:
            for name, expected, run in cases:
                got = run(expected["argv"])
                if got != expected:
                    field = next(key for key in expected if got.get(key) != expected[key])
                    print(f"{name}: {field} differs\nexpected: {expected[field]!r:.400}\n"
                          f"got:      {got[field]!r:.400}")
                    return 1
        finally:
            os.chdir(cwd)
    print(f"{len(cases)} goldens replayed byte for byte on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(replay())
