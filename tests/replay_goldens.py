#!/usr/bin/env python3
"""Golden replay: run every case of ``tests/golden/`` and
``tests/help_golden.json`` through ``cli.main`` and compare it byte for byte,
and check the writer against ``json.dumps`` on :data:`WRITER_DOCS`.

Run from anywhere with any supported interpreter (standard library only)::

    python3 tests/replay_goldens.py

pytest does not collect this file: its name does not start with ``test_``.
It imports ``singvol`` from this checkout's ``src``, replays in a temporary
working directory (where the report cases read ``tower.json`` and
``cone.json``) with ``COLUMNS=80``, prints the first difference and exits
1 there, or exits 0 when every case matches. ``test_golden.py`` and
``test_help_golden.py`` run the same cases under pytest and re-record them
with the helpers here, and ``test_io.py`` checks :data:`WRITER_DOCS`;
``test_goldens_replay_on_other_interpreters`` runs this script under pyenv's
Python 3.10, 3.12 and 3.13 where they start.
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

class Text(str):
    """A ``str`` subclass, which ``json`` writes as a string too."""


ESCAPES = ['"', "\\", "\u2028", "\u00e9", "\U0001f600", 'a"b\\c\u2028\u00e9\U0001f600']

# Documents on which ``render.to_json`` must equal ``json.dumps(doc, indent=2,
# sort_keys=True) + "\n"``: strings quoted in place next to every other kind
# of value, as keys, values and list elements, and escapes of every class.
WRITER_DOCS = [
    {k: v for k, v in zip(ESCAPES, reversed(ESCAPES))},
    {"": "", "a": ""},
    {"": "x", "v1": "1/2", "v10": "-3", "v2": "0"},
    {"b": "1", "a": 2},
    {"b": "1", "a": None},
    {"a": "1", "b": ["x", "y"], "c": {"d": "e"}},
    {"a": "1", "b": {}},
    {"P": {"v1": "1/2"}, "N": {"v1": "0"}, "active": []},
    {None: "x"},
    {1: "a", 10: "b", 2: "c"},
    {-1: "\u00e9", 0: {"": "\U0001f600"}},
    ESCAPES,
    ["a", 1, None, True, False, "", -7, 10**30],
    ["x", ["y", 2], {"k": "v"}, [], {}, [None, "z"]],
    [[], ["", "\u00e9"], [None], [["w"]]],
    ("t", (1, "u"), None),
    {"a": 1, "b": "x", "c": None, "d": [1, "2"], "e": {"f": "g", "h": 3}, "i": True},
    {"": [], "x": {}, "y": ["z", None, -7], "\u2028": ("q", 0)},
    {False: ["a", 1], True: "x"},
    {0: None, 3: ["s", {"t": "u"}], -2: "v"},
    "a bare string",
    {Text("k"): Text("v"), "a": [Text("\u00e9"), 1]},
]


def check_writer() -> int:
    """Compare ``to_json`` with ``json.dumps`` on :data:`WRITER_DOCS`; 1 at the
    first difference."""
    from singvol.io import to_json

    for k, doc in enumerate(WRITER_DOCS):
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        got = to_json(doc)
        if got != expected:
            print(f"WRITER_DOCS[{k}]: to_json differs from json.dumps\n"
                  f"expected: {expected!r:.400}\ngot:      {got!r:.400}")
            return 1
    return 0


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
    print(f"{len(WRITER_DOCS)} writer documents and {len(cases)} goldens replayed byte for "
          f"byte on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(check_writer() or replay())
