"""Every ``--help`` text and every parser refusal, pinned byte for byte.

``tests/help_golden.json`` holds the argv, exit code, stdout and stderr of
each case run through ``cli.main`` with ``COLUMNS=80`` (argparse wraps help
to the terminal width). The parser is built per command line, so these pin
that building only the named command's parser changes no byte of what the
user sees. Re-record after a deliberate change with
``PYTHONPATH=src python tests/test_help_golden.py`` and review the diff.
"""

import json
import os

import pytest

from replay_goldens import HELP_GOLDEN as GOLDEN
from replay_goldens import run_help
from singvol.cli import _COMMANDS, _GROUPS


def _cases() -> dict[str, list[str]]:
    cases = {"help": ["--help"]}
    for group in _GROUPS:
        cases[f"help-{group}"] = [group, "--help"]
    for group, name, _, arguments, _ in _COMMANDS:
        cases[f"help-{group}-{name}"] = [group, name, "--help"]
        if any(flags == ("source",) for flags, _ in arguments):
            cases[f"refusal-{group}-{name}-no-source"] = [group, name]
    cases["refusal-unknown-group"] = ["nope", "vol", "catalog:A3"]
    cases["refusal-unknown-command"] = ["graph", "nope", "catalog:A3"]
    cases["refusal-no-group"] = []
    cases["refusal-no-command"] = ["cone"]
    cases["refusal-extra-argument"] = ["graph", "vol", "catalog:A3", "extra"]
    return cases


CASES = _cases()


def test_help_golden_covers_the_cases() -> None:
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_help_and_refusal_bytes_match_golden(case: str, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert run_help(CASES[case]) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = {case: run_help(argv) for case, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
