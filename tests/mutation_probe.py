#!/usr/bin/env python3
"""Mutation probe: swap one comparison operator at a time in one module of
``src/singvol`` and run the tests against the mutated copy.

Run from the root of a checkout (standard library only)::

    python3 tests/mutation_probe.py cone              # every mutant of cone.py
    python3 tests/mutation_probe.py cone --jobs 2     # two copies in parallel

pytest does not collect this file: its name does not start with ``test_``.
The checkout (without ``.git``) is copied to a temporary directory, one copy
per job; each mutant is written into a copy and ``python -m pytest -x -q``
runs there on ``tests/test_<module>.py`` and then on the rest of ``tests/``,
with ``PYTHONPATH`` set to the copy's ``src``. The first failing test is
printed as the mutant's killer. On a loaded machine a runtime budget can
fail too, so a failing test in ``BUDGETED`` is run once more on its own: it
kills the mutant only if it fails again, and otherwise the session goes on
without it; both outcomes are printed. Nothing is written to the working
tree.

The swaps are ``<`` with ``<=``, ``>`` with ``>=`` and ``==`` with ``!=``
(mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11, 1978). A mutant is named by the function that
holds it, the source text of its comparison and the swap, never by line
number, so the names survive edits elsewhere in the module. A mutant the
tests pass on survives; a survivor listed in ``EQUIVALENT`` (no input tells
it apart from the original) is reported as equivalent, and any other
survivor makes the exit status 1, as does a listed mutant that is killed
or no longer found. A mutant whose tests run past ``TIMEOUT`` seconds
counts as killed.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWAPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
OPERATOR = re.compile(rb"<=|>=|==|!=|<|>")
TIMEOUT = 600.0  # seconds for one mutant's tests
# Tests with a runtime budget, which a loaded machine can fail: a failure of
# one of them is re-run once and counts only if it fails again.
BUDGETED = ("tests/test_acceptance.py::",
            "tests/test_cli.py::test_rational_option_with_a_huge_exponent_is_refused_at_once")

# Mutants that no input tells apart from the original, by name, with the reason.
EQUIVALENT = {
    "cone: PolarizedCone._slope: v * best_h > best * phi_h: > -> >=":
        "a tie moves to another facet of the same ratio: the slope (p, q) is the same rational, "
        "and that facet, violated at j - 1 too, is as good a witness for natural_valuation",
    "envelope: zariski_oracle: d > 0: > -> >=":
        "d is the walk's nonzero pivot (or 1 for the empty subset): the walk raises on 0",
    "envelope: _feasible_walk: d > 0: > -> >=":
        "d is a nonzero pivot: the walk raises on 0 before this test",
    "graph: ResolutionGraph._discrepancies: min(k) >= 0: >= -> >":
        "the check cannot fire: q <= 0 makes from_ints refuse b first, and for q > 0 the "
        "certified M y = -q k gives y = q (-M)^-1 k >= 0 when k >= 0 (-M is a Stieltjes "
        "matrix, so (-M)^-1 >= 0)",
    "lattice: SymForm.is_negative_definite: p < 0: < -> <=":
        "under `p and` the pivot p is nonzero, so p <= 0 is p < 0",
    "lattice: _eliminate: j < m: < -> <=":
        "j <= m adds only j = m, the min's default already",
    "lattice: _substitute: d > 0: > -> >=":
        "d is the last pivot of a nonsingular factor, never 0",
}


def mutants(module: str) -> list[tuple[str, int, bytes]]:
    """``(name, offset, new operator)`` for every swappable operator of
    ``src/singvol/<module>.py``, ``offset`` the operator's byte offset."""
    path = os.path.join(ROOT, "src", "singvol", f"{module}.py")
    with open(path, "rb") as fh:
        data = fh.read()
    source = data.decode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found, seen = [], {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare):
                text = " ".join(ast.get_source_segment(source, child).split())
                operands = [child.left, *child.comparators]
                for i, op in enumerate(child.ops):
                    if type(op) not in SWAPS:
                        continue
                    lo = starts[operands[i].end_lineno - 1] + operands[i].end_col_offset
                    hi = starts[operands[i + 1].lineno - 1] + operands[i + 1].col_offset
                    between = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), data[lo:hi])
                    match = OPERATOR.search(between)
                    old, new = match.group().decode(), SWAPS[type(op)]
                    where = f" (op {i + 1})" if len(child.ops) > 1 else ""
                    name = f"{module}: {'.'.join(scope) or '<module>'}: {text}{where}: {old} -> {new}"
                    seen[name] = seen.get(name, 0) + 1
                    if seen[name] > 1:
                        name += f" #{seen[name]}"
                    found.append((name, lo + match.start(), new.encode()))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def copy_tree(dest: str) -> str:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench_out", "*.pyc")
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def run_tests(copy: str, module: str) -> tuple[str, str]:
    """``passed``, ``failed`` or ``timeout`` for the tests run in ``copy``,
    with a note: the first failing test's id, and how each budgeted test
    that failed did on its re-run."""
    first = os.path.join("tests", f"test_{module}.py")
    # pytest orders a file given with its directory by the directory, so the
    # module's own tests run as a first, separate session
    runs = [["tests"]]
    if os.path.exists(os.path.join(copy, first)):
        runs = [[first], ["tests", f"--ignore={first}"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    deadline = time.monotonic() + TIMEOUT

    def pytest(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1))

    notes = []
    try:
        for paths in runs:
            passed_again: list[str] = []
            while (proc := pytest(*paths, *(f"--deselect={t}" for t in passed_again))).returncode:
                failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
                test = failed.group(1) if failed else f"exit {proc.returncode}"
                if not test.startswith(BUDGETED):
                    return "failed", "; ".join(notes + [test])
                # a budget can fail under load: only a second failure is a kill
                if pytest(test).returncode:
                    return "failed", "; ".join(notes + [f"{test} failed, failed again"])
                notes.append(f"{test} failed, passed again")
                passed_again.append(test)
    except subprocess.TimeoutExpired:
        return "timeout", "; ".join(notes)
    return "passed", "; ".join(notes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module of src/singvol, e.g. cone")
    parser.add_argument("--jobs", type=int, default=1, help="copies tested in parallel (1-4)")
    args = parser.parse_args()
    if not 1 <= args.jobs <= 4:
        parser.error("--jobs must be 1 to 4")
    todo = mutants(args.module)
    path = os.path.join("src", "singvol", f"{args.module}.py")
    with open(os.path.join(ROOT, path), "rb") as fh:
        original = fh.read()
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copies: queue.Queue[str] = queue.Queue()
        for j in range(args.jobs):
            copies.put(copy_tree(os.path.join(tmp, f"copy{j}")))
        baseline, failed = run_tests(os.path.join(tmp, "copy0"), args.module)
        if baseline != "passed":
            print(f"the unmutated tests {baseline} {failed}; nothing to probe", file=sys.stderr)
            return 2

        def probe(mutant: tuple[str, int, bytes]) -> tuple[str, str, str]:
            name, offset, new = mutant
            old_len = len(OPERATOR.match(original, offset).group())
            copy = copies.get()
            try:
                target = os.path.join(copy, path)
                with open(target, "wb") as fh:
                    fh.write(original[:offset] + new + original[offset + old_len:])
                outcome, failed = run_tests(copy, args.module)
                with open(target, "wb") as fh:
                    fh.write(original)
            finally:
                copies.put(copy)
            return name, outcome, failed

        start, wrong, counts = time.monotonic(), 0, {}
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            for name, outcome, failed in pool.map(probe, todo):
                listed = name in EQUIVALENT
                verdict = {"passed": "equivalent" if listed else "SURVIVED",
                           "failed": "KILLED (listed)" if listed else "killed",
                           "timeout": "killed (timeout)"}[outcome]
                counts[verdict] = counts.get(verdict, 0) + 1
                wrong += verdict in ("SURVIVED", "KILLED (listed)")
                print(f"{verdict:16} {name}" + (f"  [{failed}]" if failed else ""), flush=True)
    names = {name for name, _, _ in todo}
    for name in EQUIVALENT:
        if name.startswith(f"{args.module}: ") and name not in names:
            wrong += 1
            print(f"{'NOT FOUND':16} {name} (listed as equivalent)")
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(f"{len(todo)} mutants of {path} in {time.monotonic() - start:.0f} s: {summary}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
