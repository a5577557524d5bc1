#!/usr/bin/env python3
"""Line probe: run ``tests/`` under a line tracer and list every executable
line of ``src/singvol`` that no test ran.

Run from the root of a checkout (standard library only)::

    python3 tests/line_probe.py

pytest does not collect this file: its name does not start with ``test_``.
The tests run in one child process, ``python -c`` with ``PYTHONPATH=src``
and the tracer installed before pytest imports ``singvol``, so module bodies
count: ``sys.monitoring`` (PEP 669) where it exists, from Python 3.12, else
``sys.settrace`` with ``threading.settrace``, which makes the suite about
four times slower. Lines that run only in a child process (``python -m
singvol``) are not seen. The executable lines are the line starts of every
code object compiled from a module.

A line is named by its module, the function that holds it and its source
text, never by its number, so ``UNREACHED`` survives edits elsewhere.
Every unreached line is printed. The exit status is 1 when one of them is
not in ``UNREACHED``, or when an entry there names no executable line; a
listed line that ran is printed and does not count (which import branch of
``io`` runs depends on the Python version).

A failing test makes the exit status 2, except a test in
``mutation_probe.BUDGETED``: a runtime budget can fail under the tracer's
slowdown, so such a test is run once more on its own, untraced, and counts
only if it fails again. The lines its traced run reached count either way.
Nothing is written to the working tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

from mutation_probe import BUDGETED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "singvol")

# Lines that no in-process test can reach, by name, with the reason.
SUBPROCESS = "runs only under python -m singvol, which the tests start as a child process"
IMPORT = "the standard library's SHA-256 module is _sha256 up to Python 3.11, _sha2 after"
FAULT = "an internal check: only a fault in the code before it reaches it"
UNREACHED = {
    "__main__.py: <module>: import sys": SUBPROCESS,
    "__main__.py: <module>: from .cli import main": SUBPROCESS,
    "__main__.py: <module>: sys.exit(main())": SUBPROCESS,
    "cli.py: <module>: sys.exit(main())": SUBPROCESS,
    "io.py: <module>: except ImportError:": IMPORT,
    "io.py: <module>: try:": IMPORT,
    "io.py: <module>: from _sha2 import sha256  # its name from Python 3.12": IMPORT,
    "io.py: <module>: from hashlib import sha256": IMPORT,
    "envelope.py: zariski_oracle: raise InternalConsistencyError(\"no feasible Zariski "
    "candidate found\")": FAULT,
    "envelope.py: zariski_oracle: raise InternalConsistencyError(\"feasible Zariski "
    "candidates differ\")": FAULT,
    "envelope.py: _feasible_walk: raise SingularSystemError(\"principal submatrix is "
    "singular\")": FAULT,
    "envelope.py: _feasible_walk: raise InternalConsistencyError(f\"oracle visited {visited} "
    "vertex subsets, not 2^{r}\")": FAULT,
    "graph.py: ResolutionGraph._discrepancies: raise InternalConsistencyError(\"canonical "
    "pullback has a negative coefficient on a \"": FAULT,
    "graph.py: ResolutionGraph._discrepancies: f\"relatively minimal model: b = "
    "{b.coeffs!r}\")": FAULT,
}

# Run in the child: trace, run pytest, and write the hits and failures as JSON.
CHILD = r"""
import json, sys, threading
out, package, args = sys.argv[1], sys.argv[2], sys.argv[3:]
hits, failed = set(), []
if hasattr(sys, "monitoring"):
    mon = sys.monitoring
    def line(code, lineno):
        if code.co_filename.startswith(package):
            hits.add((code.co_filename, lineno))
        return mon.DISABLE
    mon.use_tool_id(mon.COVERAGE_ID, "line_probe")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
else:
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local
    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None
    threading.settrace(call)
    sys.settrace(call)

class Failures:
    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in failed:
            failed.append(report.nodeid)

import pytest
status = pytest.main(args, plugins=[Failures()])
sys.settrace(None)
threading.settrace(None)
with open(out, "w") as fh:
    json.dump({"status": int(status), "failed": failed, "hits": sorted(hits)}, fh)
"""


def executable(path: str) -> dict[int, str]:
    """``{line: name}`` over the line starts of every code object compiled
    from ``path``; a line is named after the innermost code holding it."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    module = os.path.basename(path)
    lines: dict[int, tuple[int, str]] = {}
    stack = [(compile(source, path, "exec"), 0)]
    while stack:
        code, depth = stack.pop()
        scope = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line and depth >= lines.get(line, (-1, ""))[0]:
                lines[line] = depth, f"{module}: {scope}: {text[line - 1].strip()}"
        stack += [(c, depth + 1) for c in code.co_consts if hasattr(c, "co_lines")]
    return {line: name for line, (_, name) in lines.items()}


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="line-probe-") as tmp:
        out = os.path.join(tmp, "hits.json")
        subprocess.run([sys.executable, "-c", CHILD, out, PACKAGE + os.sep,
                        "-q", "--tb=line", "-p", "no:cacheprovider", "tests"], cwd=ROOT, env=env)
        with open(out, encoding="utf-8") as fh:
            run = json.load(fh)
    print(f"traced tests: {time.monotonic() - start:.0f} s, exit status {run['status']}")
    broken = []
    for test in run["failed"]:
        if not test.startswith(BUDGETED):
            broken.append(test)
            continue
        again = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                test], cwd=ROOT, env=env, capture_output=True)
        print(f"budgeted test {test} failed traced, "
              f"{'failed again untraced' if again.returncode else 'passed untraced'}")
        if again.returncode:
            broken.append(test)
    if broken or run["status"] not in (0, 1):
        print("failing tests: " + ", ".join(broken or [f"pytest status {run['status']}"]))
        return 2
    hits = {(f, line) for f, line in run["hits"]}
    names, wrong, total, missed = set(), 0, 0, 0
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        for line, name in sorted(executable(path).items()):
            names.add(name)
            total += 1
            ran = (path, line) in hits
            listed = name in UNREACHED
            if ran and listed:
                print(f"{'ran (listed)':14} src/singvol/{module}:{line}  {name}")
            elif not ran:
                missed += 1
                wrong += not listed
                print(f"{'unreached' if listed else 'UNREACHED':14} "
                      f"src/singvol/{module}:{line}  {name}")
    for name in UNREACHED:
        if name not in names:
            wrong += 1
            print(f"{'NOT FOUND':14} {name} (listed as unreached)")
    print(f"{total} executable lines of src/singvol, {missed} unreached, "
          f"{wrong} not accounted for")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
