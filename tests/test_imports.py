"""What each command imports, the lazy package names, and old modules that
outlive a fresh import of the package.

A command's start-up is most of its cost, so each command loads only the
modules it runs, and none loads ``dataclasses``. Library modules import at
module level only: the benchmark re-imports the package while its loop keeps
using the modules of an earlier import, and a call-time import would hand
those the new import's classes.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import singvol

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "DomainError", "Edge", "FreeBlowup", "MalformedInputError", "ModelTower",
    "OracleSizeError", "PolarizedCone", "QVector", "ResolutionGraph", "SatelliteBlowup",
    "SingularSystemError", "SymForm", "Vertex", "blow_up", "boundary_class",
    "cone_log_discrepancy", "curve_cone", "dcc_scan", "invariance_report",
    "lc_boundary_exists", "limiting_discrepancy", "natural_valuation", "nef_envelope_trace",
    "pushforward", "rat", "rat_str", "valuation_limit", "vol_plus_table", "vol_upper_bound",
    "volume", "zariski_oracle",
]

TOWER_DOC = {
    "base": {
        "vertices": [
            {"id": "v1", "self_int": -2, "genus": 0},
            {"id": "v2", "self_int": -2, "genus": 0},
        ],
        "edges": [{"i": "v1", "j": "v2"}],
    },
    "steps": [{"kind": "satellite", "i": "v1", "j": "v2"}, {"kind": "free", "i": "b1"}],
}

PROBE = """
import contextlib, io, json, sys
from singvol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_after(*argv: str) -> set[str]:
    """The modules a fresh interpreter holds after ``cli.main(argv)``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stdout
    return set(result["modules"])


def test_graph_commands_load_no_cone_tower_or_randgen() -> None:
    loaded = _modules_after("graph", "vol", "catalog:E8")
    assert "singvol.envelope" in loaded
    assert not loaded & {"singvol.cone", "singvol.tower", "singvol.randgen", "dataclasses"}


def test_catalog_list_loads_no_computation() -> None:
    loaded = _modules_after("catalog", "list")
    assert not loaded & {"singvol.cone", "singvol.tower", "singvol.randgen",
                         "singvol.envelope", "dataclasses"}


def test_graph_blowup_loads_no_cone_or_randgen(tmp_path) -> None:
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(TOWER_DOC), encoding="utf-8")
    loaded = _modules_after("graph", "blowup", str(path))
    assert "singvol.tower" in loaded
    assert not loaded & {"singvol.cone", "singvol.randgen", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ("cone", "valuation", "catalog:paper-ruled-surface", "--class", "1,0", "--k", "3"),
    ("cone", "counterexample"),
    ("cone", "dcc-scan", "--g-max", "4", "--a-max", "2"),
])
def test_cone_commands_load_no_tower_or_randgen(argv) -> None:
    loaded = _modules_after(*argv)
    assert "singvol.cone" in loaded
    assert not loaded & {"singvol.tower", "singvol.randgen", "dataclasses"}


def test_package_names_are_the_same_and_resolve_to_their_modules() -> None:
    assert singvol.__all__ == PUBLIC_NAMES
    assert singvol.volume is importlib.import_module("singvol.envelope").volume
    assert singvol.FreeBlowup is importlib.import_module("singvol.tower").FreeBlowup
    assert set(PUBLIC_NAMES) <= set(dir(singvol))
    with pytest.raises(AttributeError):
        singvol.no_such_name  # noqa: B018
    from singvol import cli, cone, io, tower

    assert cli.volume is singvol.volume  # the names cli once imported for every command
    # the tower and cone codecs keep their names in io once their modules load
    assert io.tower_to_doc is tower.tower_to_doc and io.cone_from_doc is cone.cone_from_doc


def test_old_modules_keep_working_after_a_fresh_import_of_the_package() -> None:
    # perfbench's set-up drops singvol from sys.modules and imports it again,
    # while its loop keeps calling the modules of the earlier import
    randgen, tower, sio = (importlib.import_module(f"singvol.{m}")
                           for m in ("randgen", "tower", "io"))
    old = {name: module for name, module in sys.modules.items()
           if name == "singvol" or name.startswith("singvol.")}
    rng = Random(7)
    cases = []
    for _ in range(6):
        graph = randgen.random_graph(rng, 8, 8)
        cases.append((randgen.random_divisor(rng, graph), randgen.random_tower(rng, graph)))
    kinds = {type(step).__name__ for _, t in cases for step in t.steps}
    assert kinds == {"FreeBlowup", "SatelliteBlowup"}

    def outputs() -> list:
        return [(tower.invariance_report(t).to_doc(), tower.envelope_pullback_check(t, a),
                 sio.tower_to_doc(t)) for a, t in cases]

    before = outputs()
    try:
        for name in old:
            del sys.modules[name]
        for m in ("lattice", "graph", "envelope", "tower", "randgen", "cone", "catalog",
                  "io", "cli"):
            assert importlib.import_module(f"singvol.{m}") is not old.get(f"singvol.{m}")
        assert outputs() == before
    finally:
        for name in [n for n in sys.modules if n == "singvol" or n.startswith("singvol.")]:
            del sys.modules[name]
        sys.modules.update(old)


def test_catalog_lists_the_named_cones_cone_resolves() -> None:
    from singvol.catalog import catalog_entries
    from singvol.cone import _CONE_FIXED

    assert catalog_entries()["cones"]["fixed"] == sorted(_CONE_FIXED)


def test_records_are_immutable_values_of_their_own_class() -> None:
    from singvol.record import Record

    class Pair(Record):
        __slots__ = _fields = ("a", "b")

        def __init__(self, a, b) -> None:
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    class OtherPair(Pair):
        __slots__ = ()

    p = Pair(1, "x")
    assert p == Pair(1, "x") and hash(p) == hash(Pair(1, "x"))
    assert p != Pair(2, "x")
    assert p != OtherPair(1, "x") and p != (1, "x")  # no cross-type equality
    assert repr(p).endswith("Pair(a=1, b='x')")
    with pytest.raises(AttributeError):
        p.a = 2
    with pytest.raises(AttributeError):
        del p.b
    assert p.a == 1
    graph = singvol.ResolutionGraph.make([("a", -2, 0), ("b", -3, 1)], [("a", "b")])
    assert pickle.loads(pickle.dumps(graph)) == graph  # as for the frozen dataclasses
