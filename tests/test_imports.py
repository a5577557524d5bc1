"""What each command imports, the lazy package names, and old modules that
outlive a fresh import of the package.

A command's start-up is most of its cost, so each command loads only the
modules it runs, and none loads ``dataclasses``. Library modules import at
module level only: the benchmark re-imports the package while its loop keeps
using the modules of an earlier import, and a call-time import would hand
those the new import's classes.
"""

import ast
import copy
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
    # the names and the writer only: no graph, rational or digest code
    loaded = _modules_after("catalog", "list")
    assert not loaded & {"singvol.cone", "singvol.tower", "singvol.randgen",
                         "singvol.envelope", "singvol.graph", "singvol.lattice",
                         "singvol.record", "fractions", "decimal", "hashlib", "dataclasses"}


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


# What a cone command other than dcc-scan runs: no graph, catalog or envelope.
CONE_MODULES = {"singvol", "singvol.cli", "singvol.errors", "singvol.render", "singvol.cone",
                "singvol.io", "singvol.lattice", "singvol.names", "singvol.record"}


@pytest.mark.parametrize("argv", [
    ("cone", "bound", "catalog:paper-ruled-surface", "--a", "1/2"),
    ("cone", "valuation", "catalog:paper-ruled-surface", "--class", "1,0", "--k", "3"),
    ("cone", "counterexample"),
])
def test_cone_commands_load_no_graph_stack(argv) -> None:
    loaded = _modules_after(*argv)
    assert not loaded & {"singvol.graph", "singvol.catalog", "singvol.envelope"}
    assert {m for m in loaded if m.split(".")[0] == "singvol"} == CONE_MODULES


@pytest.mark.parametrize("argv", [
    ("graph", "vol", "catalog:E8"),
    ("cone", "bound", "catalog:paper-ruled-surface", "--a", "1/2"),
])
def test_digests_load_no_openssl(argv) -> None:
    # hashlib loads OpenSSL's _hashlib; the built-in _sha256 is what hashlib
    # falls back to without it (Python 3.12 renamed the module)
    pytest.importorskip("_sha256")
    loaded = _modules_after(*argv)
    assert not loaded & {"hashlib", "_hashlib"}


def test_io_imports_only_errors_and_render() -> None:
    # io is a leaf: the graph, tower and cone codecs live with their types
    tree = ast.parse((SRC / "singvol" / "io.py").read_text(encoding="utf-8"))
    imported = {m for node in ast.walk(tree) for m in _imported_modules(node)}
    assert imported == {"errors", "render"}, imported


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


REIMPORT = """
import gc, importlib, json, sys, types
for _ in range(5):  # as the benchmark's set-up does: drop the package, import it again
    for name in [n for n in sys.modules if n == "singvol" or n.startswith("singvol.")]:
        del sys.modules[name]
    importlib.import_module("singvol")
    for m in ("lattice", "graph", "envelope", "tower", "randgen", "cone", "catalog", "io", "cli"):
        importlib.import_module("singvol." + m)
gc.collect()
print(json.dumps([o.__name__ for o in gc.get_objects() if isinstance(o, types.ModuleType)
                  and o.__name__.split(".")[0] == "singvol"]))
"""


def test_fresh_imports_leave_no_old_module_alive() -> None:
    # a typing.Union of the step classes, say, is cached by typing and keeps
    # each import's classes, and through their methods its modules, alive
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    names = json.loads(proc.stdout)
    assert "singvol.tower" in names and sorted(names) == sorted(set(names)), names


def test_catalog_lists_the_named_cones_cone_resolves() -> None:
    # and the fixed graphs catalog resolves: the name table builds neither
    from singvol.catalog import _GRAPH_FIXED, catalog_entries
    from singvol.cone import _CONE_FIXED

    assert catalog_entries()["graphs"]["fixed"] == sorted(_GRAPH_FIXED)
    assert catalog_entries()["cones"]["fixed"] == sorted(_CONE_FIXED)


def _imported_modules(node: ast.AST) -> list[str]:
    """The singvol modules an import statement names, without the package;
    ``"?"`` for a call of ``importlib.import_module`` or ``__import__``."""
    if isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)) in ("import_module", "__import__"):
        return ["?"]
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level:  # from . or from .x
        names = [f"singvol.{node.module or a.name}" for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{a.name}" if node.module == "singvol" else node.module
                 for a in node.names]
    else:
        return []
    return [n.split(".")[1] for n in names if n.startswith("singvol.")]


def test_only_cli_and_the_package_import_singvol_modules_at_call_time() -> None:
    # the import rule in io's docstring: a library function that imports a
    # singvol module when called would hand an old module the new import's classes
    found = set()
    for path in sorted((SRC / "singvol").glob("*.py")):
        if path.name == "cli.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, fn.name, module) for node in ast.walk(fn)
                          for module in _imported_modules(node)}
    # the package's lazy names, and dcc_scan, which passes envelope only
    # graphs it builds itself
    assert found <= {("__init__.py", "__getattr__", "?"),
                     ("cone.py", "dcc_scan", "envelope")}, found


def test_records_are_immutable_values_of_their_own_class() -> None:
    from singvol.record import Record
    from singvol.tower import SatelliteBlowup

    class Pair(Record):
        __slots__ = _fields = ("a", "b")

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

    # the generated __init__: positional, keyword and default arguments
    class Triple(Record):
        __slots__ = _fields = ("cls", "self", "c")
        _defaults = ("c0",)

    assert Pair(1, "x") == Pair(1, b="x") == Pair(b="x", a=1)
    assert (Triple(1, 2).cls, Triple(1, 2).self, Triple(1, 2).c) == (1, 2, "c0")
    assert Triple(cls=1, self=2, c=3)._values() == (1, 2, 3)
    for args, kwargs, message in [((1,), {}, "missing 1 required positional argument: 'b'"),
                                  ((1, 2, 3), {}, "takes 3 positional arguments but 4"),
                                  ((1,), {"a": 2}, "got multiple values for argument 'a'"),
                                  ((1, 2), {"c": 3}, "got an unexpected keyword argument 'c'")]:
        with pytest.raises(TypeError, match=rf"Pair\.__init__\(\) {message}"):
            Pair(*args, **kwargs)
    with pytest.raises(TypeError, match="may not start with '_'"):
        class Bad(Record):
            __slots__ = _fields = ("_setattr",)

    # the hook runs once every field is set, and is looked up on each call
    seen = []

    class Checked(Record):
        __slots__ = _fields = ("a", "b")

        def __post_init__(self) -> None:
            seen.append(self._values())  # every field is set before the hook
            if self.a < 0:
                raise ValueError("negative")

    assert Checked(1, 2).b == 2 and seen == [(1, 2)]
    with pytest.raises(ValueError, match="negative"):
        Checked(-1, 2)
    Checked.__post_init__ = lambda self: seen.append("replaced")  # as perfbench does
    Checked(3, 4)
    assert seen == [(1, 2), (-1, 2), "replaced"]

    step = SatelliteBlowup("a", "b")
    assert step.edge == 0 and step == SatelliteBlowup("a", "b", 0)
    for twin in (pickle.loads(pickle.dumps(step)), copy.copy(step), copy.deepcopy(step)):
        assert twin == step and type(twin) is SatelliteBlowup


def test_records_declare_their_fields_once() -> None:
    # a hand-written record __init__ would name each field again
    for path in sorted((SRC / "singvol").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                assert not any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                               for item in node.body), f"{path.name}: {node.name}.__init__"
        if "object.__setattr__" in text:
            # the generator itself, and ``SymForm``'s cache
            assert path.name in {"record.py", "lattice.py"}, path.name
        if "object.__new__" in text:
            # only ``SymForm.sparse``: no record is built around its ``__init__``
            assert path.name == "lattice.py", path.name


def test_only_graph_builds_a_form_from_trusted_rows() -> None:
    # SymForm.sparse checks nothing; only a graph's own rows, built from its
    # validated vertices and edges, may reach it
    callers = set()
    for path in sorted((SRC / "singvol").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr == "sparse"
               for node in ast.walk(tree)):
            callers.add(path.name)
    assert callers == {"graph.py"}


def test_cached_property_only_on_the_traced_facet_normals() -> None:
    # functools.cached_property takes a lock on every first read on Python
    # 3.11, record.lazy does not; perfbench re-wraps facet_normals by its
    # type, so that attribute alone keeps it
    decorated, uses = set(), 0
    for path in sorted((SRC / "singvol").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += sum(getattr(node, "id", getattr(node, "attr", None)) == "cached_property"
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
        for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            decorated |= {(path.name, cls.name, fn.name) for fn in cls.body
                          if isinstance(fn, ast.FunctionDef) for d in fn.decorator_list
                          if getattr(d, "id", getattr(d, "attr", None)) == "cached_property"}
    assert decorated == {("cone.py", "PolarizedCone", "facet_normals")}
    assert uses == len(decorated)
