"""JSON documents: the graph format, digests and reading files.

The document formats are strict: unknown fields are rejected, rationals are
integers or ``"p/q"`` strings, and re-serializing a parsed document gives
a canonical form (used for the report input digests). Keeping the schema
this rigid is what makes reports byte-identical across runs. The canonical
writer itself is ``render.to_json``, re-exported here as ``to_json``.

The tower and cone formats are parsed in ``tower`` and ``cone`` with the
field checks below, so reading a graph loads neither; each binds its codec
here as well when imported (``tower_from_doc``, ``tower_to_doc``,
``cone_from_doc``).

Import rule: library modules import at module level only. A module object
may outlive a fresh import of the package (perfbench re-imports it while its
loop keeps the old modules), and a call-time import would hand it the new
import's classes, failing ``isinstance`` against its own. Only ``cli``
command bodies and the package's ``__getattr__`` import at call time, and
``cone.dcc_scan``, which imports ``envelope`` at call time and passes it
only graphs it builds itself. ``tests/test_imports.py`` checks this rule.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from .errors import DomainError, MalformedInputError
from .graph import MAX_ENTRY_BITS, Edge, ResolutionGraph, Vertex, check_graph_size
from .render import to_json


def require_mapping(doc: Any, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise MalformedInputError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def take(doc: Mapping, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise MalformedInputError(
            f"{what} has unknown field(s): {', '.join(sorted(map(str, unknown)))}",
            reason="unknown-field",
        )
    missing = [f for f in required if f not in doc]
    if missing:
        raise MalformedInputError(f"{what} is missing field(s): {', '.join(missing)}")
    return dict(doc)


def require_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} must be an integer, got {value!r}")
    return value


# -- graphs -------------------------------------------------------------------


def graph_from_doc(doc: Any) -> ResolutionGraph:
    doc = take(require_mapping(doc, "graph"), "graph", ("vertices", "edges"))
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise MalformedInputError("graph vertices and edges must be lists")
    check_graph_size(len(doc["vertices"]), len(doc["edges"]))
    vertices = []
    for v in doc["vertices"]:
        v = take(require_mapping(v, "vertex"), "vertex", ("id", "self_int", "genus"))
        if not isinstance(v["id"], str):
            raise MalformedInputError("vertex id must be a string")
        vertices.append((v["id"], require_int(v["self_int"], "self_int"),
                         require_int(v["genus"], "genus")))
    edges = []
    for e in doc["edges"]:
        e = take(require_mapping(e, "edge"), "edge", ("i", "j"), ("mult",))
        if not isinstance(e["i"], str) or not isinstance(e["j"], str):
            raise MalformedInputError("edge endpoints must be vertex id strings")
        edges.append((e["i"], e["j"], require_int(e.get("mult", 1), "mult")))
    bits = (sum(s.bit_length() + g.bit_length() for _, s, g in vertices)
            + sum(m.bit_length() for _, _, m in edges))
    if bits > MAX_ENTRY_BITS:
        raise DomainError(f"graph entries have {bits} bits in all, above the limit of "
                          f"{MAX_ENTRY_BITS}", reason="too-large")
    return ResolutionGraph(tuple(Vertex(*v) for v in vertices), tuple(Edge(*e) for e in edges))


# -- digests and files ---------------------------------------------------------


def digest(doc: Any) -> str:
    """Short content digest of a document's canonical form."""
    return hashlib.sha256(to_json(doc).encode("ascii")).hexdigest()[:16]


def load_json(path: str) -> Any:
    """Parse a JSON file; every read or decode failure is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise MalformedInputError(f"no such file: {path}", reason="missing-file") from exc
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}", reason="unreadable-file") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8: {exc}", reason="invalid-encoding") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}", reason="invalid-json") from exc
    except ValueError:
        # json parses integer literals with int(), which refuses more digits
        # than sys.get_int_max_str_digits() (4,300 by default)
        raise DomainError(f"JSON in {path} has an integer literal too long to parse",
                          reason="too-large") from None
    except RecursionError as exc:
        raise MalformedInputError(f"JSON in {path} is nested too deeply",
                                  reason="too-deeply-nested") from exc
