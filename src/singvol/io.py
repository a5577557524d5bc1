"""JSON document formats for graphs, towers and cones.

All three formats are strict: unknown fields are rejected, rationals are
integers or ``"p/q"`` strings, and re-serializing a parsed document gives
a canonical form (used for the report input digests). Keeping the schema
this rigid is what makes reports byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from .cone import PolarizedCone, RigidClass
from .errors import MalformedInputError
from .graph import Edge, ResolutionGraph, Vertex, check_graph_size
from .lattice import QVector, SymForm, rat
from .tower import FreeBlowup, ModelTower, SatelliteBlowup


def _require_mapping(doc: Any, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise MalformedInputError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def _take(doc: Mapping, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
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


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} must be an integer, got {value!r}")
    return value


def _qvector(value: Any, what: str) -> QVector:
    if not isinstance(value, (list, tuple)):
        raise MalformedInputError(f"{what} must be a list of rationals")
    return QVector(rat(x) for x in value)


# -- graphs -------------------------------------------------------------------


def graph_from_doc(doc: Any) -> ResolutionGraph:
    doc = _take(_require_mapping(doc, "graph"), "graph", ("vertices", "edges"))
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise MalformedInputError("graph vertices and edges must be lists")
    check_graph_size(len(doc["vertices"]))
    vertices = []
    for v in doc["vertices"]:
        v = _take(_require_mapping(v, "vertex"), "vertex", ("id", "self_int", "genus"))
        if not isinstance(v["id"], str):
            raise MalformedInputError("vertex id must be a string")
        vertices.append(
            Vertex(v["id"], _int(v["self_int"], "self_int"), _int(v["genus"], "genus"))
        )
    edges = []
    for e in doc["edges"]:
        e = _take(_require_mapping(e, "edge"), "edge", ("i", "j"), ("mult",))
        if not isinstance(e["i"], str) or not isinstance(e["j"], str):
            raise MalformedInputError("edge endpoints must be vertex id strings")
        edges.append(Edge(e["i"], e["j"], _int(e.get("mult", 1), "mult")))
    return ResolutionGraph(tuple(vertices), tuple(edges))


# -- towers -------------------------------------------------------------------


def tower_from_doc(doc: Any) -> ModelTower:
    doc = _take(_require_mapping(doc, "tower"), "tower", ("base", "steps"))
    base = graph_from_doc(doc["base"])
    if not isinstance(doc["steps"], list):
        raise MalformedInputError("tower steps must be a list")
    steps = []
    for s in doc["steps"]:
        s = _require_mapping(s, "step")
        kind = s.get("kind")
        if kind == "free":
            s = _take(s, "free step", ("kind", "i"))
            if not isinstance(s["i"], str):
                raise MalformedInputError("free step needs a vertex id string")
            steps.append(FreeBlowup(s["i"]))
        elif kind == "satellite":
            s = _take(s, "satellite step", ("kind", "i", "j"), ("edge",))
            if not isinstance(s["i"], str) or not isinstance(s["j"], str):
                raise MalformedInputError("satellite step needs two vertex id strings")
            steps.append(SatelliteBlowup(s["i"], s["j"], _int(s.get("edge", 0), "edge")))
        else:
            raise MalformedInputError(f"unknown step kind {kind!r}")
    return ModelTower(base, tuple(steps))


def tower_to_doc(tower: ModelTower) -> dict:
    steps = []
    for s in tower.steps:
        if isinstance(s, FreeBlowup):
            steps.append({"kind": "free", "i": s.vertex})
        else:
            steps.append({"kind": "satellite", "i": s.i, "j": s.j, "edge": s.edge})
    return {"base": tower.base.to_doc(), "steps": steps}


# -- cones --------------------------------------------------------------------


def cone_from_doc(doc: Any) -> PolarizedCone:
    doc = _take(
        _require_mapping(doc, "cone"),
        "cone",
        ("dim_X", "num_basis", "form", "nef_gens", "pseff_gens", "K_V", "H"),
        ("rigid",),
    )
    basis = doc["num_basis"]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise MalformedInputError("num_basis must be a list of strings")
    form_rows = doc["form"]
    if not isinstance(form_rows, list):
        raise MalformedInputError("form must be a list of rows")
    form = SymForm([[rat(x) for x in row] for row in form_rows])
    for field in ("nef_gens", "pseff_gens"):
        if not isinstance(doc[field], list):
            raise MalformedInputError(f"{field} must be a list of classes")
    rigid = []
    for r in doc.get("rigid", []):
        r = _take(_require_mapping(r, "rigid entry"), "rigid entry", ("class", "only_rep"))
        if not isinstance(r["only_rep"], list):
            raise MalformedInputError("only_rep must be a list of [token, coeff] pairs")
        rep = []
        for item in r["only_rep"]:
            if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(item[0], str):
                raise MalformedInputError("only_rep entries must be [token, coeff] pairs")
            rep.append((item[0], rat(item[1])))
        rigid.append(RigidClass(_qvector(r["class"], "rigid class"), tuple(rep)))
    return PolarizedCone(
        dim_x=_int(doc["dim_X"], "dim_X"),
        basis=tuple(basis),
        form=form,
        nef_gens=tuple(_qvector(v, "nef generator") for v in doc["nef_gens"]),
        pseff_gens=tuple(_qvector(v, "pseff generator") for v in doc["pseff_gens"]),
        k_class=_qvector(doc["K_V"], "K_V"),
        h_class=_qvector(doc["H"], "H"),
        rigid=tuple(rigid),
    )


# -- canonical JSON and digests -------------------------------------------------


def to_json(doc: Any) -> str:
    """Canonical rendering: sorted keys, fixed indentation, trailing newline.

    Identical documents always produce identical bytes, which is what the
    reproducibility contract of the reports rests on.
    """
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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
    except RecursionError as exc:
        raise MalformedInputError(f"JSON in {path} is nested too deeply",
                                  reason="too-deeply-nested") from exc
