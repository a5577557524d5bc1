"""Document parsing, canonical serialization, digests."""

import json

import pytest

from singvol import FreeBlowup, MalformedInputError, ModelTower, SatelliteBlowup
from singvol.catalog import graph_by_name
from singvol.cone import cone_from_doc, ruled_surface_cone
from singvol.graph import graph_from_doc
from singvol.io import digest, load_json, to_json
from singvol.tower import tower_from_doc, tower_to_doc

from replay_goldens import WRITER_DOCS

GRAPH_DOC = {
    "vertices": [
        {"id": "c", "self_int": -2, "genus": 2},
        {"id": "t", "self_int": -2, "genus": 0},
    ],
    "edges": [{"i": "c", "j": "t"}],
}


def test_graph_doc_round_trip() -> None:
    g = graph_from_doc(GRAPH_DOC)
    assert graph_from_doc(g.to_doc()) == g
    assert g.edges[0].mult == 1  # default multiplicity


def test_graph_doc_edge_mult_kept() -> None:
    doc = {
        "vertices": [
            {"id": "a", "self_int": -3, "genus": 0},
            {"id": "b", "self_int": -3, "genus": 0},
        ],
        "edges": [{"i": "a", "j": "b", "mult": 2}],
    }
    assert graph_from_doc(doc).edges[0].mult == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["vertices"][0].update(color="red"),
        lambda d: d["edges"][0].update(weight=3),
        lambda d: d["vertices"][0].pop("genus"),
        lambda d: d.pop("vertices"),
        lambda d: d["vertices"][0].update(self_int="-2.5"),
        lambda d: d["vertices"][0].update(genus=True),
    ],
)
def test_graph_doc_strictness(mutate) -> None:
    doc = json.loads(json.dumps(GRAPH_DOC))
    mutate(doc)
    with pytest.raises(MalformedInputError):
        graph_from_doc(doc)


def test_unknown_field_reason() -> None:
    doc = json.loads(json.dumps(GRAPH_DOC))
    doc["shiny"] = True
    with pytest.raises(MalformedInputError) as exc:
        graph_from_doc(doc)
    assert exc.value.reason == "unknown-field"


TOWER_DOC = {
    "base": {
        "vertices": [
            {"id": "v1", "self_int": -2, "genus": 0},
            {"id": "v2", "self_int": -2, "genus": 0},
        ],
        "edges": [{"i": "v1", "j": "v2"}],
    },
    "steps": [
        {"kind": "satellite", "i": "v1", "j": "v2"},
        {"kind": "free", "i": "b1"},
    ],
}


def test_tower_doc_round_trip() -> None:
    tower = tower_from_doc(TOWER_DOC)
    assert isinstance(tower, ModelTower)
    assert tower.steps == (SatelliteBlowup("v1", "v2"), FreeBlowup("b1"))
    again = tower_from_doc(tower_to_doc(tower))
    assert again.steps == tower.steps
    assert again.models[0] == tower.models[0]


def test_tower_doc_rejects_unknown_kind() -> None:
    doc = json.loads(json.dumps(TOWER_DOC))
    doc["steps"][0]["kind"] = "twist"
    with pytest.raises(MalformedInputError):
        tower_from_doc(doc)


def test_tower_doc_rejects_extra_step_field() -> None:
    doc = json.loads(json.dumps(TOWER_DOC))
    doc["steps"][1]["j"] = "v2"  # free steps take no second vertex
    with pytest.raises(MalformedInputError):
        tower_from_doc(doc)


def cone_doc() -> dict:
    return {
        "dim_X": 3,
        "num_basis": ["C0", "F"],
        "form": [["0", "1"], ["1", "0"]],
        "nef_gens": [["1", "0"], ["0", "1"]],
        "pseff_gens": [["1", "0"], ["0", "1"]],
        "K_V": ["-2", "0"],
        "H": ["1", "1"],
        "rigid": [{"class": ["1", "0"], "only_rep": [["C0", "1"]]}],
    }


def test_cone_doc_matches_builtin() -> None:
    c = cone_from_doc(cone_doc())
    builtin = ruled_surface_cone()
    assert c.facet_normals == builtin.facet_normals
    assert c.k_class == builtin.k_class
    assert c.h_power() == builtin.h_power()
    assert c.rigid_decomposition(c.k_class.scale(-1)) == (("C0", 2),)
    # serialization inverts parsing
    assert cone_from_doc(c.to_doc()).to_doc() == c.to_doc()


def test_cone_doc_rigid_optional() -> None:
    doc = cone_doc()
    del doc["rigid"]
    assert cone_from_doc(doc).rigid == ()


def test_cone_doc_strictness() -> None:
    doc = cone_doc()
    doc["polish"] = "high"
    with pytest.raises(MalformedInputError):
        cone_from_doc(doc)
    doc = cone_doc()
    doc["form"] = [["0", "1"]]
    with pytest.raises(MalformedInputError):
        cone_from_doc(doc)


def test_to_json_is_canonical() -> None:
    a = to_json({"b": 1, "a": [2, 3]})
    b = to_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_to_json_matches_json_dumps_on_random_documents() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(max_size=6) | st.sampled_from(
        ["", '"', "\\", "\n\t\x00\x7f", "\u00e9", "\u2028", "\U0001f600", "a/b"])
    scalars = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-(10 ** 80), max_value=-(10 ** 30)) | text)
    docs = st.recursive(scalars, lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.lists(text, max_size=4) | st.dictionaries(text, kids, max_size=4)
    ), max_leaves=16)

    @hypothesis.settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @hypothesis.given(docs)
    def check(doc) -> None:
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"

    check()


@pytest.mark.parametrize("doc", WRITER_DOCS)
def test_to_json_matches_json_dumps_on_string_dicts(doc) -> None:
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("doc", [1.5, {"a": [1, {2}]}, {"a": object()}, {1.5: "x"}, {(1,): 2}])
def test_to_json_refuses_what_it_does_not_render(doc) -> None:
    with pytest.raises(TypeError):
        to_json(doc)


def test_digest_is_stable_hex() -> None:
    d1 = digest({"x": 1, "y": 2})
    d2 = digest({"y": 2, "x": 1})
    assert d1 == d2
    assert len(d1) == 16
    assert set(d1) <= set("0123456789abcdef")
    assert digest({"x": 1}) != digest({"x": 2})


def test_load_json_errors(tmp_path) -> None:
    with pytest.raises(MalformedInputError) as exc:
        load_json(str(tmp_path / "absent.json"))
    assert exc.value.reason == "missing-file"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInputError) as exc:
        load_json(str(bad))
    assert exc.value.reason == "invalid-json"


def test_catalog_graph_survives_doc_round_trip() -> None:
    for name in ("A3", "D5", "E7", "cusp-4", "cone-g2-d2"):
        g = graph_by_name(name)
        assert graph_from_doc(g.to_doc()) == g


def test_oversized_graph_doc_is_refused_before_any_vertex() -> None:
    from singvol import DomainError
    from singvol.graph import MAX_GRAPH_VERTICES

    # entries that are not vertices at all: the size check comes first
    doc = {"vertices": [None] * (MAX_GRAPH_VERTICES + 1), "edges": []}
    with pytest.raises(DomainError) as exc:
        graph_from_doc(doc)
    assert exc.value.reason == "too-large"
    doc["vertices"] = doc["vertices"][:MAX_GRAPH_VERTICES]
    with pytest.raises(MalformedInputError):
        graph_from_doc(doc)


def test_graph_doc_over_the_entry_bit_budget_is_refused_before_any_vertex(monkeypatch) -> None:
    import singvol.graph
    from singvol import DomainError
    from singvol.graph import MAX_ENTRY_BITS

    # one vertex of large degree: self_int has MAX_ENTRY_BITS - 1 bits, genus 1 one
    doc = {"vertices": [{"id": "c", "self_int": -(2 ** (MAX_ENTRY_BITS - 2)), "genus": 1}],
           "edges": []}
    assert graph_from_doc(doc).vertices[0].genus == 1
    doc["vertices"][0]["genus"] = 2

    def no_vertex(*args):
        raise AssertionError("a Vertex was built")

    monkeypatch.setattr(singvol.graph, "Vertex", no_vertex)
    with pytest.raises(DomainError) as exc:
        graph_from_doc(doc)
    assert exc.value.reason == "too-large"
    assert f"{MAX_ENTRY_BITS + 1} bits" in str(exc.value)


def test_graph_doc_with_too_many_cycles_is_refused_before_any_vertex() -> None:
    from singvol import DomainError
    from singvol.graph import MAX_CYCLE_RANK

    # n vertices and n - 1 + r edge records have cycle rank r
    n = 10
    doc = {"vertices": [None] * n, "edges": [None] * (n + MAX_CYCLE_RANK)}
    with pytest.raises(DomainError) as exc:
        graph_from_doc(doc)
    assert exc.value.reason == "too-large"
    assert f"cycle rank {MAX_CYCLE_RANK + 1}" in str(exc.value)
    doc["edges"].pop()
    with pytest.raises(MalformedInputError):
        graph_from_doc(doc)
