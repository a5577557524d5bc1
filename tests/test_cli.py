"""Command line surface: reports, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest

from singvol.cli import _COMMANDS, main
from singvol.cone import MAX_FACET_SUBSETS, PolarizedCone

GRAPH_DOC = {
    "vertices": [
        {"id": "c", "self_int": -2, "genus": 2},
        {"id": "t", "self_int": -2, "genus": 0},
    ],
    "edges": [{"i": "c", "j": "t"}],
}

TOWER_DOC = {
    "base": {
        "vertices": [
            {"id": "v1", "self_int": -2, "genus": 0},
            {"id": "v2", "self_int": -2, "genus": 0},
        ],
        "edges": [{"i": "v1", "j": "v2"}],
    },
    "steps": [{"kind": "satellite", "i": "v1", "j": "v2"}],
}


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else {}


def test_graph_vol_catalog(capsys) -> None:
    code, doc = run(capsys, "graph", "vol", "catalog:cone-g2-d1")
    assert code == 0
    assert doc["command"] == "graph vol"
    assert doc["inputs"]["source"] == "catalog:cone-g2-d1"
    assert len(doc["inputs"]["digest"]) == 16
    assert doc["result"]["volume"] == "4"
    assert doc["result"]["is_lc"] is False
    assert doc["result"]["P"] == {"c": "-2"}
    assert doc["result"]["active"] == []


def test_graph_lc_catalog(capsys) -> None:
    code, doc = run(capsys, "graph", "lc", "catalog:E8")
    assert code == 0
    assert doc["result"]["is_lc"] is True
    assert doc["result"]["volume"] == "0"


def test_graph_discrepancies_from_file(tmp_path, capsys) -> None:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GRAPH_DOC), encoding="utf-8")
    code, doc = run(capsys, "graph", "discrepancies", str(path))
    assert code == 0
    assert doc["result"]["b"] == {"c": "8/3", "t": "4/3"}
    assert doc["result"]["ell"] == {"c": "-5/3", "t": "-1/3"}
    assert doc["result"]["is_lc"] is False


def test_graph_lcmod_lists_both_vertices(tmp_path, capsys) -> None:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GRAPH_DOC), encoding="utf-8")
    code, doc = run(capsys, "graph", "lcmod", str(path))
    assert code == 0
    assert doc["result"]["lc_mod_support"] == ["c", "t"]


def test_graph_blowup_tower(tmp_path, capsys) -> None:
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TOWER_DOC), encoding="utf-8")
    code, doc = run(capsys, "graph", "blowup", str(path))
    assert code == 0
    assert doc["result"]["ok"] is True


@pytest.mark.parametrize("steps", [51, 120])
def test_graph_blowup_tower_over_the_step_limit_exits_1(tmp_path, capsys, steps) -> None:
    doc = dict(TOWER_DOC, steps=[{"kind": "free", "i": "v1"}] * steps)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "graph", "blowup", str(path))
    assert code == 1
    assert out["error"]["reason"] == "too-large"
    assert str(steps) in out["error"]["message"]


def test_json_integer_beyond_int_parsing_is_too_large(tmp_path, capsys) -> None:
    # json parses integers with int(), which refuses more than 4,300 digits;
    # that ended in a traceback instead of a JSON error
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": [{"id": "c", "self_int": -' + "9" * 5000
                    + ', "genus": 0}], "edges": []}', encoding="utf-8")
    code, out = run(capsys, "graph", "vol", str(path))
    assert code == 1
    assert out["error"]["reason"] == "too-large"


def test_reports_are_byte_identical(tmp_path, capsys) -> None:
    code1 = main(["graph", "vol", "catalog:E6"])
    out1 = capsys.readouterr().out
    code2 = main(["graph", "vol", "catalog:E6"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_out_flag_writes_the_same_document(tmp_path, capsys) -> None:
    target = tmp_path / "report.json"
    code = main(["graph", "vol", "catalog:E6", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    code = main(["graph", "vol", "catalog:E6"])
    stdout_doc = capsys.readouterr().out
    assert code == 0
    assert target.read_text(encoding="utf-8") == stdout_doc


def test_malformed_graph_file_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": []}', encoding="utf-8")
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert "error" in doc
    assert doc["error"]["reason"]


def test_invalid_json_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert doc["error"]["reason"] == "invalid-json"


def test_non_utf8_input_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"vertices": [{"id": "\xe9", "self_int": -2, "genus": 0}], "edges": []}')
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert doc["error"]["reason"] == "invalid-encoding"


def test_deeply_nested_json_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert doc["error"]["reason"] == "too-deeply-nested"


def test_unwritable_out_path_exits_2_on_stdout(tmp_path, capsys) -> None:
    target = tmp_path / "no-such-dir" / "report.json"
    code, doc = run(capsys, "graph", "vol", "catalog:E6", "--out", str(target))
    assert code == 2
    assert doc["error"]["reason"] == "unwritable-output"
    assert not target.exists()


def test_unknown_catalog_name_exits_2(capsys) -> None:
    code, doc = run(capsys, "graph", "vol", "catalog:Z9")
    assert code == 2
    assert doc["error"]["reason"] == "unknown-catalog-name"


BIG = "9" * 5000  # past the 4,300 digits int parses
RULED = ("catalog:paper-ruled-surface",)


@pytest.mark.parametrize("argv, code, reason, message", [
    # catalog names: unknown, invalid parameters, too large, for graphs and cones
    (("graph", "vol", "catalog:nosuch"), 2, "unknown-catalog-name",
     "unknown catalog graph 'nosuch'"),
    (("cone", "bound", "catalog:nosuch", "--a", "1/2"), 2, "unknown-catalog-name",
     "unknown catalog cone 'nosuch'"),
    (("graph", "vol", "catalog:cone-g1-d0"), 2, "malformed-input",
     "cone graph needs genus >= 0 and degree >= 1"),
    (("cone", "bound", "catalog:cone-g1-d0", "--a", "1/2"), 2, "malformed-input",
     "catalog name 'cone-g1-d0' has invalid parameters: need genus >= 0 and degree >= 1"),
    (("graph", "vol", f"catalog:A{BIG}"), 1, "too-large",
     "catalog number of 5000 digits is too large"),
    (("graph", "vol", "catalog:A100000"), 1, "too-large",
     "graph has 100000 vertices, above the limit of 700"),
    (("cone", "bound", f"catalog:elliptic-cone-{BIG}", "--a", "1/2"), 1, "too-large",
     "catalog number of 5000 digits is too large"),
    # parameter checks of the catalog builders and the commands
    (("graph", "vol", "catalog:D3"), 2, "malformed-input", "D_n needs n >= 4"),
    (("graph", "vol", "catalog:simple-elliptic-0"), 2, "malformed-input",
     "simple elliptic graph needs d >= 1"),
    (("graph", "random-suite", "--count", "0"), 1, "domain-error",
     "need --count >= 1 and --max-vertices >= 1"),
    (("cone", "valuation", *RULED, "--class", "1", "--k", "3"), 2, "malformed-input",
     "--class needs 2 comma-separated rationals (basis C0, F)"),
    (("cone", "valuation", *RULED, "--class", "1,0", "--k", "0"), 1, "domain-error",
     "--k must be a positive integer"),
    (("cone", "limiting", *RULED, "--m", "0"), 1, "domain-error",
     "--m must be a positive integer"),
    # the slope functionals' refusals that a cone command reaches
    (("cone", "counterexample", "--a-seq", "1/4,1/2"), 1, "not-decreasing",
     "a_seq must be strictly decreasing"),
    (("cone", "counterexample", "--a-seq", "1/2,0"), 1, "nonpositive-slope",
     "a_seq must be positive"),
    (("cone", "bound", "catalog:cone-g2-d1", "--a", "1/2"), 1, "boundary-not-effective",
     "no effective boundary at a = 1/2"),
])
def test_refusal_reason_message_and_exit_code(capsys, argv, code, reason, message) -> None:
    assert run(capsys, *argv) == (code, {"error": {"reason": reason, "message": message}})


def test_exit_codes_belong_to_the_error_classes() -> None:
    from singvol import errors

    assert errors.SingvolError("x").exit_code == 1
    assert errors.DomainError("x").exit_code == 1
    assert errors.SingularSystemError("x").exit_code == 1
    assert errors.OracleSizeError("x").exit_code == 1
    assert errors.MalformedInputError("x").exit_code == 2
    assert errors.InternalConsistencyError("x").exit_code == 3


def test_not_negative_definite_graph_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "self_int": -1, "genus": 0},
                    {"id": "b", "self_int": -1, "genus": 0},
                ],
                "edges": [{"i": "a", "j": "b"}],
            }
        ),
        encoding="utf-8",
    )
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert doc["error"]["reason"] == "not-negative-definite"


@pytest.mark.parametrize("isolated_first", [True, False])
def test_disconnected_graph_exits_2(tmp_path, capsys, isolated_first) -> None:
    vertices = [{"id": v, "self_int": -2, "genus": 0} for v in ("a", "b", "c")]
    if isolated_first:
        vertices.reverse()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": vertices, "edges": [{"i": "a", "j": "b"}]}),
                   encoding="utf-8")
    code, doc = run(capsys, "graph", "vol", str(bad))
    assert code == 2
    assert doc["error"]["reason"] == "not-connected"
    assert "context" not in doc["error"]


def test_cone_bound_value(capsys) -> None:
    code, doc = run(capsys, "cone", "bound", "catalog:paper-ruled-surface", "--a", "1/2")
    assert code == 0
    assert doc["result"]["vol_upper_bound"] == "1/4"
    assert doc["result"]["log_discrepancy"] == "-1/2"
    assert doc["result"]["boundary"]["class"] == ["5/2", "1/2"]
    assert "positivity" in doc["result"]["bound_scope"]


def test_cone_bound_without_effective_boundary_exits_1(capsys) -> None:
    code, doc = run(capsys, "cone", "bound", "catalog:cone-g2-d1", "--a", "1/2")
    assert code == 1
    assert doc["error"]["reason"] == "boundary-not-effective"


def test_cone_too_large_for_facet_enumeration_exits_1(tmp_path, capsys) -> None:
    # basis 5 on the moment curve: C(m, 4) generator subsets, over the limit
    m = next(m for m in range(5, 200) if math.comb(m, 4) > MAX_FACET_SUBSETS)
    gens = [[str(t ** p) for p in range(5)] for t in range(-(m // 2), m - m // 2)]
    h = [str(sum(int(g[p]) for g in gens)) for p in range(5)]
    doc = {
        "dim_X": 3,
        "num_basis": ["e0", "e1", "e2", "e3", "e4"],
        "form": [[1 if i == j else 0 for j in range(5)] for i in range(5)],
        "nef_gens": [h],
        "pseff_gens": gens,
        "K_V": ["0"] * 5,
        "H": h,
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "cone", "limiting", str(path), "--m", "1")
    assert code == 1
    assert out["error"]["reason"] == "too-large"
    assert str(MAX_FACET_SUBSETS) in out["error"]["message"]


def test_cone_valuation(capsys) -> None:
    code, doc = run(
        capsys,
        "cone", "valuation", "catalog:paper-ruled-surface",
        "--class", "1,0", "--k", "3",
    )
    assert code == 0
    assert doc["result"]["natural_valuation"] == 3
    assert doc["result"]["valuation_limit"] == "1"
    assert doc["result"]["normalized_gap"] == "0"


def test_cone_valuation_evaluates_the_slope_once(capsys, monkeypatch) -> None:
    # a slope is computed when the class's entry has no slope yet; a call
    # that finds it kept computes nothing
    calls = []
    slope = PolarizedCone._slope

    def counted(self, cls):
        last, entry = self._last
        if cls != last or entry[2] is None:
            calls.append(cls)
        return slope(self, cls)

    monkeypatch.setattr(PolarizedCone, "_slope", counted)
    code, doc = run(capsys, "cone", "valuation", "catalog:paper-ruled-surface",
                    "--class", "1/2,5/2", "--k", "2")
    assert code == 0
    assert (doc["result"]["natural_valuation"], doc["result"]["valuation_limit"]) == (5, "5/2")
    assert len(calls) == 1


def test_cone_bound_builds_one_boundary_class(capsys, monkeypatch) -> None:
    # the bound and the log discrepancy decide effectivity in integers; only
    # the reported record is a built class
    from singvol import cone as cone_module

    built = []
    boundary = cone_module.BoundaryClass

    def counted(**fields):
        built.append(fields["a"])
        return boundary(**fields)

    monkeypatch.setattr(cone_module, "BoundaryClass", counted)
    code, doc = run(capsys, "cone", "bound", "catalog:paper-ruled-surface", "--a", "1/2")
    assert code == 0
    assert doc["result"]["boundary"]["class"] == ["5/2", "1/2"]
    assert (doc["result"]["log_discrepancy"], doc["result"]["vol_upper_bound"]) == ("-1/2", "1/4")
    assert len(built) == 1


def test_cone_limiting_carries_caveat(capsys) -> None:
    code, doc = run(
        capsys,
        "cone", "limiting", "catalog:paper-ruled-surface", "--m", "2",
    )
    assert code == 0
    assert doc["result"]["limiting_discrepancy"] == "0"
    assert "caveat" in doc["result"]


def test_cone_counterexample_report(capsys) -> None:
    code, doc = run(capsys, "cone", "counterexample")
    assert code == 0
    rows = doc["result"]["table"]["rows"]
    assert [r["upper_bound"] for r in rows[:5]] == ["2", "1/4", "1/32", "1/256", "1/2048"]
    assert doc["result"]["lc_boundary"]["exists"] is False
    assert len(doc["result"]["lc_boundary"]["certificate"]) == 3
    labels = {(v["claim"], v["status"]) for v in doc["result"]["table"]["not_desk_verifiable"]}
    assert ("every-truncated-volume-positive", "cited-not-computed") in labels
    assert ("augmented-volume-equals-local-volume", "open-not-computed") in labels
    limits = doc["result"]["limiting_discrepancies"]
    assert set(limits) == {"1", "2", "3", "4", "6", "12"}
    assert all(value == "0" for value in limits.values())


def test_cone_counterexample_decides_the_lc_verdict_once(capsys, monkeypatch) -> None:
    import singvol.cone as cone_module

    calls = []
    verdict = cone_module.lc_boundary_exists

    def counted(cone):
        calls.append(cone)
        return verdict(cone)

    monkeypatch.setattr(cone_module, "lc_boundary_exists", counted)
    code, doc = run(capsys, "cone", "counterexample")
    assert code == 0
    assert doc["result"]["lc_boundary"] == doc["result"]["table"]["lc_boundary"]
    assert len(calls) == 1


RULED_DOC = {
    "dim_X": 3,
    "num_basis": ["C0", "F"],
    "form": [["0", "1"], ["1", "0"]],
    "nef_gens": [["1", "0"], ["0", "1"]],
    "pseff_gens": [["1", "0"], ["0", "1"]],
    "K_V": ["-2", "0"],
    "H": ["1", "1"],
}


@pytest.mark.parametrize("patch, message", [
    pytest.param({"form": [1]}, "form must be a list of rows", id="form-row-int"),
    pytest.param({"form": [["0", "1"], 5]}, "form must be a list of rows", id="form-row-late"),
    pytest.param({"rigid": 5}, "rigid must be a list of annotations", id="rigid-int"),
    pytest.param({"rigid": {"x": 1}}, "rigid must be a list of annotations", id="rigid-object"),
])
def test_malformed_cone_document_exits_2(tmp_path, capsys, patch, message) -> None:
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({**RULED_DOC, **patch}), encoding="utf-8")
    code, out = run(capsys, "cone", "limiting", str(path), "--m", "2")
    assert code == 2
    assert out["error"] == {"message": message, "reason": "malformed-input"}


def test_cone_dcc_scan(capsys) -> None:
    code, doc = run(capsys, "cone", "dcc-scan", "--g-max", "5", "--a-max", "3")
    assert code == 0
    assert doc["result"]["min_volume"] == "2"
    assert doc["result"]["min_witnesses"] == [{"g": 2, "a": 1, "d": 2}]


def test_cone_dcc_scan_grid_too_large_exits_1(capsys) -> None:
    # a million cells, 1.6 s of graph solves before the grid was bounded
    code, out = run(capsys, "cone", "dcc-scan", "--g-max", "1000", "--a-max", "1000")
    assert code == 1
    assert out["error"]["reason"] == "too-large"


def test_random_suite_is_deterministic(capsys) -> None:
    code1 = main(["graph", "random-suite", "--count", "3", "--seed", "11"])
    out1 = capsys.readouterr().out
    code2 = main(["graph", "random-suite", "--count", "3", "--seed", "11"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 11
    assert doc["result"]["ok"] is True
    assert doc["result"]["oracle_comparisons"] == 3
    assert doc["result"]["tower_checks"] == 3
    assert doc["result"]["failures"] == []


def test_random_suite_failure_says_which_case(capsys, monkeypatch) -> None:
    # the oracle runs once per case (the trace also runs inside volume and
    # the pullback check), so its third call is case 2's
    import singvol.envelope
    from singvol.errors import InternalConsistencyError

    calls = []
    oracle = singvol.envelope.zariski_oracle

    def failing_oracle(graph, a):
        calls.append(graph)
        if len(calls) == 3:
            raise InternalConsistencyError("oracle disagrees")
        return oracle(graph, a)

    monkeypatch.setattr(singvol.envelope, "zariski_oracle", failing_oracle)
    code, out = run(capsys, "graph", "random-suite", "--count", "5", "--seed", "4")
    assert code == 3
    assert out["error"] == {"reason": "internal-consistency", "message": "oracle disagrees",
                            "context": {"seed": 4, "case": 2, "max_vertices": 5}}


def test_random_suite_rejects_oversized_graphs(capsys) -> None:
    code, doc = run(capsys, "graph", "random-suite", "--count", "1", "--max-vertices", "13")
    assert code == 1


def test_catalog_list(capsys) -> None:
    code, doc = run(capsys, "catalog", "list")
    assert code == 0
    assert doc["result"]["graphs"]["fixed"] == ["E6", "E7", "E8"]
    assert "paper-ruled-surface" in doc["result"]["cones"]["fixed"]
    assert any(p.startswith("A<n>") for p in doc["result"]["graphs"]["patterns"])


def test_failed_canonical_certificate_exits_3(monkeypatch, capsys) -> None:
    from singvol import lattice

    substitute = lattice._substitute

    def wrong(factor, rhs):
        d, y = substitute(factor, rhs)
        return d, [y[0] + 1, *y[1:]]

    monkeypatch.setattr(lattice, "_substitute", wrong)
    code, doc = run(capsys, "graph", "vol", "catalog:E6")
    assert code == 3
    assert doc["error"]["reason"] == "internal-consistency"
    assert "M b = -k" in doc["error"]["message"]


@pytest.mark.parametrize("argv, module, name", [
    (("graph", "vol", "catalog:E6"), "singvol.envelope", "volume"),
    (("cone", "valuation", "catalog:paper-ruled-surface", "--class", "1,1", "--k", "3"),
     "singvol.cone", "valuation_limit"),
])
def test_internal_failure_carries_the_input_digest(monkeypatch, capsys, argv, module, name
                                                   ) -> None:
    import importlib

    from singvol.errors import InternalConsistencyError

    code, doc = run(capsys, *argv)
    assert code == 0
    inputs = doc["inputs"]
    assert set(inputs) == {"source", "digest"}

    def failing(*args, **kwargs):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(importlib.import_module(module), name, failing)
    code, doc = run(capsys, *argv)
    assert code == 3
    assert doc["error"] == {"reason": "internal-consistency", "message": "injected",
                            "context": inputs}


def test_argparse_usage_error_exits_2() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["graph"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["A" + "9" * 5000, "simple-elliptic-" + "9" * 5000])
def test_catalog_number_beyond_int_parsing_is_too_large(capsys, name: str) -> None:
    # Python parses at most 4,300 digits; past that the name is refused as
    # a size, with a JSON error and exit 1
    code, out = run(capsys, "graph", "lc", f"catalog:{name}")
    assert code == 1
    assert out["error"]["reason"] == "too-large"


def test_rational_option_with_a_huge_exponent_is_refused_at_once(capsys) -> None:
    # Fraction would expand 10**1000000 first: 2.2 s before the result was refused
    start = time.perf_counter()
    code, out = run(capsys, "cone", "bound", "catalog:paper-ruled-surface", "--a", "1e1000000")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out["error"]["reason"] == "too-large" and len(out["error"]["message"]) < 100


_RULED = "catalog:paper-ruled-surface"


@pytest.mark.parametrize("argv", [
    ("cone", "valuation", _RULED, "--class", "1,0", "--k", "x"),
    ("cone", "limiting", _RULED, "--m", "1.5"),
    ("graph", "random-suite", "--count", "ten"),
    ("graph", "random-suite", "--seed", "0x1"),
    ("graph", "random-suite", "--max-vertices", ""),
    ("cone", "dcc-scan", "--g-max", "2", "--a-max", "1/2"),
    ("cone", "dcc-scan", "--g-max", "two", "--a-max", "2"),
    ("cone", "bound", _RULED),
    ("graph", "vol"),
    ("graph", "no-such-command", "catalog:E8"),
    ("no-such-group",),
    ("graph", "vol", "catalog:E8", "--no-such-option"),
])
def test_refused_command_line_is_one_json_error(capsys, tmp_path, argv) -> None:
    # argparse's usage text is replaced by the JSON error; the call still
    # ends in SystemExit(2), as an argparse error did
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["reason"] == "malformed-input" and error["message"].startswith("singvol")
    # with --out, the error goes there
    target = tmp_path / "error.json"
    with pytest.raises(SystemExit):
        main([*argv, "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8")) == {"error": error}


@pytest.mark.parametrize("option", ["--count", "--seed", "--max-vertices"])
def test_integer_option_beyond_int_parsing_is_too_large(capsys, option) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["graph", "random-suite", option, "9" * 5000])
    assert exc.value.code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["reason"] == "too-large" and len(error["message"]) < 200


def test_rational_option_beyond_int_parsing_is_too_large(capsys) -> None:
    # a 5,000-digit --a is a size (exit 1) with a short message, not a
    # malformed input echoed in full; a malformed one still exits 2
    code, out = run(capsys, "cone", "bound", "catalog:paper-ruled-surface",
                    "--a", "1/" + "9" * 5000)
    assert code == 1
    assert out["error"]["reason"] == "too-large"
    assert "5,001 digits" in out["error"]["message"] and len(out["error"]["message"]) < 200
    code, out = run(capsys, "cone", "bound", "catalog:paper-ruled-surface", "--a", "1/x")
    assert code == 2
    assert out["error"] == {"message": "not a rational: '1/x'", "reason": "malformed-input"}


NINES = "9" * 1500


@pytest.mark.parametrize("argv, doc", [
    pytest.param(("cone", "bound", "catalog:paper-ruled-surface", "--a", "1/" + NINES), None,
                 id="bound-slope"),
    pytest.param(("cone", "valuation", "catalog:paper-ruled-surface",
                  "--class", "9" * 4200 + ",1", "--k", "9" * 4200), None, id="valuation"),
    pytest.param(("cone", "counterexample", "--a-seq", NINES), None, id="counterexample"),
    # H^2 has about 6,000 digits, though every entry is within the limits
    pytest.param(("cone", "bound", "--a", "1"), {**RULED_DOC, "H": ["9" * 3000, "9" * 3000]},
                 id="bound-document"),
])
def test_result_beyond_int_printing_is_too_large(tmp_path, capsys, argv, doc) -> None:
    # every input parses, but the result has more digits than Python prints (4,300)
    if doc is not None:
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = (*argv[:2], str(path), *argv[2:])
    code, out = run(capsys, *argv)
    assert code == 1
    assert out["error"]["reason"] == "too-large"


def test_asymmetric_cone_form_exits_2(tmp_path, capsys) -> None:
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({**RULED_DOC, "form": [["0", "0"], ["1", "0"]]}),
                    encoding="utf-8")
    code, out = run(capsys, "cone", "bound", str(path), "--a", "1/2")
    assert code == 2
    assert out["error"] == {"message": "form matrix is not symmetric at (1, 0)",
                            "reason": "malformed-input"}


# (command, options after the document, the valid document it reads)
FUZZ_TARGETS = [
    (("graph", "vol"), (), GRAPH_DOC),
    (("graph", "discrepancies"), (), GRAPH_DOC),
    (("graph", "blowup"), (), TOWER_DOC),
    (("cone", "bound"), ("--a", "1/2"), RULED_DOC),
    (("cone", "valuation"), ("--class", "1,0", "--k", "3"), RULED_DOC),
]
FUZZ_KEYS = ["vertices", "edges", "id", "self_int", "genus", "i", "j", "mult", "base",
             "steps", "kind", "edge", "form", "nef_gens", "K_V", "H", "rigid", "extra"]


def test_mutated_documents_end_in_one_json_report() -> None:
    # documents are mutated by dropping and adding keys, swapping in random
    # JSON values, deep nesting, long integers and "p/q" strings; whatever
    # the mutation, the command prints one JSON document and exits 0, 1 or 2
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.sampled_from(["1/2", "-7/3", "0/5", "1/0", "2/-3", " 4 ", "1.5", "p/q",
                                 "9" * 5000 + "/7", "7/" + "9" * 1300])
    scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4) | rationals
    values = st.recursive(scalars, lambda kids: st.lists(kids, max_size=3)
                          | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                          max_leaves=8)
    splices: list[str] = []  # raw JSON text json.dumps cannot write, by token

    def splice(raw: str) -> str:
        splices.append(raw)
        return f"@splice{len(splices) - 1}@"

    def mutate(data, node):
        if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            node[key] = mutate(data, node[key])
            return node
        op = data.draw(st.sampled_from(["drop", "add", "replace", "nest", "long", "rational"]))
        if op == "drop" and isinstance(node, (dict, list)) and node:
            del node[data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                               else range(len(node))))]
        elif op == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(FUZZ_KEYS) | st.text(max_size=4))] = data.draw(values)
        elif op == "add" and isinstance(node, list):
            node.append(data.draw(values))
        elif op == "nest":
            depth = data.draw(st.sampled_from([2, 40, 5000]))
            return splice("[" * depth + json.dumps(node) + "]" * depth)
        elif op == "long":
            return splice(data.draw(st.sampled_from(["", "-"]))
                          + "9" * data.draw(st.sampled_from([30, 1300, 4400])))
        elif op == "rational":
            return data.draw(rationals)
        else:
            return data.draw(values)
        return node

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(FUZZ_TARGETS), st.data())
    def check(target, data) -> None:
        command, options, doc = target
        splices.clear()
        doc = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate(data, doc)
        text = json.dumps(doc)
        for k in reversed(range(len(splices))):  # a later splice may hold an earlier one
            text = text.replace(json.dumps(f"@splice{k}@"), splices[k])
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(out):
                code = main([*command, str(path), *options])
        assert code in (0, 1, 2), out.getvalue()[:400]
        report = json.loads(out.getvalue())  # one document, nothing after it
        assert ("error" in report) == (code != 0)
        if code:
            assert isinstance(report["error"]["reason"], str)

    check()


def _registered() -> list[tuple[str, str]]:
    return [(group, name) for group, name, *_ in _COMMANDS]


def test_every_command_documents_out(capsys) -> None:
    assert len(_registered()) == 12
    for group, name in _registered():
        with pytest.raises(SystemExit) as exc:
            main([group, name, "--help"])
        assert exc.value.code == 0
        words = " ".join(capsys.readouterr().out.split())
        assert "--out OUT write the report here instead of stdout" in words, (group, name)


def test_readme_lists_exactly_the_registered_commands() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [tuple(line.split()[1:3]) for line in block.splitlines()]
    assert sorted(documented) == sorted(_registered())


def test_out_replaces_stdout_for_reports_and_errors(tmp_path, capsys) -> None:
    target = tmp_path / "report.json"
    assert main(["graph", "lc", "catalog:E8", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["command"] == "graph lc"
    assert main(["graph", "lc", "catalog:no-such-graph", "--out", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert "error" in json.loads(target.read_text(encoding="utf-8"))
