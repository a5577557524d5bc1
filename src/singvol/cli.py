"""Command line interface.

Every command emits one JSON report to stdout (or ``--out``), canonically
rendered so identical inputs and seeds give byte-identical bytes. Exit
codes: 0 success, 1 domain error, 2 malformed input, 3 internal
consistency failure. Errors are reported as a JSON object with a
machine-readable ``reason`` slug.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from . import catalog as cat
from . import io as sio
from .cone import (
    boundary_class,
    cone_log_discrepancy,
    dcc_scan,
    lc_boundary_exists,
    limiting_discrepancy,
    natural_valuation,
    valuation_limit,
    vol_plus_table,
    vol_upper_bound,
    STATUS_CITED,
)
from .envelope import nef_envelope_trace, volume, zariski_oracle
from .errors import (
    DomainError,
    InternalConsistencyError,
    MalformedInputError,
    SingvolError,
)
from .lattice import QVector, rat, rat_str
from .randgen import random_divisor, random_graph, random_tower
from .tower import envelope_pullback_check, invariance_report


def _load_graph(source: str):
    if source.startswith("catalog:"):
        graph = cat.graph_by_name(source[len("catalog:"):])
    else:
        graph = sio.graph_from_doc(sio.load_json(source))
    return graph, {"source": source, "digest": sio.digest(graph.to_doc())}


def _load_cone(source: str):
    if source.startswith("catalog:"):
        cone = cat.cone_by_name(source[len("catalog:"):])
    else:
        cone = sio.cone_from_doc(sio.load_json(source))
    return cone, {"source": source, "digest": sio.digest(cone.to_doc())}


def _parse_class(cone, text: str) -> QVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(cone.basis):
        raise MalformedInputError(
            f"--class needs {len(cone.basis)} comma-separated rationals "
            f"(basis {', '.join(cone.basis)})"
        )
    return QVector(rat(p) for p in parts)


def _emit(report: dict, out: str | None) -> None:
    text = sio.to_json(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedInputError(
                f"cannot write {out}: {exc}", reason="unwritable-output"
            ) from exc
    else:
        sys.stdout.write(text)


# -- graph commands -------------------------------------------------------------


def _cmd_graph_vol(args) -> tuple[dict, int]:
    graph, inputs = _load_graph(args.source)
    report = volume(graph)
    return {"command": "graph vol", "inputs": inputs, "result": report.to_doc()}, 0


def _cmd_graph_discrepancies(args) -> tuple[dict, int]:
    graph, inputs = _load_graph(args.source)
    return {
        "command": "graph discrepancies",
        "inputs": inputs,
        "result": graph.discrepancy_report().to_doc(),
    }, 0


def _cmd_graph_lc(args) -> tuple[dict, int]:
    graph, inputs = _load_graph(args.source)
    report = volume(graph)
    return {
        "command": "graph lc",
        "inputs": inputs,
        "result": {"is_lc": report.is_lc, "volume": rat_str(report.volume)},
    }, 0


def _cmd_graph_lcmod(args) -> tuple[dict, int]:
    graph, inputs = _load_graph(args.source)
    report = graph.discrepancy_report()
    return {
        "command": "graph lcmod",
        "inputs": inputs,
        "result": {
            "is_lc": report.is_lc,
            "lc_mod_support": sorted(report.lc_mod_support),
        },
    }, 0


def _cmd_graph_blowup(args) -> tuple[dict, int]:
    tower = sio.tower_from_doc(sio.load_json(args.source))
    inputs = {"source": args.source, "digest": sio.digest(sio.tower_to_doc(tower))}
    report = invariance_report(tower)
    doc = {
        "command": "graph blowup",
        "inputs": inputs,
        "result": report.to_doc(),
        "models": [g.to_doc() for g in tower.models],
    }
    return doc, 0 if report.ok else 3


def _cmd_graph_random_suite(args) -> tuple[dict, int]:
    if args.count < 1 or args.max_vertices < 1:
        raise DomainError("need --count >= 1 and --max-vertices >= 1")
    if args.max_vertices > 12:
        raise DomainError(
            "--max-vertices above 12 would exceed the oracle bound",
            reason="oracle-size",
        )
    rng = Random(args.seed)
    failures: list[dict] = []
    oracle_checked = tower_checked = 0
    for case in range(args.count):
        graph = random_graph(rng, args.max_vertices)
        a = random_divisor(rng, graph)
        trace = nef_envelope_trace(graph, a)
        oracle = zariski_oracle(graph, a)
        oracle_checked += 1
        if (trace.p.coeffs, trace.n.coeffs, trace.active) != (
            oracle.p.coeffs,
            oracle.n.coeffs,
            oracle.active,
        ):
            failures.append(
                {
                    "case": case,
                    "check": "envelope-vs-oracle",
                    "graph": graph.to_doc(),
                    "a": a.to_doc(),
                    "trace": trace.to_doc(),
                    "oracle": oracle.to_doc(),
                }
            )
        tower = random_tower(rng, graph)
        inv = invariance_report(tower)
        tower_checked += 1
        if not inv.ok:
            failures.append(
                {
                    "case": case,
                    "check": "tower-invariance",
                    "tower": sio.tower_to_doc(tower),
                    "failures": [c.to_doc() for c in inv.failures()],
                }
            )
        if not envelope_pullback_check(tower, a):
            failures.append(
                {
                    "case": case,
                    "check": "envelope-pullback",
                    "tower": sio.tower_to_doc(tower),
                    "a": a.to_doc(),
                }
            )
    doc = {
        "command": "graph random-suite",
        "inputs": {"count": args.count, "max_vertices": args.max_vertices},
        "seed": args.seed,
        "result": {
            "oracle_comparisons": oracle_checked,
            "tower_checks": tower_checked,
            "failures": failures,
            "ok": not failures,
        },
    }
    return doc, 0 if not failures else 3


# -- cone commands ----------------------------------------------------------------


def _cmd_cone_bound(args) -> tuple[dict, int]:
    cone, inputs = _load_cone(args.source)
    a = rat(args.a)
    bound = vol_upper_bound(cone, a)  # domain error when a <= 0 or no boundary
    bc = boundary_class(cone, a)
    result = {
        "boundary": bc.to_doc(),
        "log_discrepancy": rat_str(cone_log_discrepancy(cone, a)),
        "vol_upper_bound": rat_str(bound),
        "bound_scope": (
            "upper bound for every truncated volume; positivity of those "
            "volumes is not decided here"
        ),
    }
    return {"command": "cone bound", "inputs": inputs, "result": result}, 0


def _cmd_cone_valuation(args) -> tuple[dict, int]:
    cone, inputs = _load_cone(args.source)
    cls = _parse_class(cone, args.cls)
    if args.k < 1:
        raise DomainError("--k must be a positive integer")
    value = natural_valuation(cone, cls, args.k)
    limit = valuation_limit(cone, cls)
    return {
        "command": "cone valuation",
        "inputs": inputs,
        "result": {
            "class": cls.to_doc(),
            "k": args.k,
            "natural_valuation": value,
            "valuation_limit": rat_str(limit),
            "normalized_gap": rat_str(abs(rat(value) / args.k - limit)),
        },
    }, 0


def _cmd_cone_limiting(args) -> tuple[dict, int]:
    cone, inputs = _load_cone(args.source)
    if args.m < 1:
        raise DomainError("--m must be a positive integer")
    value = limiting_discrepancy(cone, args.m)
    return {
        "command": "cone limiting",
        "inputs": inputs,
        "result": {
            "m": args.m,
            "limiting_discrepancy": rat_str(value),
            "caveat": {
                "claim": "truncated-volume-positivity",
                "status": STATUS_CITED,
                "detail": (
                    "this coefficient traces one divisor; whether the "
                    "m-truncated volume is positive is not decided by it"
                ),
            },
        },
    }, 0


def _cmd_cone_counterexample(args) -> tuple[dict, int]:
    cone = cat.ruled_surface_cone()
    inputs = {"source": "catalog:paper-ruled-surface", "digest": sio.digest(cone.to_doc())}
    if args.a_seq:
        slopes = [rat(p.strip()) for p in args.a_seq.split(",")]
    else:
        slopes = [rat(f"1/{2 ** k}") for k in range(11)]
    table = vol_plus_table(cone, slopes)
    verdict = lc_boundary_exists(cone)
    limits = {
        str(m): rat_str(limiting_discrepancy(cone, m)) for m in (1, 2, 3, 4, 6, 12)
    }
    return {
        "command": "cone counterexample",
        "inputs": inputs,
        "result": {
            "table": table,
            "lc_boundary": verdict.to_doc(),
            "limiting_discrepancies": limits,
        },
    }, 0


def _cmd_cone_dcc_scan(args) -> tuple[dict, int]:
    report = dcc_scan(args.g_max, args.a_max)
    return {
        "command": "cone dcc-scan",
        "inputs": {"g_max": args.g_max, "a_max": args.a_max},
        "result": report,
    }, 0


def _cmd_catalog_list(args) -> tuple[dict, int]:
    return {"command": "catalog list", "result": cat.catalog_entries()}, 0


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singvol",
        description=(
            "Exact volumes, log discrepancies and valuation bounds of normal "
            "surface and cone singularities."
        ),
    )
    sub = parser.add_subparsers(dest="group", required=True)

    graph = sub.add_parser("graph", help="resolution graph computations")
    gsub = graph.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("vol", _cmd_graph_vol, "volume with its Zariski decomposition"),
        ("discrepancies", _cmd_graph_discrepancies, "canonical pullback and log discrepancies"),
        ("lc", _cmd_graph_lc, "log canonicity flag and volume"),
        ("lcmod", _cmd_graph_lcmod, "vertices an lc modification must keep"),
    ):
        p = gsub.add_parser(name, help=blurb)
        p.add_argument("source", help="graph JSON file or catalog:<name>")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(fn=fn)
    p = gsub.add_parser("blowup", help="check all invariants along a blowup tower")
    p.add_argument("source", help="tower JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph_blowup)
    p = gsub.add_parser("random-suite", help="seeded envelope-oracle and tower suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-vertices", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph_random_suite)

    cone = sub.add_parser("cone", help="polarized cone computations")
    csub = cone.add_subparsers(dest="command", required=True)
    p = csub.add_parser("bound", help="boundary class and volume upper bound at a slope")
    p.add_argument("source", help="cone JSON file or catalog:<name>")
    p.add_argument("--a", required=True, help="slope, a rational like 1/2")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cone_bound)
    p = csub.add_parser("valuation", help="order of vanishing forced along the cone divisor")
    p.add_argument("source", help="cone JSON file or catalog:<name>")
    p.add_argument("--class", dest="cls", required=True,
                   help="comma-separated rationals in num_basis order")
    p.add_argument("--k", type=int, required=True, help="positive multiple")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cone_valuation)
    p = csub.add_parser("limiting", help="m-truncated log-discrepancy coefficient")
    p.add_argument("source", help="cone JSON file or catalog:<name>")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cone_limiting)
    p = csub.add_parser(
        "counterexample",
        help="full certificate report on the built-in ruled-surface cone",
    )
    p.add_argument("--a-seq", help="comma-separated decreasing positive slopes")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cone_counterexample)
    p = csub.add_parser("dcc-scan", help="Gorenstein cone volume scan")
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cone_dcc_scan)

    catalog = sub.add_parser("catalog", help="named graphs and cones")
    katsub = catalog.add_subparsers(dest="command", required=True)
    p = katsub.add_parser("list", help="list fixed names and name patterns")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_catalog_list)

    return parser


# Exit code per error class; the first matching entry wins.
_EXIT_CODES = ((MalformedInputError, 2), (InternalConsistencyError, 3), (SingvolError, 1))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        report, code = args.fn(args)
        _emit(report, out)
        return code
    except SingvolError as exc:
        error = {"error": {"reason": exc.reason, "message": str(exc)}}
        code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
    try:
        _emit(error, out)
    except MalformedInputError:  # --out itself is unwritable
        _emit(error, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
