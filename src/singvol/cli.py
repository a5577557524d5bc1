"""Command line interface.

Every command emits one JSON report to stdout (or ``--out``), canonically
rendered so identical inputs and seeds give byte-identical bytes. Exit
codes: 0 success, else the error class's ``exit_code``: 1 domain error,
2 malformed input, 3 internal consistency failure. Errors are reported as a JSON object with a
machine-readable ``reason`` slug; an internal consistency failure after a
command has read its input carries that input's ``source`` and ``digest``.
A command line the parser refuses gets such an error too (``too-large`` for
an integer option longer than Python's int parses); ``main`` then raises
``SystemExit`` with the exit code, as argparse does.

Start-up is most of a command's cost, so this module loads only ``errors``
and the writer ``render`` up front, and each command body imports the
modules it runs: ``catalog list`` loads none, as its names are listed here,
graph commands never load ``cone``, cone commands but ``dcc-scan`` never
load ``graph``, and only ``blowup`` and ``random-suite`` load ``tower``.
These and the package's ``__getattr__`` are the only call-time imports
allowed (``io`` states the rule). Only the named command gets a parser.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DomainError,
    InternalConsistencyError,
    MalformedInputError,
    SingvolError,
)
from .render import to_json


def _load(args):
    """The graph or cone of ``args.source``, ``catalog:<name>`` or a JSON
    file, with the report's ``inputs`` record, kept as ``args.inputs``."""
    from .io import digest, load_json

    if args.group == "graph":
        from .graph import graph_from_doc as from_doc
    else:
        from .cone import cone_by_name as by_name, cone_from_doc as from_doc
    if args.source.startswith("catalog:"):
        if args.group == "graph":  # catalog loads only for a catalog name
            from .catalog import graph_by_name as by_name
        obj = by_name(args.source[len("catalog:"):])
    else:
        obj = from_doc(load_json(args.source))
    args.inputs = {"source": args.source, "digest": digest(obj.to_doc())}
    return obj, args.inputs


# (group, command, help, arguments, body) of every command, in help order.
_COMMANDS: list[tuple] = []
_GROUPS = {"graph": "resolution graph computations",
           "cone": "polarized cone computations",
           "catalog": "named graphs and cones"}


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # int's digit limit, not malformed
            raise DomainError(f"integer {text[:24]}... has {len(text):,} characters, more "
                              "than Python's int parses", reason="too-large") from None
        raise


_int.__name__ = "int"  # the name argparse gives the type in its errors


def _arg(*flags, **options) -> tuple:
    """One ``add_argument`` call, as data."""
    return flags, options


def _command(group: str, name: str, blurb: str, *arguments: tuple):
    """Declare the decorated body as ``singvol <group> <name>``. The body
    returns its report without the ``command`` field, and an exit code."""
    def register(fn):
        _COMMANDS.append((group, name, blurb, arguments, fn))
        return fn
    return register


_GRAPH_SOURCE = _arg("source", help="graph JSON file or catalog:<name>")
_CONE_SOURCE = _arg("source", help="cone JSON file or catalog:<name>")


def _emit(report: dict, out: str | None) -> None:
    text = to_json(report)
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


@_command("graph", "vol", "volume with its Zariski decomposition", _GRAPH_SOURCE)
def _cmd_graph_vol(args) -> tuple[dict, int]:
    from .envelope import volume

    graph, inputs = _load(args)
    return {"inputs": inputs, "result": volume(graph).to_doc()}, 0


@_command("graph", "discrepancies", "canonical pullback and log discrepancies",
          _GRAPH_SOURCE)
def _cmd_graph_discrepancies(args) -> tuple[dict, int]:
    graph, inputs = _load(args)
    return {"inputs": inputs, "result": graph.discrepancy_report().to_doc()}, 0


@_command("graph", "lc", "log canonicity flag and volume", _GRAPH_SOURCE)
def _cmd_graph_lc(args) -> tuple[dict, int]:
    from .envelope import volume
    from .lattice import rat_str

    graph, inputs = _load(args)
    report = volume(graph)
    return {
        "inputs": inputs,
        "result": {"is_lc": report.is_lc, "volume": rat_str(report.volume)},
    }, 0


@_command("graph", "lcmod", "vertices an lc modification must keep", _GRAPH_SOURCE)
def _cmd_graph_lcmod(args) -> tuple[dict, int]:
    graph, inputs = _load(args)
    report = graph.discrepancy_report()
    return {
        "inputs": inputs,
        "result": {
            "is_lc": report.is_lc,
            "lc_mod_support": sorted(report.lc_mod_support),
        },
    }, 0


@_command("graph", "blowup", "check all invariants along a blowup tower",
          _arg("source", help="tower JSON file"))
def _cmd_graph_blowup(args) -> tuple[dict, int]:
    from .io import digest, load_json
    from .tower import invariance_report, tower_from_doc, tower_to_doc

    tower = tower_from_doc(load_json(args.source))
    inputs = args.inputs = {"source": args.source, "digest": digest(tower_to_doc(tower))}
    report = invariance_report(tower)
    doc = {
        "inputs": inputs,
        "result": report.to_doc(),
        "models": [g.to_doc() for g in tower.models],
    }
    return doc, 0 if report.ok else 3


@_command("graph", "random-suite", "seeded envelope-oracle and tower suite",
          _arg("--count", type=_int, default=100),
          _arg("--max-vertices", type=_int, default=5),
          _arg("--seed", type=_int, default=0))
def _cmd_graph_random_suite(args) -> tuple[dict, int]:
    from random import Random

    from .envelope import ORACLE_MAX_VERTICES, nef_envelope_trace, zariski_oracle
    from .randgen import random_divisor, random_graph, random_tower
    from .tower import envelope_pullback_check, invariance_report, tower_to_doc

    if args.count < 1 or args.max_vertices < 1:
        raise DomainError("need --count >= 1 and --max-vertices >= 1")
    if args.max_vertices > ORACLE_MAX_VERTICES:
        raise DomainError(
            f"--max-vertices above {ORACLE_MAX_VERTICES} would exceed the oracle bound",
            reason="oracle-size",
        )
    rng = Random(args.seed)
    failures: list[dict] = []

    def fail(check: str, **docs) -> None:  # a failed check of the current case
        failures.append({"case": case, "check": check, **docs})

    try:
        for case in range(args.count):
            graph = random_graph(rng, args.max_vertices)
            a = random_divisor(rng, graph)
            trace = nef_envelope_trace(graph, a)
            oracle = zariski_oracle(graph, a)
            if trace != oracle:  # records of one graph: equal P, N and active set
                fail("envelope-vs-oracle", graph=graph.to_doc(), a=a.to_doc(),
                     trace=trace.to_doc(), oracle=oracle.to_doc())
            tower = random_tower(rng, graph)
            inv = invariance_report(tower)
            if not inv.ok:
                fail("tower-invariance", tower=tower_to_doc(tower),
                     failures=[c.to_doc() for c in inv.failures()])
            if not envelope_pullback_check(tower, a):
                fail("envelope-pullback", tower=tower_to_doc(tower), a=a.to_doc())
    except SingvolError as exc:  # say which case failed, and how to draw it again
        exc.context = {"seed": args.seed, "case": case, "max_vertices": args.max_vertices}
        raise
    doc = {
        "inputs": {"count": args.count, "max_vertices": args.max_vertices},
        "seed": args.seed,
        "result": {
            "oracle_comparisons": args.count,
            "tower_checks": args.count,
            "failures": failures,
            "ok": not failures,
        },
    }
    return doc, 0 if not failures else 3


# -- cone commands ----------------------------------------------------------------


@_command("cone", "bound", "boundary class and volume upper bound at a slope",
          _CONE_SOURCE, _arg("--a", required=True, help="slope, a rational like 1/2"))
def _cmd_cone_bound(args) -> tuple[dict, int]:
    from .cone import boundary_class, cone_log_discrepancy, vol_upper_bound
    from .lattice import rat, rat_str

    cone, inputs = _load(args)
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
    return {"inputs": inputs, "result": result}, 0


@_command("cone", "valuation", "order of vanishing forced along the cone divisor",
          _CONE_SOURCE,
          _arg("--class", dest="cls", required=True,
               help="comma-separated rationals in num_basis order"),
          _arg("--k", type=_int, required=True, help="positive multiple"))
def _cmd_cone_valuation(args) -> tuple[dict, int]:
    from .cone import natural_valuation, valuation_limit
    from .lattice import QVector, rat, rat_str

    cone, inputs = _load(args)
    parts = [p.strip() for p in args.cls.split(",")]
    if len(parts) != len(cone.basis):
        raise MalformedInputError(
            f"--class needs {len(cone.basis)} comma-separated rationals "
            f"(basis {', '.join(cone.basis)})"
        )
    cls = QVector(parts)
    if args.k < 1:
        raise DomainError("--k must be a positive integer")
    limit = valuation_limit(cone, cls)
    value = natural_valuation(cone, cls, args.k)
    return {
        "inputs": inputs,
        "result": {
            "class": cls.to_doc(),
            "k": args.k,
            "natural_valuation": value,
            "valuation_limit": rat_str(limit),
            "normalized_gap": rat_str(abs(rat(value) / args.k - limit)),
        },
    }, 0


@_command("cone", "limiting", "m-truncated log-discrepancy coefficient",
          _CONE_SOURCE, _arg("--m", type=_int, required=True))
def _cmd_cone_limiting(args) -> tuple[dict, int]:
    from .cone import STATUS_CITED, claim, limiting_discrepancy
    from .lattice import rat_str

    cone, inputs = _load(args)
    if args.m < 1:
        raise DomainError("--m must be a positive integer")
    value = limiting_discrepancy(cone, args.m)
    return {
        "inputs": inputs,
        "result": {
            "m": args.m,
            "limiting_discrepancy": rat_str(value),
            "caveat": claim("truncated-volume-positivity", STATUS_CITED,
                            "this coefficient traces one divisor; whether the "
                            "m-truncated volume is positive is not decided by it"),
        },
    }, 0


@_command("cone", "counterexample",
          "full certificate report on the built-in ruled-surface cone",
          _arg("--a-seq", help="comma-separated decreasing positive slopes"))
def _cmd_cone_counterexample(args) -> tuple[dict, int]:
    from .cone import limiting_discrepancy, vol_plus_table
    from .lattice import rat, rat_str

    args.source = "catalog:paper-ruled-surface"
    cone, inputs = _load(args)
    if args.a_seq:
        slopes = [rat(p.strip()) for p in args.a_seq.split(",")]
    else:
        slopes = [rat(f"1/{2 ** k}") for k in range(11)]
    table = vol_plus_table(cone, slopes)
    limits = {
        str(m): rat_str(limiting_discrepancy(cone, m)) for m in (1, 2, 3, 4, 6, 12)
    }
    return {
        "inputs": inputs,
        "result": {
            "table": table,
            "lc_boundary": table["lc_boundary"],
            "limiting_discrepancies": limits,
        },
    }, 0


@_command("cone", "dcc-scan", "Gorenstein cone volume scan",
          _arg("--g-max", type=_int, required=True),
          _arg("--a-max", type=_int, required=True))
def _cmd_cone_dcc_scan(args) -> tuple[dict, int]:
    from .cone import dcc_scan

    report = dcc_scan(args.g_max, args.a_max)
    return {"inputs": {"g_max": args.g_max, "a_max": args.a_max}, "result": report}, 0


def catalog_entries() -> dict:
    """Everything `catalog list` prints: fixed names plus name patterns."""
    return {
        "graphs": {
            "fixed": ["E6", "E7", "E8"],  # catalog._GRAPH_FIXED's keys
            "patterns": [
                "A<n>            chain of n (-2)-curves",
                "D<n>            forked chain, n >= 4",
                "cusp-<L>        cycle of L rational (-3)-curves, L >= 3",
                "simple-elliptic-<d>  one elliptic (-d)-curve",
                "cone-g<g>-d<d>  one genus-g curve of self-intersection -d",
            ],
        },
        "cones": {
            "fixed": ["elliptic-cone", "paper-ruled-surface"],  # cone._CONE_FIXED's keys
            "patterns": [
                "cone-g<g>-d<d>  polarized cone over a genus-g degree-d curve",
                "elliptic-cone-<d>  cone over an elliptic curve of degree d",
            ],
        },
    }


@_command("catalog", "list", "list fixed names and name patterns")
def _cmd_catalog_list(args) -> tuple[dict, int]:
    return {"result": catalog_entries()}, 0


# -- wiring -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``MalformedInputError``s, not exits."""

    def error(self, message: str):
        raise MalformedInputError(f"{self.prog}: {message}")


def _out_of(argv: list[str] | None) -> str | None:
    """The ``--out`` of a command line the full parser refused, if readable."""
    parser = _Parser(add_help=False)
    parser.add_argument("--out")
    try:
        return parser.parse_known_args(argv)[0].out
    except MalformedInputError:
        return None


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``: only the command its first two words name, the
    only one it can reach, or every command (help, a bare group, a typo)."""
    named = [c for c in _COMMANDS if argv and c[:2] == tuple(argv[:2])]
    parser = _Parser(
        prog="singvol",
        description=(
            "Exact volumes, log discrepancies and valuation bounds of normal "
            "surface and cone singularities."
        ),
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: sub.add_parser(group, help=blurb).add_subparsers(dest="command", required=True)
        for group, blurb in _GROUPS.items() if not named or group == named[0][0]
    }
    for group, name, blurb, arguments, fn in named or _COMMANDS:
        p = groups[group].add_parser(name, help=blurb)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = None
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        report, code = args.fn(args)
        report["command"] = f"{args.group} {args.command}"
        _emit(report, args.out)
        return code
    except SingvolError as exc:
        if isinstance(exc, InternalConsistencyError) and exc.context is None:
            exc.context = getattr(args, "inputs", None)
        error = {"error": {"reason": exc.reason, "message": str(exc)}}
        if exc.context is not None:
            error["error"]["context"] = exc.context
        code = exc.exit_code
    out = _out_of(argv) if args is None else args.out
    try:
        _emit(error, out)
    except MalformedInputError:  # --out itself is unwritable
        _emit(error, None)
    if args is None:  # the command line was refused: end as argparse's own errors do
        raise SystemExit(code)
    return code


def __getattr__(name: str):
    """The package's public names, such as ``cli.volume``, imported on first
    use: perfbench's self-test reads ``cli.volume``."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


if __name__ == "__main__":
    sys.exit(main())
