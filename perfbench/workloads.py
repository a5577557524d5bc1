"""Seeded inputs and per-item work for the four benchmark workloads.

Each workload turns a seed into inputs (``generate``), yields items in a
fixed order (``items``) and runs one item (``run_item``), returning the
item's output bytes. ``run_item`` also checks the output's certificates and
raises :class:`CheckFailed` when one does not hold. The program under test is
reached only through the module namespace ``sv`` (see ``run.import_singvol``),
so the tracer's wrappers see every call.

Every workload repeats a pool of items; one pass over the pool is a cycle.
Repeating the same items lets the benchmark time each item several times in
one run and keep its median time, which damps interference from other work
on the machine.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from random import Random


class CheckFailed(Exception):
    """An item's output failed one of its certificates."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- graph specs ------------------------------------------------------------------
# Specs are plain tuples for ResolutionGraph.make. Every family is negative
# definite by construction, so no draw is ever rejected and retried.


def chain_spec(rng: Random, n: int) -> tuple[list, list]:
    """Chain of n rational curves, each (-3) with probability 1/4, else (-2)."""
    vs = [(f"v{k}", -3 if rng.random() < 0.25 else -2, 0) for k in range(1, n + 1)]
    es = [(f"v{k}", f"v{k + 1}") for k in range(1, n)]
    return vs, es


def fork_spec(rng: Random, n: int) -> tuple[list, list]:
    """D-type fork: a (-2)/(-3) chain with two (-2)-leaves on its first vertex."""
    vs, es = chain_spec(rng, n - 2)
    vs += [("f1", -2, 0), ("f2", -2, 0)]
    es += [("v1", "f1"), ("v1", "f2")]
    return vs, es


def cusp_spec(rng: Random, n: int) -> tuple[list, list]:
    """Cycle of n rational curves; the first is (-3), so the cycle is definite."""
    vs = [(f"v{k}", -3 if k == 1 or rng.random() < 0.25 else -2, 0)
          for k in range(1, n + 1)]
    es = [(f"v{k}", f"v{k % n + 1}") for k in range(1, n + 1)]
    return vs, es


def star_spec(rng: Random, arms: int, length: int) -> tuple[list, list]:
    """Centre of genus 1-3 and weight -arms or -arms-1 with long (-2)/(-3) arms.

    Each arm lowers the centre's bound by less than 1, so weight -arms keeps
    the matrix negative definite; the positive genus makes it non-lc.
    """
    vs = [("c", -(arms + rng.randint(0, 1)), rng.randint(1, 3))]
    es = []
    for a in range(1, arms + 1):
        prev = "c"
        for k in range(1, length + 1):
            vid = f"a{a}_{k}"
            vs.append((vid, -3 if rng.random() < 0.25 else -2, 0))
            es.append((prev, vid))
            prev = vid
    return vs, es


def tree_spec(rng: Random, n: int) -> tuple[list, list]:
    """Random tree with multiplicity-2 edges, genus, and weights that make the
    matrix irreducibly diagonally dominant (hence negative definite).

    The root has genus >= 1, so with n >= 2 the singularity is not lc.
    """
    parent = [rng.randrange(k) for k in range(1, n)]
    mult = [rng.choice((1, 1, 1, 2)) for _ in range(1, n)]
    load = [0] * n
    for k in range(1, n):
        load[k] += mult[k - 1]
        load[parent[k - 1]] += mult[k - 1]
    vs = []
    for k in range(n):
        extra = rng.choice((0, 1, 1, 2))
        if k == 0:
            extra = max(extra, 1)
        genus = rng.randint(1, 2) if k == 0 else rng.choice((0, 0, 0, 0, 0, 1, 2))
        vs.append((f"v{k}", -(load[k] + extra), genus))
    es = [(f"v{parent[k - 1]}", f"v{k}", mult[k - 1]) for k in range(1, n)]
    return vs, es


# -- large-graphs ---------------------------------------------------------------------


class LargeGraphs:
    """One graph of 16-80 vertices per item: construct, discrepancies, volume.

    Sizes are a fixed ladder per family, walked twice, and the seed draws
    the weights, genera and tree shapes, so the cost of a pool moves little
    with the seed. Costs spread from 10 to 200 ms with few items at any one
    cost, and a seed moves each item by up to 30%: with the ladder walked
    once (34 items) the median item moved by 11% from seed to seed.
    """

    name = "large-graphs"

    def generate(self, seed: int, tiny: bool, workdir: str) -> list[dict]:
        rng = Random(seed)
        if tiny:
            plan = [("chain", 6), ("fork", 6), ("cusp", 5), ("star", (3, 2)), ("tree", 6)]
            fixed = 8
        else:
            plan = (
                [("chain", n) for n in (16, 16, 20, 24, 28, 32)]
                + [("fork", n) for n in (16, 18, 20, 24, 28)]
                + [("cusp", n) for n in (16, 20, 24, 32, 40, 48)]
                + [("star", s) for s in ((3, 5), (3, 6), (4, 4), (4, 5), (3, 8), (4, 7), (5, 6))]
                + [("tree", n) for n in (16, 16, 18, 20, 20, 22, 24, 28, 32)]
            ) * 2
            fixed = 80
        builders = {"chain": chain_spec, "fork": fork_spec, "cusp": cusp_spec,
                    "tree": tree_spec,
                    "star": lambda r, s: star_spec(r, *s)}
        pool = []
        vs = [(f"v{k}", -2, 0) for k in range(1, fixed + 1)]
        es = [(f"v{k}", f"v{k + 1}") for k in range(1, fixed)]
        pool.append({"family": f"A{fixed}", "vertices": vs, "edges": es})
        for family, size in plan:
            vs, es = builders[family](rng, size)
            pool.append({"family": family, "vertices": vs, "edges": es})
        return pool

    def size(self, inputs) -> int:
        return len(inputs)

    def items(self, inputs):
        return itertools.cycle(inputs)

    def run_item(self, sv, spec) -> bytes:
        g = sv.graph.ResolutionGraph.make(spec["vertices"], spec["edges"])
        disc = g.discrepancy_report()
        vol = sv.envelope.volume(g)
        out = sv.io.to_json({"discrepancies": disc.to_doc(), "volume": vol.to_doc()})
        _check(vol.is_lc == disc.is_lc, "volume and discrepancy disagree on lc")
        _check(disc.is_lc == (not disc.lc_mod_support), "lc flag disagrees with support")
        family = spec["family"]
        if family in ("chain", "fork", "cusp") or family.startswith("A"):
            _check(disc.is_lc and vol.volume == 0, f"{family} graph must be lc")
        elif family in ("star", "tree"):
            _check(not disc.is_lc and vol.volume > 0, f"{family} graph must not be lc")
        return out.encode("ascii")

    def describe(self, inputs) -> dict:
        return {
            "items_per_cycle": len(inputs),
            "vertices": [[s["family"], len(s["vertices"])] for s in inputs],
            "vertices_per_cycle": sum(len(s["vertices"]) for s in inputs),
        }


# -- random-suite ---------------------------------------------------------------------


class RandomSuite:
    """One case of the ``singvol graph random-suite --max-vertices 8`` loop
    per item, with exactly 8 vertices.

    A case makes the CLI loop's calls on one ``Random(seed)`` stream, except
    that it draws its graph with ``random_graph(rng, 8, 8)``. The CLI draws
    the vertex count uniformly from 1..8, and a case's cost roughly doubles
    per vertex: over the CLI's own mix the median case sat where the cost
    climbs steeply, so it moved by 20% from seed to seed, and the pool's
    total by up to 60%. At one vertex count the cases cost within 2x of each
    other. The pool holds 100 cases, like ``random-suite --count 100``.
    """

    name = "random-suite"

    def generate(self, seed: int, tiny: bool, workdir: str) -> dict:
        return {"seed": seed, "vertices": 5 if tiny else 8, "cases": 5 if tiny else 100}

    def size(self, inputs) -> int:
        return inputs["cases"]

    def items(self, inputs):
        """The pool's cases, then the same cases again: each case replays
        from the generator state it started from the first time."""
        rng = Random(inputs["seed"])
        states = []
        for _ in range(inputs["cases"]):
            states.append(rng.getstate())
            yield rng, inputs["vertices"]
        while True:
            for state in states:
                replay = Random()
                replay.setstate(state)
                yield replay, inputs["vertices"]

    def run_item(self, sv, item) -> bytes:
        rng, vertices = item
        graph = sv.randgen.random_graph(rng, vertices, vertices)
        a = sv.randgen.random_divisor(rng, graph)
        trace = sv.envelope.nef_envelope_trace(graph, a)
        oracle = sv.envelope.zariski_oracle(graph, a)
        tower = sv.randgen.random_tower(rng, graph)
        inv = sv.tower.invariance_report(tower)
        pulled = sv.tower.envelope_pullback_check(tower, a)
        out = sv.io.to_json({
            "graph": graph.to_doc(),
            "a": a.to_doc(),
            "trace": trace.to_doc(),
            "tower": sv.io.tower_to_doc(tower),
            "invariance": inv.to_doc(),
            "pullback_ok": pulled,
        })
        _check((trace.p.coeffs, trace.n.coeffs, trace.active)
               == (oracle.p.coeffs, oracle.n.coeffs, oracle.active),
               "active-set trace differs from the subset oracle")
        _check(inv.ok, "tower invariance report has failures")
        _check(pulled, "envelope does not pull back along the tower")
        return out.encode("ascii")

    def describe(self, inputs) -> dict:
        return {"vertices": inputs["vertices"], "items_per_cycle": inputs["cases"]}


# -- cones ----------------------------------------------------------------------------

# lc-boundary cases: how K_V is placed, and the verdict it must produce.
CONE_KINDS = ("refuted", "witness", "pinned-refuted", "pinned-open", "open")
CONE_VERDICT = {"refuted": False, "witness": True, "pinned-refuted": False,
                "pinned-open": None, "open": None}


def cyclic_facets(basis: int, gens: int) -> int:
    """Facet count of the cone over a cyclic polytope (moment-curve points)."""
    return {3: gens, 4: 2 * gens - 4, 5: gens * (gens - 3) // 2}[basis]


def cone_spec(rng: Random, basis: int, gens: int, kind: str) -> dict:
    """Generators (1, t, ..., t^(basis-1)) on the moment curve, so they are in
    convex position and facets grow with their number; H is their sum."""
    ts = sorted(rng.sample(range(-9, 10), gens))
    g = [[t ** p for p in range(basis)] for t in ts]
    h = [sum(col) for col in zip(*g)]
    # A form diag(L, -1, ..., -1) with L large enough that H . g > 0 for all g.
    lead = 1 + max(0, max(-(-sum(h[i] * x[i] for i in range(1, basis)) // h[0]) for x in g))
    form = [[lead if i == j == 0 else -int(i == j) for j in range(basis)] for i in range(basis)]
    j = rng.randrange(gens)
    c = rng.randint(1, 2)
    k = {
        "refuted": g[j],
        "witness": [-c * x for x in h],
        "pinned-refuted": [-2 * x for x in g[j]],
        "pinned-open": [-x for x in g[j]],
        "open": [-(x + y) for x, y in zip(h, g[j])],
    }[kind]
    rigid = [(g[j], 1)] if kind.startswith("pinned") else []
    probe = [rng.randint(-5, 5) for _ in range(basis)]
    return {"kind": kind, "basis": basis, "gens": g, "form": form, "K": k, "H": h,
            "rigid": rigid, "classes": [k, h, g[0], probe]}


class Cones:
    """One polarized cone per item, plus a few ``dcc_scan`` grids.

    The shapes (basis, generators) are fixed and the lc-boundary case goes
    by pool position, so the seed draws only the generators, the classes and
    the grids. A cone's cost is set mostly by its shape (within 10% for one
    shape) and climbs steeply with it, so the pool is laid out to put the
    median and the tail item (the 11th slowest) each in the middle of seven
    cones of one shape: basis 3 with 16 generators, with 22 cheaper and 22
    dearer items around them, and basis 4 with 12 generators, below seven
    dearer cones. With the tail at a step between shapes, it moved by 13%
    from seed to seed; with the median among mixed shapes, by 8%.
    """

    name = "cones"

    def generate(self, seed: int, tiny: bool, workdir: str) -> list[dict]:
        rng = Random(seed)
        if tiny:
            shapes, grids, kmax = [(3, 5), (4, 6)], 1, 3
        else:
            shapes = ([(3, g) for g in range(8, 14)] * 2 + [(3, 16)] * 7
                      + [(4, g) for g in range(8, 12)] * 2 + [(4, 12)] * 7 + [(4, 13)] * 3
                      + [(5, g) for g in (8, 9, 10)] * 2)
            grids, kmax = 8, 10
        pool = [dict(cone_spec(rng, b, n, CONE_KINDS[i % len(CONE_KINDS)]), kmax=kmax)
                for i, (b, n) in enumerate(shapes)]
        for _ in range(grids):
            g_max, a_max = (6, 3) if tiny else (rng.randint(40, 60), rng.randint(10, 16))
            pool.insert(len(pool) // 2, {"kind": "dcc", "g_max": g_max, "a_max": a_max})
        return pool

    def size(self, inputs) -> int:
        return len(inputs)

    def items(self, inputs):
        return itertools.cycle(inputs)

    def run_item(self, sv, spec) -> bytes:
        if spec["kind"] == "dcc":
            return self._dcc(sv, spec)
        lat, cone = sv.lattice, sv.cone
        vec = lat.QVector
        pc = cone.PolarizedCone(
            dim_x=3,
            basis=[f"e{i}" for i in range(spec["basis"])],
            form=lat.SymForm(spec["form"]),
            nef_gens=[vec(spec["H"])],
            pseff_gens=[vec(x) for x in spec["gens"]],
            k_class=vec(spec["K"]),
            h_class=vec(spec["H"]),
            rigid=[cone.RigidClass(vec(c), (("R", Fraction(m)),)) for c, m in spec["rigid"]],
        )
        verdict = cone.lc_boundary_exists(pc)
        a0 = cone.valuation_limit(pc, pc.k_class)
        table = cone.vol_plus_table(pc, [a0 + Fraction(1, 2 ** k) for k in range(6)])
        ks = range(1, spec["kmax"] + 1)
        valuations = []
        for cls in spec["classes"]:
            cls = vec(cls)
            limit = cone.valuation_limit(pc, cls)
            values = [cone.natural_valuation(pc, cls, k) for k in ks]
            _check(values == [max(0, math.ceil(k * limit)) for k in ks],
                   "natural valuation is not the ceiling of k times its limit")
            valuations.append({"class": cls.to_doc(), "limit": lat.rat_str(limit),
                               "values": values})
        limiting = {str(m): lat.rat_str(cone.limiting_discrepancy(pc, m))
                    for m in (1, 2, 3, 4, 6, 12)}
        out = sv.io.to_json({
            "cone": pc.to_doc(),
            "facets": [phi.to_doc() for phi in pc.facet_normals],
            "lc_boundary": verdict.to_doc(),
            "table": table,
            "valuations": valuations,
            "limiting": limiting,
        })
        _check(len(pc.facet_normals) == cyclic_facets(spec["basis"], len(spec["gens"])),
               "facet count differs from the cyclic polytope's")
        _check(verdict.exists is CONE_VERDICT[spec["kind"]],
               f"lc-boundary verdict {verdict.exists} for a {spec['kind']} cone")
        h_power = pc.h_power()
        _check(all(Fraction(row["upper_bound"]) == Fraction(row["a"]) ** 3 * h_power
                   for row in table["rows"]), "volume bound is not a^3 H^2")
        return out.encode("ascii")

    def _dcc(self, sv, spec) -> bytes:
        report = sv.cone.dcc_scan(spec["g_max"], spec["a_max"])
        out = sv.io.to_json(report)
        expected = sorted({a * a * ((2 * g - 2) // a)
                           for g in range(2, spec["g_max"] + 1)
                           for a in range(1, spec["a_max"] + 1) if (2 * g - 2) % a == 0})
        _check([Fraction(v) for v in report["distinct_volumes_ascending"]] == expected,
               "dcc scan volumes differ from a^2 d")
        return out.encode("ascii")

    def describe(self, inputs) -> dict:
        cones = [s for s in inputs if s["kind"] != "dcc"]
        return {
            "items_per_cycle": len(inputs),
            "cones": [[s["basis"], len(s["gens"]), cyclic_facets(s["basis"], len(s["gens"])),
                       s["kind"]] for s in cones],
            "dcc_grids": [[s["g_max"], s["a_max"]] for s in inputs if s["kind"] == "dcc"],
            "valuation_k_max": max((s["kmax"] for s in cones), default=0),
        }


# -- cli ------------------------------------------------------------------------------


def _graph_doc(spec) -> dict:
    vs, es = spec
    return {"vertices": [{"id": i, "self_int": s, "genus": g} for i, s, g in vs],
            "edges": [{"i": e[0], "j": e[1], "mult": e[2] if len(e) > 2 else 1} for e in es]}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


class Cli:
    """One ``python -m singvol ...`` process per item, run one at a time.

    The pool covers every command on catalog names and on small generated
    graph, tower and cone files, plus documented errors with exit 1 and 2.
    Paths are relative to the checkout root, which is the working directory.
    """

    name = "cli"

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def generate(self, seed: int, tiny: bool, workdir: str) -> list[dict]:
        rng = Random(seed)
        rel = os.path.relpath(workdir, self.root)
        os.makedirs(workdir, exist_ok=True)

        def put(name: str, doc) -> str:
            _write(os.path.join(workdir, name),
                   doc if isinstance(doc, str) else json.dumps(doc, indent=1))
            return os.path.join(rel, name)

        if tiny:
            items = [(["catalog", "list"], 0, "catalog list"),
                     (["graph", "vol", f"catalog:A{rng.randint(4, 8)}"], 0, "graph vol"),
                     (["graph", "vol", "catalog:no-such-graph"], 2, "unknown-catalog-name")]
        else:
            bad = put("not-definite.json",
                      _graph_doc(([("x", -1, 0), ("y", -1, 0)], [("x", "y")])))
            broken = put("broken.json", '{"vertices": [')
            items = []
            for r in (1, 2):
                items += self._round(rng, put, r)
            items += [
                (["graph", "vol", bad], 2, "not-negative-definite"),
                (["graph", "discrepancies", broken], 2, "invalid-json"),
                (["cone", "bound", "catalog:paper-ruled-surface", "--a=-1/2"], 1,
                 "nonpositive-slope"),
                (["graph", "random-suite", "--max-vertices", "13"], 1, "oracle-size"),
            ]
        return [{"argv": a, "exit": c, "expect": e} for a, c, e in items]

    @staticmethod
    def _round(rng: Random, put, r: int) -> list[tuple]:
        """Every command once (``catalog list`` three times), on fresh files."""
        star = put(f"star{r}.json", _graph_doc(star_spec(rng, 3, rng.randint(2, 3))))
        tree = put(f"tree{r}.json", _graph_doc(tree_spec(rng, rng.randint(8, 12))))
        k = rng.randint(1, 3)
        steps = [{"kind": "free", "i": f"v{k}"},
                 {"kind": "satellite", "i": f"v{k}", "j": f"v{k + 1}"},
                 {"kind": "satellite", "i": f"v{k}", "j": "b2"},
                 {"kind": "free", "i": "b1"}]
        tower = put(f"tower{r}.json", {"base": _graph_doc(chain_spec(rng, 4)), "steps": steps})
        spec = cone_spec(rng, 3, 6, rng.choice(CONE_KINDS))
        cone = put(f"cone{r}.json", {
            "dim_X": 3, "num_basis": ["e0", "e1", "e2"], "form": spec["form"],
            "nef_gens": [spec["H"]], "pseff_gens": spec["gens"], "K_V": spec["K"],
            "H": spec["H"],
            "rigid": [{"class": c, "only_rep": [["R", m]]} for c, m in spec["rigid"]],
        })
        cls = ",".join(str(x) for x in spec["classes"][3])
        return [
            (["catalog", "list"], 0, "catalog list"),
            (["graph", "vol", f"catalog:A{rng.randint(4, 20)}"], 0, "graph vol"),
            (["graph", "discrepancies", star], 0, "graph discrepancies"),
            (["graph", "lc", f"catalog:D{rng.randint(5, 12)}"], 0, "graph lc"),
            (["graph", "lcmod", tree], 0, "graph lcmod"),
            (["catalog", "list"], 0, "catalog list"),
            (["graph", "vol", f"catalog:cusp-{rng.randint(3, 10)}"], 0, "graph vol"),
            (["graph", "blowup", tower], 0, "graph blowup"),
            (["graph", "random-suite", "--count", "3", "--max-vertices", "5",
              "--seed", str(rng.randint(0, 999))], 0, "graph random-suite"),
            (["graph", "lc", f"catalog:cone-g{rng.randint(2, 5)}-d{rng.randint(1, 4)}"],
             0, "graph lc"),
            (["cone", "bound", "catalog:paper-ruled-surface", "--a", f"1/{rng.randint(1, 9)}"],
             0, "cone bound"),
            (["cone", "valuation", cone, f"--class={cls}", "--k", str(rng.randint(1, 30))],
             0, "cone valuation"),
            (["catalog", "list"], 0, "catalog list"),
            (["cone", "limiting", "catalog:paper-ruled-surface", "--m", str(rng.randint(1, 12))],
             0, "cone limiting"),
            (["cone", "counterexample"], 0, "cone counterexample"),
            (["cone", "dcc-scan", "--g-max", str(rng.randint(5, 15)),
              "--a-max", str(rng.randint(2, 6))], 0, "cone dcc-scan"),
            (["graph", "vol", "catalog:no-such-graph"], 2, "unknown-catalog-name"),
        ]

    def size(self, inputs) -> int:
        return len(inputs)

    def items(self, inputs):
        return itertools.cycle(inputs)

    def run_item(self, sv, item) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "singvol", *item["argv"]],
                              cwd=self.root, env=self.env, capture_output=True, timeout=60)
        return self._checked(item, proc.returncode, proc.stdout)

    def replay_item(self, sv, item) -> bytes:
        """The same argv through in-process ``cli.main``."""
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sv.cli.main(list(item["argv"]))
        return self._checked(item, code, buf.getvalue().encode("ascii"))

    def _checked(self, item, code: int, stdout: bytes) -> bytes:
        _check(code == item["exit"], f"exit {code}, expected {item['exit']}: {item['argv']}")
        doc = json.loads(stdout)
        canonical = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
        _check(canonical.encode("ascii") == stdout, "stdout is not canonical JSON")
        if code == 0:
            _check(doc.get("command") == item["expect"], f"wrong command in {item['argv']}")
        else:
            _check(doc.get("error", {}).get("reason") == item["expect"],
                   f"wrong error reason in {item['argv']}")
        if item["expect"] in ("graph blowup", "graph random-suite"):
            _check(doc["result"]["ok"] is True, f"{item['expect']} reported failures")
        return b"exit %d\n" % code + stdout

    def describe(self, inputs) -> dict:
        return {"items_per_cycle": len(inputs), "argv": [i["argv"] for i in inputs]}


def make(name: str, root: str):
    return {"large-graphs": LargeGraphs, "random-suite": RandomSuite,
            "cones": Cones, "cli": lambda: Cli(root)}[name]()


NAMES = ("large-graphs", "random-suite", "cones", "cli")
