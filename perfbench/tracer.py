"""Span tracer that wraps singvol's public functions from outside the package.

The benchmark never edits ``src/``. Instead, a :class:`Tracer` replaces every
binding of each traced function or method with a wrapper that records one
span per call: name, start, end, parent span and item id. Functions are found
by identity in every loaded ``singvol`` module, so a name a module imports for
itself (``tower`` imports ``volume``, ``randgen`` imports ``blow_up``) is
wrapped there too. Spans live in compact arrays and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute, span name, amount recorded per call or None).
# The amount functions see (args, kwargs, result) of the wrapped call.
TARGETS = (
    ("lattice", "SymForm.leading_principal_minors", "lattice.minors", None),
    ("lattice", "SymForm.solve", "lattice.solve", lambda a, k, r: a[0].dim),
    ("lattice", "SymForm.apply", "lattice.apply", None),
    ("lattice", "SymForm.det", "lattice.det", None),
    ("graph", "ResolutionGraph.__post_init__", "graph.construct", None),
    ("graph", "ResolutionGraph.mumford_pullback_canonical", "graph.canonical", None),
    ("envelope", "nef_envelope_trace", "envelope.trace", None),
    ("envelope", "zariski_oracle", "envelope.oracle", None),
    ("envelope", "volume", "envelope.volume", None),
    ("tower", "blow_up", "tower.blow_up", None),
    ("tower", "ModelTower.__init__", "tower.model",
     lambda a, k, r: len(a[2] if len(a) > 2 else k["steps"])),
    ("tower", "invariance_report", "tower.invariance",
     lambda a, k, r: len((a[0] if a else k["tower"]).models)),
    ("tower", "envelope_pullback_check", "tower.pullback_check", None),
    ("randgen", "random_graph", "randgen.graph", None),
    ("randgen", "random_divisor", "randgen.divisor", None),
    ("randgen", "random_tower", "randgen.tower", None),
    ("cone", "PolarizedCone.__init__", "cone.construct", None),
    ("cone", "PolarizedCone.facet_normals", "cone.facets", lambda a, k, r: len(r)),
    ("cone", "PolarizedCone.contains", "cone.contains", None),
    ("cone", "natural_valuation", "cone.valuation", None),
    ("cone", "lc_boundary_exists", "cone.lc_verdict", None),
    ("cone", "vol_plus_table", "cone.table", None),
    ("cone", "dcc_scan", "cone.dcc_scan", None),
    ("io", "load_json", "io.load_json", None),
    ("io", "graph_from_doc", "io.from_doc", None),
    ("io", "tower_from_doc", "io.from_doc", None),
    ("io", "cone_from_doc", "io.from_doc", None),
    ("io", "to_json", "io.to_json", lambda a, k, r: len(r)),
    ("io", "digest", "io.digest", None),
    ("cli", "main", "cli.main", None),
)

# Layers whose self times, with the unspanned rest, add up to the traced wall.
LAYERS = ("lattice", "graph", "envelope", "tower", "randgen", "cone", "io", "cli")

# Spans inside which some calls are counted separately (nearest one wins).
CONTEXTS = ("envelope.trace", "envelope.oracle", "tower.invariance")


class Tracer:
    """Wraps the traced targets of one imported ``singvol`` and records spans.

    ``install()`` and ``uninstall()`` swap the wrappers in and out, so the
    same process can run an item untraced and then traced.
    """

    def __init__(self, modules) -> None:
        self.names = sorted({t[2] for t in TARGETS})
        self._nid = {n: k for k, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.failed = array("b")
        self.current_item = -1
        self._stack: list[int] = []
        self._patches = self._plan(modules)

    def _plan(self, modules) -> list[tuple[object, str, object, object]]:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "singvol" or n.startswith("singvol.")]
        patches = []
        for mod_name, attr, span, amount in TARGETS:
            module = getattr(modules, mod_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__.get(member)
                if original is None:
                    raise LookupError(f"{mod_name}.{attr} is not defined")
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(
                        self._wrap(original.func, span, amount))
                    wrapped.__set_name__(owner, member)
                else:
                    wrapped = self._wrap(original, span, amount)
                patches.append((owner, member, original, wrapped))
                continue
            original = getattr(module, member, None)
            if original is None:
                raise LookupError(f"{mod_name}.{attr} is not defined")
            wrapped = self._wrap(original, span, amount)
            for holder in loaded:
                for key, value in vars(holder).items():
                    if value is original:
                        patches.append((holder, key, original, wrapped))
        return patches

    def _wrap(self, fn, span: str, amount):
        nid = self._nid[span]
        name, parent, item = self.name, self.parent, self.item
        start, end, amounts, failed = self.start, self.end, self.amount, self.failed
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer.current_item)
            amounts.append(0)
            failed.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for holder, key, _, wrapped in self._patches:
            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    def summary(self) -> dict:
        """Totals per span name plus the context counts the metrics need.

        Self time is a span's duration minus the durations of its direct
        children; calls never overlap, because everything runs on one thread.
        """
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        ctx = [-1] * n
        context_ids = {self._nid[c] for c in CONTEXTS}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                ctx[i] = p if self.name[p] in context_ids else ctx[p]
        stats = {name: {"calls": 0, "self_ns": 0, "amount": 0, "failed": 0}
                 for name in self.names}
        inside: dict[tuple[str, str], list[int]] = {}
        root_ns = 0
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            s["amount"] += self.amount[i]
            s["failed"] += self.failed[i]
            if self.parent[i] < 0:
                root_ns += dur[i]
            if ctx[i] >= 0:
                key = (self.names[self.name[ctx[i]]], self.names[self.name[i]])
                acc = inside.setdefault(key, [0, 0])
                acc[0] += 1
                acc[1] += self.amount[i]
        return {"spans": n, "by_name": stats, "inside": inside, "root_ns": root_ns}

    def inclusive_s(self, items: set[int], span: str) -> float:
        """Total duration, children included, of ``span`` calls in ``items``."""
        nid = self._nid[span]
        return sum(e - s for n, i, s, e in zip(self.name, self.item, self.start, self.end)
                   if n == nid and i in items) / 1e9

    def write(self, path: str) -> None:
        """Write every span, columnar, as gzipped JSON."""
        t0 = min(self.start) if self.start else 0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "item": list(self.item),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "amount": list(self.amount),
            "failed": list(self.failed),
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
