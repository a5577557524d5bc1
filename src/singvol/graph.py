r"""Resolution dual graphs of normal surface singularities.

A graph records the exceptional curves of a resolution: each vertex is an
irreducible exceptional curve with its self-intersection and genus, each
edge an intersection point with multiplicity. The associated intersection
matrix must be negative definite (Mumford), and the graph connected; both
are enforced at construction, so every ``ResolutionGraph`` in existence is
a valid resolution dual graph. The matrix goes to the form as sparse
integer rows, parallel edges merged, and definiteness is tested in the
form's one leaf-first elimination pass, cached with the determinant it
gives, so building a tree costs O(vertices + edges) steps before
big-integer growth. Graphs read from a document or a catalog
name are refused above :data:`MAX_GRAPH_VERTICES` vertices, and graph
documents (:func:`graph_from_doc`) above :data:`MAX_CYCLE_RANK` cycles.

The numerical pullback of the canonical class is the unique exceptional
divisor ``B`` with ``(K_Y + B) . E_j = 0`` for every vertex, i.e. the
solution of ``M b = -k`` where ``k_j = 2 genus_j - 2 - self_int_j`` by
adjunction. Log discrepancies are ``ell = 1 - b``; the singularity is log
canonical when every ``ell_j >= 0``, and the vertices with ``ell_j < 0``
are exactly the centers a log-canonical modification must keep.

All of these come from one cached attribute, the ``DiscrepancyReport`` of
one integer solve ``(q, y = q b)``: ``ell_j = (q - y_j) / q``, negative
exactly when ``y_j > q``. The solve substitutes through the factor the
definiteness pass left, so a graph is eliminated once, and it is checked
against ``M b = -k`` before the report is kept. ``B`` and ``ell`` keep its
integers as ``ExcDivisor.ints``; ``Fraction``s are made only when a caller
reads ``coeffs``. Cached attributes are :class:`~singvol.record.lazy`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Any

from . import io as sio
from .errors import DomainError, InternalConsistencyError, MalformedInputError
from .lattice import QVector, SymForm, numerators, ratio_str
from .record import Record, lazy

# The most vertices of a graph read from a document or a catalog name, set
# by 50-step towers, whose report runs one trace per level: 0.4-0.8 s over a
# 650-vertex (-2)-chain, 4.1-4.2 s over a 600-vertex non-lc chain. One `graph
# vol` costs less: 0.13 s on a 700-vertex non-lc chain, 0.42 s on a 700-vertex
# tree of (-10)-curves plus 50 chords (2-vCPU machine, Python 3.11.7).
MAX_GRAPH_VERTICES = 700
# The largest cycle rank (edges - vertices + 1) of a graph document. Each
# cycle adds fill-in to the elimination: `graph vol` on a 700-vertex tree of
# (-10)-curves plus 50 chords took 0.42 s, on (-6)-curves plus 100 chords
# 1.07 s (2-vCPU machine, Python 3.11.7).
MAX_CYCLE_RANK = 50
# The most bits in all of a graph document's entries (self-intersections,
# genera, multiplicities), since Bareiss pivots grow with them: 700 vertices
# plus 50 chords took 0.42-0.55 s at 3,549-3,999 bits, and 4.5 s with
# (-10,000)-curves at 10,549 bits (2-vCPU machine, Python 3.11.7).
MAX_ENTRY_BITS = 4_000


def check_graph_size(count: int, edges: int = 0) -> None:
    """Refuse a graph of ``count`` vertices and ``edges`` edge records,
    before it is built, if too large."""
    if count > MAX_GRAPH_VERTICES:
        raise DomainError(f"graph has {count} vertices, above the limit of "
                          f"{MAX_GRAPH_VERTICES}", reason="too-large")
    if edges - count + 1 > MAX_CYCLE_RANK:
        raise DomainError(f"graph has cycle rank {edges - count + 1}, above the limit of "
                          f"{MAX_CYCLE_RANK}", reason="too-large")


def _is_int(value) -> bool:
    """An int that is not a bool (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


class Vertex(Record):
    """An exceptional curve: identifier, self-intersection, genus."""

    __slots__ = _fields = ("id", "self_int", "genus")


class Edge(Record):
    """An intersection between two distinct curves with multiplicity >= 1."""

    __slots__ = _fields = ("i", "j", "mult")

    def joins(self, a: str, b: str) -> bool:
        return {self.i, self.j} == {a, b}


class ResolutionGraph(Record):
    _fields = ("vertices", "edges")

    def __post_init__(self) -> None:
        """Validate: the record hook every construction ends with, which
        ``perfbench`` traces as ``graph.construct``."""
        if not self.vertices:
            raise MalformedInputError("graph needs at least one vertex")
        seen: set[str] = set()
        for v in self.vertices:
            if not isinstance(v.id, str) or not v.id:
                raise MalformedInputError(f"vertex id must be a nonempty string: {v.id!r}")
            if v.id in seen:
                raise MalformedInputError(f"duplicate vertex id {v.id!r}")
            seen.add(v.id)
            if not _is_int(v.self_int) or v.self_int > -1:
                raise MalformedInputError(
                    f"vertex {v.id!r}: self-intersection must be an integer <= -1"
                )
            if not _is_int(v.genus) or v.genus < 0:
                raise MalformedInputError(f"vertex {v.id!r}: genus must be an integer >= 0")
        for e in self.edges:
            if e.i not in seen or e.j not in seen:
                raise MalformedInputError(f"edge ({e.i!r}, {e.j!r}) references unknown vertex")
            if e.i == e.j:
                raise MalformedInputError(f"edge at {e.i!r} joins a vertex to itself")
            if not _is_int(e.mult) or e.mult < 1:
                raise MalformedInputError(
                    f"edge ({e.i!r}, {e.j!r}): multiplicity must be an integer >= 1"
                )
        self._check_connected()
        if not self.intersection_form.is_negative_definite():
            raise MalformedInputError(
                "intersection matrix is not negative definite",
                reason="not-negative-definite",
            )

    def _check_connected(self) -> None:
        """Walk the form's integer rows, whose columns are the neighbours."""
        rows = self.intersection_form._integral[1]
        reached, frontier = {0}, [0]
        while frontier:
            for j, _ in rows[frontier.pop()]:
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
        if len(reached) != len(rows):
            raise MalformedInputError("graph is not connected", reason="not-connected")

    @classmethod
    def make(cls, vertices, edges=()) -> "ResolutionGraph":
        """Build from plain tuples: ``(id, self_int, genus)`` and ``(i, j[, mult])``."""
        vs = tuple(Vertex(*v) for v in vertices)
        es = tuple(Edge(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges)
        return cls(vs, es)

    @lazy
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @lazy
    def _index(self) -> dict[str, int]:
        return {v.id: k for k, v in enumerate(self.vertices)}

    def index(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise MalformedInputError(f"unknown vertex id {vertex_id!r}") from None

    @lazy
    def intersection_form(self) -> SymForm:
        """Gram matrix: self-intersections on the diagonal, summed edge
        multiplicities off it, handed over as sparse integer rows."""
        rows = [{k: v.self_int} for k, v in enumerate(self.vertices)]
        for e in self.edges:
            a, b = self._index[e.i], self._index[e.j]
            rows[a][b] = rows[b][a] = rows[a].get(b, 0) + e.mult
        return SymForm.sparse(rows)

    def divisor(self, coeffs) -> "ExcDivisor":
        """The divisor with rational ``coeffs``, one per vertex."""
        return ExcDivisor.from_ints(self, *numerators(QVector(coeffs)))

    def basis_divisor(self, vertex_id: str) -> "ExcDivisor":
        i = self.index(vertex_id)
        return ExcDivisor.from_ints(self, 1, [int(k == i) for k in range(len(self.vertices))])

    def _canonical_ints(self) -> list[int]:
        """``k_j = K . E_j = 2 genus_j - 2 - self_int_j`` (adjunction)."""
        return [2 * v.genus - 2 - v.self_int for v in self.vertices]

    def mumford_pullback_canonical(self) -> "ExcDivisor":
        """The exceptional part ``B`` of the canonical pullback."""
        return self._discrepancies.b

    def discrepancy_report(self) -> "DiscrepancyReport":
        """The cached report; its first read (no ``_discrepancies`` in ``__dict__``) runs the
        solve inside :meth:`mumford_pullback_canonical`, traced as ``graph.canonical``."""
        if "_discrepancies" not in self.__dict__:
            self.mumford_pullback_canonical()
        return self._discrepancies

    @lazy
    def _discrepancies(self) -> "DiscrepancyReport":
        """The one integer solve ``(q, y = q b)`` of ``M b = -k``, certified in
        the same call by one integer mat-vec: ``M y = -q k``. On a
        relatively minimal model (all ``k_j >= 0``) a negative entry of ``b``
        would be a solver bug and raises; models carrying (-1)-vertices may
        legitimately have them. ``ell = 1 - b = (q - y) / q`` and the lc data
        are read off two routes, the lc flag off ``y`` (``ell_j < 0`` exactly
        when ``y_j > q``) and the support off the signs of ``ell``'s reduced
        numerators, which must agree."""
        k = self._canonical_ints()
        form = self.intersection_form
        q, y = form.solve_int([-x for x in k])
        b = ExcDivisor.from_ints(self, q, y)
        if form.apply_int(y) != [-q * x for x in k]:
            raise InternalConsistencyError(f"canonical pullback fails M b = -k: b = {b.coeffs!r}")
        if min(k) >= 0 and min(y) < 0:
            raise InternalConsistencyError("canonical pullback has a negative coefficient on a "
                                           f"relatively minimal model: b = {b.coeffs!r}")
        ell = ExcDivisor.from_ints(self, q, [q - v for v in y])
        is_lc = max(y) <= q
        support = frozenset([v.id for v, x in zip(self.vertices, ell.ints[1]) if x < 0])
        if is_lc != (not support):
            raise InternalConsistencyError("lc flag disagrees with its support")
        return DiscrepancyReport(b, ell, is_lc, support)

    def to_doc(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "self_int": v.self_int, "genus": v.genus}
                for v in self.vertices
            ],
            "edges": [{"i": e.i, "j": e.j, "mult": e.mult} for e in self.edges],
        }


class ExcDivisor(Record):
    """A rational divisor supported on the exceptional curves of one graph.

    Its fields are the graph and ``ints = (den, nums)``, the coefficients
    ``nums / den`` in lowest terms with ``den > 0``: canonical, so equality,
    hashing, the arithmetic and :meth:`to_doc` use them. The one
    constructor refuses any other ``ints`` (not a tuple, ``nums`` not a
    tuple of one integer per vertex, ``den <= 0``, or a common factor) with
    :class:`~singvol.errors.MalformedInputError`; :meth:`from_ints` reduces
    first, :meth:`ResolutionGraph.divisor` takes rationals, and the
    ``Fraction`` ``coeffs`` are made on first read.
    """

    _fields = ("graph", "ints")

    def __post_init__(self) -> None:
        try:
            den, nums = self.ints
            canonical = (type(self.ints) is type(nums) is tuple and den > 0
                         and math.gcd(den, *nums) == 1)
        except (TypeError, ValueError):  # not a pair, or an entry that is not an integer
            canonical = False
        if not canonical:
            raise MalformedInputError(f"divisor ints are not a tuple (den > 0, a tuple of "
                                      f"integers) in lowest terms: {self.ints!r}")
        if len(nums) != len(self.graph.vertices):
            raise MalformedInputError(f"divisor has {len(nums)} coefficients for "
                                      f"{len(self.graph.vertices)} vertices")

    @classmethod
    def from_ints(cls, graph: ResolutionGraph, den: int, nums) -> "ExcDivisor":
        """``nums / den`` (``den > 0``, one entry per vertex) in lowest terms."""
        g = math.gcd(den, *nums)
        return cls(graph, (den // g, tuple([v // g for v in nums])))

    @lazy
    def coeffs(self) -> QVector:
        den, nums = self.ints
        return QVector(Fraction(v, den) for v in nums)

    def intersections(self) -> QVector:
        """All products ``D . E_j`` at once, i.e. ``M . coeffs``."""
        return self.graph.intersection_form.apply(self.coeffs)

    def intersect(self, vertex_id: str) -> Fraction:
        return self.intersections()[self.graph.index(vertex_id)]

    def self_intersection(self) -> Fraction:
        den, nums = self.ints
        return Fraction(sum(map(mul, nums, self.graph.intersection_form.apply_int(nums))), den**2)

    def _check_same_graph(self, other: "ExcDivisor") -> None:
        if self.graph != other.graph:
            raise MalformedInputError("divisors live on different graphs")

    def __add__(self, other: "ExcDivisor") -> "ExcDivisor":
        self._check_same_graph(other)
        (d1, n1), (d2, n2) = self.ints, other.ints
        den = math.lcm(d1, d2)
        return ExcDivisor.from_ints(self.graph, den, [den // d1 * a + den // d2 * b
                                                      for a, b in zip(n1, n2)])

    def __sub__(self, other: "ExcDivisor") -> "ExcDivisor":
        return self + -other

    def __neg__(self) -> "ExcDivisor":
        den, nums = self.ints
        return ExcDivisor.from_ints(self.graph, den, [-v for v in nums])

    def leq(self, other: "ExcDivisor") -> bool:
        self._check_same_graph(other)
        (d1, n1), (d2, n2) = self.ints, other.ints
        return all(a * d2 <= b * d1 for a, b in zip(n1, n2))

    def to_doc(self) -> dict[str, str]:
        den, nums = self.ints
        return {v.id: ratio_str(x, den) for v, x in zip(self.graph.vertices, nums)}


class DiscrepancyReport(Record):
    """Canonical pullback ``B``, log discrepancies ``ell``, and the lc data."""

    __slots__ = _fields = ("b", "ell", "is_lc", "lc_mod_support")

    def to_doc(self) -> dict:
        return {
            "b": self.b.to_doc(),
            "ell": self.ell.to_doc(),
            "is_lc": self.is_lc,
            "lc_mod_support": sorted(self.lc_mod_support),
        }


def graph_from_doc(doc: Any) -> ResolutionGraph:
    doc = sio.take(doc, "graph", ("vertices", "edges"))
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise MalformedInputError("graph vertices and edges must be lists")
    check_graph_size(len(doc["vertices"]), len(doc["edges"]))
    vertices = []
    for v in doc["vertices"]:
        v = sio.take(v, "vertex", ("id", "self_int", "genus"))
        if not isinstance(v["id"], str):
            raise MalformedInputError("vertex id must be a string")
        vertices.append((v["id"], sio.require_int(v["self_int"], "self_int"),
                         sio.require_int(v["genus"], "genus")))
    edges = []
    for e in doc["edges"]:
        e = sio.take(e, "edge", ("i", "j"), ("mult",))
        if not isinstance(e["i"], str) or not isinstance(e["j"], str):
            raise MalformedInputError("edge endpoints must be vertex id strings")
        edges.append((e["i"], e["j"], sio.require_int(e.get("mult", 1), "mult")))
    bits = (sum(s.bit_length() + g.bit_length() for _, s, g in vertices)
            + sum(m.bit_length() for _, _, m in edges))
    if bits > MAX_ENTRY_BITS:
        raise DomainError(f"graph entries have {bits} bits in all, above the limit of "
                          f"{MAX_ENTRY_BITS}", reason="too-large")
    return ResolutionGraph.make(vertices, edges)


# Bound into ``io`` when this module loads, so ``io.graph_from_doc`` resolves
# for perfbench's tracer, which wraps the ``io.*_from_doc`` codecs.
sio.graph_from_doc = graph_from_doc
