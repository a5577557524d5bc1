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
documents above :data:`MAX_CYCLE_RANK` independent cycles.

The numerical pullback of the canonical class is the unique exceptional
divisor ``B`` with ``(K_Y + B) . E_j = 0`` for every vertex, i.e. the
solution of ``M b = -k`` where ``k_j = 2 genus_j - 2 - self_int_j`` by
adjunction. Log discrepancies are ``ell = 1 - b``; the singularity is log
canonical when every ``ell_j >= 0``, and the vertices with ``ell_j < 0``
are exactly the centers a log-canonical modification must keep.

All of these come from one cached ``DiscrepancyReport`` per graph, built
on the one cached solve for ``b`` that ``mumford_pullback_canonical``
returns; ``log_discrepancy_divisor`` and ``discrepancy_report`` return
parts of it. That solve substitutes through the factor the definiteness
pass left, so a graph is eliminated once, and the solution is checked
against ``M b = -k`` before it is kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import DomainError, InternalConsistencyError, MalformedInputError
from .lattice import QVector, SymForm, _qvector, rat_str
from .record import Record

# The most vertices of a graph read from a document or a catalog name, set
# by 50-step towers, whose report runs one trace per level: 2-2.8 s over a
# 650-vertex (-2)-chain, 14-15 s over a 600-vertex non-lc chain. One `graph
# vol` costs less: 0.3-0.5 s on a 700-vertex non-lc chain, 0.9-1.3 s on a
# 700-vertex tree plus 50 chords (2-vCPU machine, Python 3.11).
MAX_GRAPH_VERTICES = 700
# The largest cycle rank (edges - vertices + 1) of a graph document. Each
# cycle adds fill-in to the elimination: `graph vol` on a 700-vertex tree of
# (-10)-curves plus 50 chords took 0.7-1.5 s, on (-6)-curves plus 100 chords
# 4.2 s (2-vCPU machine, Python 3.11).
MAX_CYCLE_RANK = 50
# The most bits in all of a graph document's entries (self-intersections,
# genera, multiplicities), since Bareiss pivots grow with them: 700 vertices
# plus 50 chords took 1.5-2.6 s at 3,549-3,999 bits, and 18.9 s with
# (-10,000)-curves at 10,549 bits (2-vCPU machine, Python 3.11).
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
        ids = [v.id for v in self.vertices]
        adjacent: dict[str, set[str]] = {i: set() for i in ids}
        for e in self.edges:
            adjacent[e.i].add(e.j)
            adjacent[e.j].add(e.i)
        reached = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            for nxt in adjacent[frontier.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        if len(reached) != len(ids):
            raise MalformedInputError("graph is not connected", reason="not-connected")

    @classmethod
    def make(cls, vertices, edges=()) -> "ResolutionGraph":
        """Build from plain tuples: ``(id, self_int, genus)`` and ``(i, j[, mult])``."""
        vs = tuple(Vertex(*v) for v in vertices)
        es = tuple(Edge(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges)
        return cls(vs, es)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v.id: k for k, v in enumerate(self.vertices)}

    def index(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise MalformedInputError(f"unknown vertex id {vertex_id!r}") from None

    def vertex(self, vertex_id: str) -> Vertex:
        return self.vertices[self.index(vertex_id)]

    @cached_property
    def intersection_form(self) -> SymForm:
        """Gram matrix: self-intersections on the diagonal, summed edge
        multiplicities off it, handed over as sparse integer rows."""
        rows = [{k: v.self_int} for k, v in enumerate(self.vertices)]
        for e in self.edges:
            a, b = self._index[e.i], self._index[e.j]
            rows[a][b] = rows[b][a] = rows[a].get(b, 0) + e.mult
        return SymForm.sparse(rows)

    def divisor(self, coeffs) -> "ExcDivisor":
        return ExcDivisor(self, QVector(coeffs))

    def basis_divisor(self, vertex_id: str) -> "ExcDivisor":
        n = len(self.vertices)
        return ExcDivisor(self, QVector.unit(n, self.index(vertex_id)))

    def zero_divisor(self) -> "ExcDivisor":
        return ExcDivisor(self, QVector.zero(len(self.vertices)))

    def canonical_intersections(self) -> QVector:
        """``k_j = K . E_j = 2 genus_j - 2 - self_int_j`` (adjunction)."""
        return QVector(self._canonical_ints())

    def _canonical_ints(self) -> list[int]:
        return [2 * v.genus - 2 - v.self_int for v in self.vertices]

    def mumford_pullback_canonical(self) -> "ExcDivisor":
        """The exceptional part ``B`` of the canonical pullback."""
        return self._canonical_pullback

    def log_discrepancy_divisor(self) -> "ExcDivisor":
        """Coefficient vector ``ell = 1 - b``, one entry per vertex."""
        return self._discrepancies.ell

    def discrepancy_report(self) -> "DiscrepancyReport":
        return self._discrepancies

    @cached_property
    def _canonical_pullback(self) -> "ExcDivisor":
        """The one integer solve ``(q, y = q b)`` of ``M b = -k``, certified in
        the same call by one integer mat-vec: ``(L M) y = -L q k``. On a
        relatively minimal model (all ``k_j >= 0``) a negative entry of ``b``
        would be a solver bug and raises; models carrying (-1)-vertices may
        legitimately have them."""
        k = self._canonical_ints()
        form = self.intersection_form
        q, y = form.solve_int([-x for x in k])
        b = _qvector(Fraction(v, q) for v in y)
        scale, sparse = form._integral
        if any(sum([a * y[j] for j, a in row]) != -scale * q * kj
               for row, kj in zip(sparse, k)):
            raise InternalConsistencyError(f"canonical pullback fails M b = -k: b = {b!r}")
        if min(k) >= 0 and min(y) < 0:
            raise InternalConsistencyError(
                "canonical pullback has a negative coefficient on a relatively "
                f"minimal model: b = {b!r}"
            )
        return ExcDivisor(self, b)

    @cached_property
    def _discrepancies(self) -> "DiscrepancyReport":
        """``B`` with ``ell = 1 - b`` and the lc data derived from it."""
        b = self.mumford_pullback_canonical()
        ell = QVector(1 - x for x in b.coeffs)
        is_lc = ell.is_nonnegative()
        support = frozenset(v.id for v, x in zip(self.vertices, ell) if x < 0)
        if is_lc != (not support):
            raise InternalConsistencyError("lc flag disagrees with its support")
        return DiscrepancyReport(b, ExcDivisor(self, ell), is_lc, support)

    def to_doc(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "self_int": v.self_int, "genus": v.genus}
                for v in self.vertices
            ],
            "edges": [{"i": e.i, "j": e.j, "mult": e.mult} for e in self.edges],
        }


class ExcDivisor(Record):
    """A rational divisor supported on the exceptional curves of one graph."""

    __slots__ = _fields = ("graph", "coeffs")

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.graph.vertices):
            raise MalformedInputError(
                f"divisor has {len(self.coeffs)} coefficients for "
                f"{len(self.graph.vertices)} vertices"
            )

    def coeff(self, vertex_id: str) -> Fraction:
        return self.coeffs[self.graph.index(vertex_id)]

    def intersections(self) -> QVector:
        """All products ``D . E_j`` at once, i.e. ``M . coeffs``."""
        return self.graph.intersection_form.apply(self.coeffs)

    def intersect(self, vertex_id: str) -> Fraction:
        return self.intersections()[self.graph.index(vertex_id)]

    def self_intersection(self) -> Fraction:
        return self.graph.intersection_form.pair(self.coeffs, self.coeffs)

    def _check_same_graph(self, other: "ExcDivisor") -> None:
        if self.graph != other.graph:
            raise MalformedInputError("divisors live on different graphs")

    def __add__(self, other: "ExcDivisor") -> "ExcDivisor":
        self._check_same_graph(other)
        return ExcDivisor(self.graph, self.coeffs + other.coeffs)

    def __sub__(self, other: "ExcDivisor") -> "ExcDivisor":
        self._check_same_graph(other)
        return ExcDivisor(self.graph, self.coeffs - other.coeffs)

    def __neg__(self) -> "ExcDivisor":
        return ExcDivisor(self.graph, -self.coeffs)

    def scale(self, factor) -> "ExcDivisor":
        return ExcDivisor(self.graph, self.coeffs.scale(factor))

    def leq(self, other: "ExcDivisor") -> bool:
        self._check_same_graph(other)
        return self.coeffs.leq(other.coeffs)

    def to_doc(self) -> dict[str, str]:
        return {v.id: rat_str(c) for v, c in zip(self.graph.vertices, self.coeffs)}


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
