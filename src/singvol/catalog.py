"""Named example graphs, and the list of all catalog names.

Graph entries cover the standard zoo: the ADE (rational double point)
graphs, simple elliptic singularities (one elliptic curve of
self-intersection ``-d``), cusp cycles, and cones over higher-genus
curves. Parametric names like ``A7``, ``cusp-5``, ``simple-elliptic-3`` or
``cone-g2-d1`` resolve on demand, through the catalog lookup ``io.by_name``
that named cones (``cone.cone_by_name``) use too, so graph names never load
the cone module. ``catalog list`` prints both lists (``cli.catalog_entries``).
"""

from __future__ import annotations

import re

from .errors import MalformedInputError
from .graph import ResolutionGraph, check_graph_size
from .io import by_name, name_number


def a_n(n: int) -> ResolutionGraph:
    """Chain of ``n`` (-2)-curves."""
    if n < 1:
        raise MalformedInputError("A_n needs n >= 1")
    vertices = [(f"v{k}", -2, 0) for k in range(1, n + 1)]
    edges = [(f"v{k}", f"v{k + 1}") for k in range(1, n)]
    return ResolutionGraph.make(vertices, edges)


def d_n(n: int) -> ResolutionGraph:
    """Chain of ``n - 2`` (-2)-curves with a two-leaf fork at one end."""
    if n < 4:
        raise MalformedInputError("D_n needs n >= 4")
    vertices = [(f"v{k}", -2, 0) for k in range(1, n - 1)]
    vertices += [("f1", -2, 0), ("f2", -2, 0)]
    edges = [(f"v{k}", f"v{k + 1}") for k in range(1, n - 2)]
    edges += [("v1", "f1"), ("v1", "f2")]
    return ResolutionGraph.make(vertices, edges)


def _e_series(n: int) -> ResolutionGraph:
    vertices = [(f"v{k}", -2, 0) for k in range(1, n)] + [("w", -2, 0)]
    edges = [(f"v{k}", f"v{k + 1}") for k in range(1, n - 1)] + [("v3", "w")]
    return ResolutionGraph.make(vertices, edges)


def e6() -> ResolutionGraph:
    return _e_series(6)


def e7() -> ResolutionGraph:
    return _e_series(7)


def e8() -> ResolutionGraph:
    return _e_series(8)


def simple_elliptic(d: int) -> ResolutionGraph:
    """One elliptic curve of self-intersection ``-d``."""
    if d < 1:
        raise MalformedInputError("simple elliptic graph needs d >= 1")
    return ResolutionGraph.make([("e", -d, 1)])


def cusp_cycle(length: int) -> ResolutionGraph:
    """Cycle of ``length`` rational (-3)-curves."""
    if length < 3:
        raise MalformedInputError("cusp cycle needs length >= 3")
    vertices = [(f"v{k}", -3, 0) for k in range(1, length + 1)]
    edges = [(f"v{k}", f"v{k % length + 1}") for k in range(1, length + 1)]
    return ResolutionGraph.make(vertices, edges)


def cone_over_curve(genus: int, degree: int) -> ResolutionGraph:
    """One genus-``g`` curve of self-intersection ``-d``."""
    if genus < 0 or degree < 1:
        raise MalformedInputError("cone graph needs genus >= 0 and degree >= 1")
    return ResolutionGraph.make([("c", -degree, genus)])


_GRAPH_FIXED = {"E6": e6, "E7": e7, "E8": e8}


def _vertex_count(match) -> int:
    """The number in ``A<n>``, ``D<n>`` or ``cusp-<L>``, checked as a size."""
    n = name_number(match.group(1))
    check_graph_size(n)
    return n


_GRAPH_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (re.compile(r"^A(\d+)$"), lambda m: a_n(_vertex_count(m))),
    (re.compile(r"^D(\d+)$"), lambda m: d_n(_vertex_count(m))),
    (re.compile(r"^cusp-(\d+)$"), lambda m: cusp_cycle(_vertex_count(m))),
    (
        re.compile(r"^simple-elliptic-(\d+)$"),
        lambda m: simple_elliptic(name_number(m.group(1))),
    ),
    (
        re.compile(r"^cone-g(\d+)-d(\d+)$"),
        lambda m: cone_over_curve(name_number(m.group(1)), name_number(m.group(2))),
    ),
)


def graph_by_name(name: str) -> ResolutionGraph:
    return by_name(name, _GRAPH_FIXED, _GRAPH_PATTERNS, "graph")
