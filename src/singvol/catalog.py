"""Named example graphs and cones.

Graph entries cover the standard zoo: the ADE (rational double point)
graphs, simple elliptic singularities (one elliptic curve of
self-intersection ``-d``), cusp cycles, and cones over higher-genus
curves. Cone entries ship the two fixtures the cone module is built
around. Parametric names like ``A7``, ``cusp-5``, ``simple-elliptic-3`` or
``cone-g2-d1`` resolve on demand.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cone import PolarizedCone, RigidClass, curve_cone
from .errors import DomainError, MalformedInputError
from .graph import ResolutionGraph, check_graph_size
from .lattice import QVector, SymForm


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


def ruled_surface_cone() -> PolarizedCone:
    """The built-in ``paper-ruled-surface`` cone.

    ``V`` is the ruled surface over an elliptic curve attached to the
    unique nonsplit extension of the trivial bundle by itself. Its numeric
    lattice is spanned by the section ``C0`` and a fiber ``F`` with
    ``C0^2 = F^2 = 0`` and ``C0 . F = 1``; nef and pseudo-effective cones
    coincide and are spanned by ``C0`` and ``F``; ``K_V = -2 C0``; the
    polarization is ``H = C0 + F`` (so ``H^2 = 2``); and every effective
    divisor in ``|m C0|`` is ``m C0`` itself, recorded as a rigidity
    annotation on the ``C0`` ray.
    """
    return PolarizedCone(
        dim_x=3,
        basis=("C0", "F"),
        form=SymForm([[0, 1], [1, 0]]),
        nef_gens=(QVector([1, 0]), QVector([0, 1])),
        pseff_gens=(QVector([1, 0]), QVector([0, 1])),
        k_class=QVector([-2, 0]),
        h_class=QVector([1, 1]),
        rigid=(RigidClass(QVector([1, 0]), (("C0", Fraction(1)),)),),
    )


_GRAPH_FIXED = {
    "E6": e6,
    "E7": e7,
    "E8": e8,
}


def _vertex_count(match) -> int:
    """The number in ``A<n>``, ``D<n>`` or ``cusp-<L>``, checked as a size."""
    n = int(match.group(1))
    check_graph_size(n)
    return n


_GRAPH_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (re.compile(r"^A(\d+)$"), lambda m: a_n(_vertex_count(m))),
    (re.compile(r"^D(\d+)$"), lambda m: d_n(_vertex_count(m))),
    (re.compile(r"^cusp-(\d+)$"), lambda m: cusp_cycle(_vertex_count(m))),
    (
        re.compile(r"^simple-elliptic-(\d+)$"),
        lambda m: simple_elliptic(int(m.group(1))),
    ),
    (
        re.compile(r"^cone-g(\d+)-d(\d+)$"),
        lambda m: cone_over_curve(int(m.group(1)), int(m.group(2))),
    ),
)

_CONE_FIXED = {
    "paper-ruled-surface": ruled_surface_cone,
    "elliptic-cone": lambda: curve_cone(1, 1),
}

_CONE_PATTERNS: tuple[tuple[re.Pattern, object], ...] = (
    (
        re.compile(r"^cone-g(\d+)-d(\d+)$"),
        lambda m: curve_cone(int(m.group(1)), int(m.group(2))),
    ),
    (
        re.compile(r"^elliptic-cone-(\d+)$"),
        lambda m: curve_cone(1, int(m.group(1))),
    ),
)


def _build_named(name: str, build, match) -> object:
    # a name that matches a pattern but carries out-of-range parameters is
    # still a bad name, not a bad computation
    try:
        return build(match)
    except DomainError as exc:
        if exc.reason == "too-large":  # a valid name, beyond the size limit
            raise
        raise MalformedInputError(
            f"catalog name {name!r} has invalid parameters: {exc}"
        ) from exc


def graph_by_name(name: str) -> ResolutionGraph:
    if name in _GRAPH_FIXED:
        return _GRAPH_FIXED[name]()
    for pattern, build in _GRAPH_PATTERNS:
        m = pattern.match(name)
        if m:
            return _build_named(name, build, m)
    raise MalformedInputError(f"unknown catalog graph {name!r}", reason="unknown-catalog-name")


def cone_by_name(name: str) -> PolarizedCone:
    if name in _CONE_FIXED:
        return _CONE_FIXED[name]()
    for pattern, build in _CONE_PATTERNS:
        m = pattern.match(name)
        if m:
            return _build_named(name, build, m)
    raise MalformedInputError(f"unknown catalog cone {name!r}", reason="unknown-catalog-name")


def catalog_entries() -> dict:
    """Everything `catalog list` prints: fixed names plus name patterns."""
    return {
        "graphs": {
            "fixed": sorted(_GRAPH_FIXED),
            "patterns": [
                "A<n>            chain of n (-2)-curves",
                "D<n>            forked chain, n >= 4",
                "cusp-<L>        cycle of L rational (-3)-curves, L >= 3",
                "simple-elliptic-<d>  one elliptic (-d)-curve",
                "cone-g<g>-d<d>  one genus-g curve of self-intersection -d",
            ],
        },
        "cones": {
            "fixed": sorted(_CONE_FIXED),
            "patterns": [
                "cone-g<g>-d<d>  polarized cone over a genus-g degree-d curve",
                "elliptic-cone-<d>  cone over an elliptic curve of degree d",
            ],
        },
    }
