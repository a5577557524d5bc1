"""Seeded random graphs, divisors and blowup towers for the check suites.

Everything takes an explicit ``random.Random`` so identical seeds give
identical suites; the command line records the seed in its report.
"""

from __future__ import annotations

import math
from functools import partial
from random import Random

from .errors import MalformedInputError
from .graph import ExcDivisor, ResolutionGraph
# blow_up is not called here; it stays bound because perfbench's tracer
# self-test reads it as randgen.blow_up.
from .tower import BlowupStep, FreeBlowup, ModelTower, SatelliteBlowup, blow_up  # noqa: F401


def random_graph(rng: Random, max_vertices: int, min_vertices: int = 1) -> ResolutionGraph:
    """A random connected negative-definite graph.

    Builds a random tree with occasional extra cycle edges and mixed
    weights, then retries on the (rare) draws whose intersection matrix
    fails definiteness; falls back to a plain (-2)-chain if a pocket of
    bad luck exhausts the attempts.
    """
    if max_vertices < min_vertices or min_vertices < 1:
        raise MalformedInputError("bad vertex bounds")
    for _ in range(64):
        r = rng.randint(min_vertices, max_vertices)
        vertices = [
            (f"v{k}", -rng.randint(2, 5), rng.choice([0, 0, 0, 0, 1, 2]))
            for k in range(1, r + 1)
        ]
        edges = [
            (f"v{rng.randint(1, k - 1)}", f"v{k}", rng.choice([1, 1, 1, 2]))
            for k in range(2, r + 1)
        ]
        if r >= 3 and rng.random() < 0.25:
            a, b = rng.sample(range(1, r + 1), 2)
            edges.append((f"v{a}", f"v{b}", 1))
        try:
            return ResolutionGraph.make(vertices, edges)
        except MalformedInputError:
            continue
    n = rng.randint(min_vertices, max_vertices)
    return ResolutionGraph.make(
        [(f"v{k}", -2, 0) for k in range(1, n + 1)],
        [(f"v{k}", f"v{k + 1}") for k in range(1, n)],
    )


def random_divisor(
    rng: Random, graph: ResolutionGraph, low: int = -3, high: int = 3
) -> ExcDivisor:
    """Random rational coefficients in ``[low, high]`` with denominators
    up to 3."""
    draws = []
    for _ in graph.vertices:
        den = rng.randint(1, 3)
        draws.append((den, rng.randint(low * den, high * den)))
    den = math.lcm(*(d for d, _ in draws))
    return ExcDivisor.from_ints(graph, den, [num * (den // d) for d, num in draws])


def random_step(rng: Random, graph: ResolutionGraph) -> BlowupStep:
    if graph.edges and rng.random() < 0.5:
        k = rng.randrange(len(graph.edges))
        e = graph.edges[k]
        parallel = [x for x in graph.edges if x.joins(e.i, e.j)]
        return SatelliteBlowup(e.i, e.j, parallel.index(e))
    return FreeBlowup(rng.choice(graph.ids))


def random_tower(rng: Random, graph: ResolutionGraph, max_steps: int = 3) -> ModelTower:
    # Each step is drawn against the model it applies to, as the tower
    # builds it, so later steps may hit the vertices earlier ones created.
    return ModelTower(graph, [partial(random_step, rng)] * rng.randint(1, max_steps))
