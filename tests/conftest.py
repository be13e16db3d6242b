"""Shared graph builders and hypothesis configuration for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matchsticks import corpus
from matchsticks.construct import ChainSpec, CompositionPlan, PartSpec, chain_extend
from matchsticks.model import EmbeddedGraph

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

ROOT3_OVER_2 = math.sqrt(3) / 2


def merged_vertex_count(plan: CompositionPlan) -> int:
    """The parts' vertices, less one per identification (it merges two ports)."""
    return sum(spec.graph.vertex_count for spec in plan.parts) - len(plan.identifications)


def unit_triangle() -> EmbeddedGraph:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, ROOT3_OVER_2]])
    return EmbeddedGraph(coords, ((0, 1), (1, 2), (0, 2)), name="triangle")


def unit_rhombus() -> EmbeddedGraph:
    """Unit 4-cycle (a flexible framework with one internal degree of freedom)."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, ROOT3_OVER_2], [0.5, ROOT3_OVER_2]])
    return EmbeddedGraph(coords, ((0, 1), (1, 2), (2, 3), (0, 3)), name="rhombus")


def triangle_strip(n: int) -> EmbeddedGraph:
    """A strip of n unit triangles glued on shared edges; rigid for every n >= 1.

    Vertices zigzag along the x axis; every edge (consecutive and
    next-but-one) has length exactly 1.
    """
    coords = np.array(
        [[i / 2, (i % 2) * ROOT3_OVER_2] for i in range(n + 2)]
    )
    edges = [(i, i + 1) for i in range(n + 1)] + [(i, i + 2) for i in range(n)]
    return EmbeddedGraph(coords, tuple(edges), name=f"strip{n}")


def random_connected_graph(rng: np.random.Generator, n: int) -> EmbeddedGraph:
    """Random spread-out embedded graph: a spanning tree plus a few extra edges.

    Edge lengths are whatever the random coordinates give (not unit); suitable
    for Jacobian and rank tests that need generic geometry.
    """
    coords = rng.uniform(-5.0, 5.0, size=(n, 2))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return EmbeddedGraph(coords, tuple(sorted(edges)), name="random")


def turned_upright(g: EmbeddedGraph) -> EmbeddedGraph:
    """g turned by 90 degrees and moved to about (1e4, -1e4).

    A drawing long along x comes out long along y, so a broad phase that
    sweeps along x only would meet nearly every pair of its sticks.
    """
    x, y = g.vertices.T
    return EmbeddedGraph(np.column_stack([1e4 - y, x - 1e4]), g.edges, name=g.name)


@pytest.fixture(scope="session")
def long_chain() -> EmbeddedGraph:
    """fig5a + 300 spacers + fig5c: 995 vertices, built once per session.

    ``chain_extend`` tiles it from a glue-solved base chain; it raises
    RealizationFailedError unless every glue solve it ran converged.
    """
    spec = ChainSpec(
        PartSpec(corpus.refined_graph("fig5a")), PartSpec(corpus.refined_graph("fig5c")), 300
    )
    return chain_extend(spec)
