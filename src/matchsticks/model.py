"""Immutable embedded graphs: vertices in the plane joined by straight segments.

Coordinates are stored in their original drawing units together with the
length ``unit`` that counts as one matchstick, so ingested figure data stays
inspectable; :func:`normalize` rescales a graph to unit = 1.  Everything is a
value: transformations return new graphs and never mutate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]


class ModelError(ValueError):
    """Invalid graph data (bad indices, duplicate edges, non-finite coordinates)."""


class ProfileNotApplicableError(ModelError):
    """Degree profile fits neither edge-count identity."""


def _canonical_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    out: list[Edge] = []
    for u, v in edges:
        u, v = int(u), int(v)
        out.append((u, v) if u <= v else (v, u))
    return tuple(out)


@dataclass(frozen=True)
class EmbeddedGraph:
    """A straight-line drawing of a graph.

    ``vertices`` is a read-only (v, 2) float array in drawing units, ``edges``
    a tuple of index pairs with u < v, and ``unit`` the drawing length of one
    matchstick.  Vertices are index-addressed; all other modules refer to them
    by index.
    """

    vertices: np.ndarray
    edges: tuple[Edge, ...] = field(default=())
    unit: float = 1.0
    name: str | None = None

    def __post_init__(self) -> None:
        coords = np.array(self.vertices, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ModelError(f"vertex array must have shape (v, 2), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ModelError("vertex coordinates must be finite")
        if not (math.isfinite(self.unit) and self.unit > 0):
            raise ModelError(f"unit must be a positive finite number, got {self.unit!r}")
        edges = _canonical_edges(self.edges)
        n = len(coords)
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ModelError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ModelError(f"edge ({u}, {v}) out of range for {n} vertices")
            if (u, v) in seen:
                raise ModelError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        coords.setflags(write=False)
        flat = itertools.chain.from_iterable(edges)
        edge_array = np.fromiter(flat, int, 2 * len(edges)).reshape(-1, 2)
        edge_array.setflags(write=False)
        object.__setattr__(self, "vertices", coords)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "unit", float(self.unit))
        object.__setattr__(self, "_edge_array", edge_array)

    # -- elementary accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int array of length v."""
        return np.bincount(self.edge_array().ravel(), minlength=self.vertex_count)

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (e, 2) int array (empty graphs give shape (0, 2)).

        Built once per graph; every call returns the same array.
        """
        return self._edge_array

    def with_vertices(self, coords: np.ndarray, unit: float | None = None) -> "EmbeddedGraph":
        """Same combinatorics, new coordinates (and optionally a new unit)."""
        return EmbeddedGraph(coords, self.edges, self.unit if unit is None else unit, self.name)


@dataclass(frozen=True)
class DegreeProfile:
    """Histogram of vertex degrees: degree -> number of vertices."""

    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", dict(self.counts))

    @property
    def vertex_count(self) -> int:
        return sum(self.counts.values())

    def degree2_count(self) -> int:
        return self.counts.get(2, 0)

    def is_4_regular(self) -> bool:
        return set(self.counts) <= {4} and self.vertex_count > 0

    def is_24_regular(self) -> bool:
        """Every vertex has degree 2 or 4 (degree-4-only graphs qualify)."""
        return set(self.counts) <= {2, 4} and self.vertex_count > 0

    def sorted_items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.counts.items()))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{d}: {c}" for d, c in self.sorted_items()) + "}"


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of the edge-count identity for a regular degree profile."""

    kind: str  # "4-regular" or "(2,4)-regular"
    holds: bool
    expected_edges: int
    actual_edges: int


def degree_profile(g: EmbeddedGraph) -> DegreeProfile:
    """Exact degree histogram of g."""
    deg = g.degrees()
    values, counts = np.unique(deg, return_counts=True)
    return DegreeProfile({int(d): int(c) for d, c in zip(values, counts)})


def edge_count_identity(g: EmbeddedGraph) -> IdentityCheck:
    """Check e = 2v (4-regular) or e = 2v - 2 (two degree-2 vertices, rest degree 4).

    Both identities follow from the degree sum: 4v = 2e gives e = 2v, and
    2*2 + 4(v-2) = 2e gives e = 2v - 2.  Raises ProfileNotApplicableError for
    any other degree profile.
    """
    profile = degree_profile(g)
    v, e = g.vertex_count, g.edge_count
    if profile.is_4_regular():
        expected = 2 * v
        return IdentityCheck("4-regular", e == expected, expected, e)
    if profile.is_24_regular() and profile.degree2_count() == 2:
        expected = 2 * v - 2
        return IdentityCheck("(2,4)-regular", e == expected, expected, e)
    raise ProfileNotApplicableError(
        f"degree profile {profile} matches neither identity pattern"
    )


def edge_lengths(g: EmbeddedGraph) -> np.ndarray:
    """All edge lengths in matchstick units, in edge order."""
    if not g.edges:
        return np.zeros(0)
    idx = g.edge_array()
    diff = g.vertices[idx[:, 0]] - g.vertices[idx[:, 1]]
    return np.hypot(diff[:, 0], diff[:, 1]) / g.unit


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """For each of n nodes, the smallest node index in its component.

    The graph's edges are the pairs ``(i[k], j[k])``.  Each round hooks the
    larger label of every edge whose ends disagree onto the smaller one and
    then jumps pointers until every label is a root; labels only decrease,
    so the rounds stop with each component labelled by its smallest member.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        split = li != lj
        if not split.any():
            return label
        np.minimum.at(label, np.maximum(li, lj)[split], np.minimum(li, lj)[split])
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


def normalize(g: EmbeddedGraph) -> EmbeddedGraph:
    """Rescale coordinates so that unit = 1 (a pure change of scale)."""
    if g.unit == 1.0:
        return g
    return g.with_vertices(g.vertices / g.unit, unit=1.0)
