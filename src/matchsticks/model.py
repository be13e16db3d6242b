"""Immutable embedded graphs: vertices in the plane joined by straight segments.

Coordinates are in matchstick units, so a matchstick has length 1; ingest
rescales drawings to that unit when it builds their graphs.  Everything is a
value: transformations return new graphs and never mutate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np


class ModelError(ValueError):
    """Invalid graph data (bad indices, duplicate edges, non-finite coordinates)."""


def _canonical_edges(edges: Iterable[Sequence[int]] | np.ndarray, n: int) -> np.ndarray:
    """Validated edges as an (e, 2) int64 array, each row sorted ascending.

    Raises ModelError for the first row that is not a pair; when every row is
    a pair, for the first offending edge in order: a non-integral index, a
    self-loop, an index outside [0, n), or a repeat of an earlier edge.
    """
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    if len(rows) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        raw = np.asarray(rows)
    except ValueError:  # rows of different lengths
        raw = None
    if raw is None or raw.ndim != 2 or raw.shape[1] != 2:
        listed = rows.tolist() if isinstance(rows, np.ndarray) else rows
        row = next(row for row in listed if not _is_pair(row))
        shown = str(tuple(row)) if isinstance(row, (list, tuple)) else repr(row)
        raise ModelError(f"edge {shown} is not a pair of vertex indices")
    if raw.dtype.kind in "iu":
        values, fraction = raw, np.zeros(len(raw), dtype=bool)
    else:  # floats, text, or Python integers beyond int64, one by one
        values = np.array([_real(x) for x in raw.ravel().tolist()]).reshape(raw.shape)
        fraction = ~(values == np.floor(values)).all(axis=1)  # nan is no integer
    lo, hi = np.minimum(values[:, 0], values[:, 1]), np.maximum(values[:, 0], values[:, 1])
    loop = values[:, 0] == values[:, 1]
    bad = fraction | loop | (lo < 0) | (hi >= n)
    lo = np.where(bad, 0, lo).astype(np.int64)
    hi = np.where(bad, 0, hi).astype(np.int64)
    keys = np.where(bad, -1 - np.arange(len(raw)), lo * n + hi)
    order = np.argsort(keys, kind="stable")  # a repeat sorts after its first
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if bad.any() or len(repeats):
        k = int(min(np.flatnonzero(bad).min(initial=len(raw)), repeats.min(initial=len(raw))))
        u, v = (_index_text(x) for x in rows[k])  # as given: numpy makes a row with text all text
        if values[k, 0] > values[k, 1]:
            u, v = v, u
        if fraction[k]:
            raise ModelError(f"edge ({u}, {v}) has a non-integral vertex index")
        if loop[k]:
            raise ModelError(f"self-loop at vertex {u}")
        if bad[k]:
            raise ModelError(f"edge ({u}, {v}) out of range for {n} vertices")
        raise ModelError(f"duplicate edge ({u}, {v})")
    return np.column_stack([lo, hi])


def _is_pair(row: object) -> bool:
    try:
        return np.shape(row) == (2,)
    except ValueError:  # nested rows of different lengths
        return False


def _real(x: object) -> float:
    """An edge entry as a float: inf beyond the float range, nan if no number."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


def _index_text(x: object) -> str:
    """One edge entry as the messages show it: integral values as integers."""
    x = x.item() if isinstance(x, np.generic) else x
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return str(int(x))
    return repr(x)


@dataclass(frozen=True, eq=False)
class EmbeddedGraph:
    """A straight-line drawing of a graph, in matchstick units.

    ``vertices`` is a read-only (v, 2) float array and ``edges`` a read-only
    (e, 2) int64 array whose rows are index pairs u < v (given as index pairs
    in any order or as an (e, 2) array).  Vertices are index-addressed; all
    other modules refer to them by index.

    Graphs compare and hash by identity: two loads of one drawing are not
    ``==``.  Compare ``vertices`` and ``edges`` to compare drawings.
    """

    vertices: np.ndarray
    edges: np.ndarray = field(default=())
    name: str | None = field(default=None, kw_only=True)
    #: one matchstick, always: ``perfbench/workloads.py`` still divides by ``g.unit``
    unit: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        coords = np.array(self.vertices, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ModelError(f"vertex array must have shape (v, 2), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ModelError("vertex coordinates must be finite")
        edges = _canonical_edges(self.edges, len(coords))
        coords.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "vertices", coords)
        object.__setattr__(self, "edges", edges)

    # -- elementary accessors -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int array of length v."""
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)


def degree_profile(g: EmbeddedGraph) -> dict[int, int]:
    """Exact degree histogram of g, {degree: vertex count}, ascending by degree."""
    values, counts = np.unique(g.degrees(), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def edge_lengths(g: EmbeddedGraph) -> np.ndarray:
    """All edge lengths, in edge order."""
    diff = g.vertices[g.edges[:, 0]] - g.vertices[g.edges[:, 1]]
    return np.hypot(diff[:, 0], diff[:, 1])


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

