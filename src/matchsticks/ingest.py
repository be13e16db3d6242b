"""Segment-list files: parse, emit, and turn into embedded graphs.

The file format is line-oriented text: ``#`` comments, ``! key value``
metadata, and data lines of four reals ``x1 y1 x2 y2`` (one drawn segment
each).  Figure drawings repeat each vertex once per incident segment with
coordinates rounded to 4 decimals, so building a graph means clustering
endpoints that agree to within a merge radius and estimating which drawing
length counts as one matchstick; graphs come out scaled to that unit.
Endpoint pairs within the merge radius come from verify's sweep-and-prune
broad phase, and clusters are the connected components of those pairs, so
time and memory grow linearly with the number of segments for long, thin
drawings; an axis-aligned 4,900-vertex triangular-lattice patch took 104 ms
and 150 MB traced peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import EmbeddedGraph, _components
from .verify import _near_pairs

METADATA_KEYS = ("name", "claimed_vertices", "claimed_profile", "claimed_rigidity")
_PROFILES = ("4-regular", "(2,4)-regular")
_RIGIDITIES = ("rigid", "flexible", "unknown")
_MERGE_RADIUS = 1e-2  # drawing units: endpoints this close are one vertex


class SegmentFileError(ValueError):
    """Malformed segment file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class SegmentFile:
    """Parsed segment file: metadata map plus an (s, 4) array of segments."""

    metadata: Mapping[str, object]
    segments: np.ndarray

    def __post_init__(self) -> None:
        segs = np.array(self.segments, dtype=float).reshape(-1, 4)
        if len(segs) == 0:
            raise SegmentFileError("no segments")
        if not np.all(np.isfinite(segs)):
            raise SegmentFileError("non-finite coordinate")
        segs.setflags(write=False)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "metadata", dict(self.metadata))


def parse_segment_file(text: str) -> SegmentFile:
    """Parse the segment-file format; raises SegmentFileError with a line number."""
    metadata: dict[str, object] = {}
    segments: list[tuple[float, float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise SegmentFileError("metadata line needs a key and a value", lineno)
            key, value = parts[0], parts[1].strip()
            if key not in METADATA_KEYS:
                raise SegmentFileError(f"unknown metadata key {key!r}", lineno)
            if key == "claimed_vertices":
                try:
                    metadata[key] = int(value)
                except ValueError:
                    raise SegmentFileError(f"claimed_vertices must be an integer, got {value!r}", lineno)
            elif key == "claimed_profile":
                if value not in _PROFILES:
                    raise SegmentFileError(f"claimed_profile must be one of {_PROFILES}", lineno)
                metadata[key] = value
            elif key == "claimed_rigidity":
                if value not in _RIGIDITIES:
                    raise SegmentFileError(f"claimed_rigidity must be one of {_RIGIDITIES}", lineno)
                metadata[key] = value
            else:
                metadata[key] = value
            continue
        fields = line.split()
        if len(fields) != 4:
            raise SegmentFileError(f"expected 4 coordinates, got {len(fields)}", lineno)
        try:
            x1, y1, x2, y2 = (float(f) for f in fields)
        except ValueError:
            raise SegmentFileError(f"could not parse coordinates: {line!r}", lineno)
        segments.append((x1, y1, x2, y2))
    if "name" not in metadata:
        raise SegmentFileError("missing required metadata key 'name'")
    if not segments:
        raise SegmentFileError("no data lines")
    return SegmentFile(metadata, np.array(segments))


def emit_segments(g: EmbeddedGraph) -> str:
    """Write a graph's edges back out in the segment-file format (9 significant digits)."""
    lines = [f"! name {g.name if g.name is not None else 'unnamed'}"]
    for u, v in g.edges:
        x1, y1 = g.vertices[u]
        x2, y2 = g.vertices[v]
        lines.append(f"{x1:.9g} {y1:.9g} {x2:.9g} {y2:.9g}")
    return "\n".join(lines) + "\n"


def estimate_unit(segments: np.ndarray) -> float:
    """Median segment length (mean of the middle pair for even counts).

    Taken from the sorted lengths rather than ``np.median``, whose NaN check
    imports ``numpy.ma``; the pair is added and halved as ``np.median`` does,
    so the two agree bit for bit.
    """
    segs = np.asarray(segments, dtype=float).reshape(-1, 4)
    k = len(segs)
    if k == 0:
        raise ValueError("need at least one segment")
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    ordered = np.sort(lengths)
    if np.isnan(ordered[-1]):  # NaN sorts last; np.median gives NaN for it too
        return float("nan")
    middle = ordered[(k - 1) // 2 : k // 2 + 1]
    return float(middle.sum() / len(middle))


def max_unit_deviation(segments: np.ndarray) -> float:
    """Largest relative deviation of any segment length from the estimated unit."""
    segs = np.asarray(segments, dtype=float).reshape(-1, 4)
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    return float(np.max(np.abs(lengths / estimate_unit(segs) - 1.0)))


def _cluster_endpoints(points: np.ndarray, eps: float) -> np.ndarray:
    """Join points within eps of each other; returns a cluster label per point.

    Candidates come from verify's broad phase with margin eps, and the
    label is the smallest point index in the cluster.  Transitive chains are
    possible in principle; the caller rejects any clustering whose centroids
    end up suspiciously close.
    """
    i, j = _near_pairs(points, points, eps)
    d = points[i] - points[j]
    close = np.hypot(d[:, 0], d[:, 1]) <= eps
    return _components(len(points), i[close], j[close])


def build_graph(sf: SegmentFile) -> EmbeddedGraph:
    """Cluster segment endpoints into vertices and assemble the embedded graph.

    Endpoints are merged and checked in drawing units.  Each endpoint cluster
    becomes one vertex at the cluster centroid (first appearance order);
    duplicate segments collapse to one edge.  The graph comes back in
    matchstick units: centroids divided by the unit, the median segment
    length.  Raises SegmentFileError when two distinct cluster centers come
    within twice the merge radius (the clustering cannot be trusted), when a
    segment's endpoints coincide, or when the unit or the scaled centroids
    overflow float64.
    """
    segs = sf.segments
    s = len(segs)
    eps = _MERGE_RADIUS
    with np.errstate(over="ignore"):  # an infinite unit is refused below
        unit = estimate_unit(segs)
    if not eps < 0.1 * unit:
        raise SegmentFileError(f"merge radius {eps} is not small against the unit {unit:.6g}")
    endpoints = np.concatenate([segs[:, 0:2], segs[:, 2:4]])  # (2s, 2): starts then ends
    labels = _cluster_endpoints(endpoints, eps)

    # vertex ids in order of first appearance along the segment list
    walk = labels.reshape(2, s).T.ravel()
    found, first = np.unique(walk, return_index=True)
    vertex_of = np.empty(2 * s, dtype=np.intp)
    vertex_of[found[np.argsort(first)]] = np.arange(len(found))
    ends = vertex_of[labels]
    centroids = np.zeros((len(found), 2))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(centroids, ends, endpoints)  # summed in endpoint order
        centroids /= np.bincount(ends)[:, None]
        scaled = centroids / unit
    if not (np.isfinite(unit) and np.isfinite(scaled).all()):
        raise SegmentFileError("the drawing's coordinates overflow float64 when merged or scaled")

    ci, cj = _near_pairs(centroids, centroids, 2 * eps)
    d = centroids[ci] - centroids[cj]
    mind = float(np.hypot(d[:, 0], d[:, 1]).min(initial=np.inf))
    if mind < 2 * eps:
        raise SegmentFileError(
            f"two merged vertices are only {mind:.6g} apart "
            f"(< 2 x merge radius = {2 * eps:.6g})"
        )

    u, v = ends[:s], ends[s:]
    degenerate = np.flatnonzero(u == v)
    if len(degenerate):
        k = degenerate[0]
        raise SegmentFileError(f"segment {k} endpoints merged into vertex {u[k]}")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * len(found) + hi, return_index=True)
    keep = np.sort(first)
    edges = np.column_stack([lo[keep], hi[keep]])

    name = sf.metadata.get("name")
    return EmbeddedGraph(scaled, edges, name=str(name) if name is not None else None)
