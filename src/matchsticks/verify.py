"""Decide whether an embedded graph is a matchstick graph.

A matchstick graph is drawn with straight unit-length edges such that
non-adjacent edges do not intersect.  Numerically that becomes three checks
with explicit margins: every edge length within eps_length of 1, every pair
of non-adjacent edges at least eps_separation apart (adjacent pairs must not
overlap beyond their shared endpoint), and no two vertices or vertex/edge
pairs closer than eps_separation.  Violations are reported as data, never
raised.

Candidate pairs for the separation checks come from one uniform-grid broad
phase query per graph over the axis-aligned boxes of all edges and vertices
(with an eps margin).  Each box meets only the later boxes of its own cell
and the boxes of the four cells after it, so every pair is found once, and
the box test runs on per-axis 1-D arrays; only candidates reach the exact
distance kernels.  Every stick has unit length, so cells are about one unit
wide and, for drawings of bounded density, time and memory grow linearly
with the size of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DegreeProfile, EmbeddedGraph, degree_profile, edge_lengths

Segment = Sequence[float]  # (x1, y1, x2, y2)


@dataclass(frozen=True)
class Tolerances:
    """Margins for the geometric checks, in matchstick units."""

    eps_length: float = 1e-6
    eps_separation: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.eps_length < 0.1:
            raise ValueError("eps_length must be in (0, 0.1)")
        if not 0 < self.eps_separation < 0.5:
            raise ValueError("eps_separation must be in (0, 0.5)")

    @classmethod
    def raw(cls) -> "Tolerances":
        """Looser length tolerance for unrefined figure data (4-decimal coordinates)."""
        return cls(eps_length=1e-3, eps_separation=1e-4)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of all checks; classification is derived from the three flags."""

    unit_length_ok: bool
    worst_edge: int | None
    worst_deviation: float
    crossing_ok: bool
    crossing_violations: tuple[tuple[int, int, float], ...]
    vertex_clearance_ok: bool
    clearance_violations: tuple[tuple[str, int, int, float], ...]
    profile: DegreeProfile
    classification: str

    @property
    def is_matchstick(self) -> bool:
        return self.unit_length_ok and self.crossing_ok and self.vertex_clearance_ok

    def to_json_dict(self) -> dict:
        return {
            "is_matchstick": self.is_matchstick,
            "unit_length_ok": self.unit_length_ok,
            "worst_edge": self.worst_edge,
            "worst_deviation": self.worst_deviation,
            "crossing_ok": self.crossing_ok,
            "crossing_violations": [
                {"edge_a": i, "edge_b": j, "distance": d}
                for i, j, d in self.crossing_violations
            ],
            "vertex_clearance_ok": self.vertex_clearance_ok,
            "clearance_violations": [
                {"kind": kind, "a": a, "b": b, "distance": d}
                for kind, a, b, d in self.clearance_violations
            ],
            "profile": {str(d): c for d, c in self.profile.sorted_items()},
            "classification": self.classification,
        }


# -- segment geometry ---------------------------------------------------------


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _scale(*points: np.ndarray) -> np.ndarray:
    """Per pair, the power of two just above the largest |coordinate|, (..., 1).

    Dividing by a power of two is exact and changes no rounding, yet squares
    and cross products of coordinates near the float range cannot overflow.
    """
    largest = np.abs(points[0]).max(axis=-1)
    for x in points[1:]:
        largest = np.maximum(largest, np.abs(x).max(axis=-1))
    return np.ldexp(1.0, np.frexp(largest)[1])[..., None]


def _point_segment_distance(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Distance from point(s) to segment(s), broadcasting over leading axes."""
    scale = _scale(p, s0, s1)
    p, s0, s1 = p / scale, s0 / scale, s1 / scale
    d = s1 - s0
    dd = np.sum(d * d, axis=-1)
    t = np.sum((p - s0) * d, axis=-1) / np.where(dd > 0, dd, 1.0)
    gap = p - (s0 + np.clip(t, 0.0, 1.0)[..., None] * d)
    return np.hypot(gap[..., 0], gap[..., 1]) * scale[..., 0]


def segment_pair_intersects(a0, a1, b0, b1) -> np.ndarray:
    """Strict proper crossing (interiors cross); touching does not count."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    scale = _scale(a0, a1, b0, b1)
    a0, a1, b0, b1 = a0 / scale, a1 / scale, b0 / scale, b1 / scale
    d1, d2 = a1 - a0, b1 - b0
    s1 = _cross(d1, b0 - a0)
    s2 = _cross(d1, b1 - a0)
    s3 = _cross(d2, a0 - b0)
    s4 = _cross(d2, a1 - b0)
    # signs, not products: products of tiny scaled cross terms would underflow to 0
    return (np.sign(s1) * np.sign(s2) < 0) & (np.sign(s3) * np.sign(s4) < 0)


def segment_pair_distance(a0, a1, b0, b1) -> np.ndarray:
    """Exact minimum distance between segment pairs (0 where they cross).

    For non-crossing segments the minimum is attained at an endpoint of one
    of them, so the minimum over the four endpoint-to-segment distances is
    exact; proper crossings are detected separately and give 0.
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    dist = _point_segment_distance(
        np.stack([b0, b1, a0, a1]), np.stack([a0, a0, b0, b0]), np.stack([a1, a1, b1, b1])
    ).min(axis=0)
    return np.where(segment_pair_intersects(a0, a1, b0, b1), 0.0, dist)


def segments_conflict(
    a: Segment,
    b: Segment,
    shared: tuple[int, int] | None = None,
    eps: float = 1e-4,
) -> bool:
    """Do two drawn segments violate the matchstick drawing condition?

    Non-adjacent pairs (``shared is None``) conflict when they intersect or
    come closer than ``eps``.  Adjacent pairs share an endpoint, given as
    ``shared=(end_of_a, end_of_b)`` with values 0/1 selecting the endpoint of
    each segment; they conflict when they overlap beyond the shared point,
    i.e. the angle between them falls below asin(min(eps, 1)).
    """
    ax = np.asarray(a, dtype=float).reshape(4)
    bx = np.asarray(b, dtype=float).reshape(4)
    a0, a1 = ax[0:2], ax[2:4]
    b0, b1 = bx[0:2], bx[2:4]
    if shared is None:
        if bool(segment_pair_intersects(a0, a1, b0, b1)):
            return True
        return bool(segment_pair_distance(a0, a1, b0, b1) < eps)
    ea, eb = shared
    a_shared, a_other = (a0, a1) if ea == 0 else (a1, a0)
    b_shared, b_other = (b0, b1) if eb == 0 else (b1, b0)
    u = a_other - a_shared
    v = b_other - b_shared
    nu, nv = np.hypot(*u), np.hypot(*v)
    if nu == 0 or nv == 0:
        return True  # degenerate stick: treat as overlapping
    cos = float(np.dot(u, v)) / (nu * nv)
    sin = abs(float(_cross(u, v))) / (nu * nv)
    return cos > 0 and sin < min(eps, 1.0)


# -- full graph verification --------------------------------------------------


def verify_matchstick(g: EmbeddedGraph, tol: Tolerances = Tolerances()) -> VerificationReport:
    """Run every check and classify the graph.

    All violations are collected, not just the first.  The classification is
    "not-a-matchstick-graph" exactly when any check fails; otherwise it names
    the degree-regularity class.
    """
    coords = g.vertices
    eidx = g.edges
    eps = tol.eps_separation
    profile = degree_profile(g)

    # 1. unit lengths
    if g.edge_count:
        deviations = np.abs(edge_lengths(g) - 1.0)
        worst = int(np.argmax(deviations))
        worst_dev = float(deviations[worst])
    else:
        worst, worst_dev = None, 0.0
    unit_ok = worst_dev <= tol.eps_length

    apart, adjacent, vertex_pairs, vertex_edge = _pair_distances(coords, eidx, eps)

    # 2. edge pairs; adjacent ones must not overlap beyond the shared vertex
    crossing = [(int(i), int(j), float(d)) for i, j, d in zip(*_below(apart, eps))]
    ai, aj = adjacent
    overlap = _adjacent_overlaps(coords, eidx[ai], eidx[aj], eps)
    crossing += [(int(i), int(j), 0.0) for i, j in zip(ai[overlap], aj[overlap])]
    crossing.sort()
    crossing_ok = not crossing

    # 3. vertex clearance
    clearance = [
        (kind, int(a), int(b), float(d))
        for kind, pairs in (("vertex-vertex", vertex_pairs), ("vertex-edge", vertex_edge))
        for a, b, d in zip(*_below(pairs, eps))
    ]
    clearance.sort()
    clearance_ok = not clearance

    ok = unit_ok and crossing_ok and clearance_ok
    if not ok:
        classification = "not-a-matchstick-graph"
    elif profile.is_4_regular():
        classification = "4-regular matchstick"
    elif profile.is_24_regular():
        classification = f"(2,4)-regular matchstick with {profile.degree2_count()} degree-2 vertices"
    else:
        classification = "matchstick (other profile)"

    return VerificationReport(
        unit_length_ok=unit_ok,
        worst_edge=worst,
        worst_deviation=worst_dev,
        crossing_ok=crossing_ok,
        crossing_violations=tuple(crossing),
        vertex_clearance_ok=clearance_ok,
        clearance_violations=tuple(clearance),
        profile=profile,
        classification=classification,
    )


def _below(pairs: tuple[np.ndarray, np.ndarray, np.ndarray], eps: float):
    """The ``(i, j, distance)`` rows of ``pairs`` closer than eps."""
    bad = pairs[2] < eps
    return tuple(x[bad] for x in pairs)


def _near_pairs(lo: np.ndarray, hi: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, whose boxes come within margin on both axes.

    Boxes are (n, 2) arrays of lower and upper corners; a point is a box of
    zero extent.  The broad phase is a uniform grid keyed by the cell of each
    box's lower corner.  A cell is at least the largest box extent plus the
    margin, so boxes within the margin of each other have lower corners in
    the same or adjacent cells.  Each box pairs with the later boxes of its
    own cell and with every box of the four cells after it in key order
    (half of the surrounding 3x3 stencil), so each candidate pair is found
    once, and the exact box test on per-axis 1-D arrays selects every near
    pair.  For drawings
    of bounded density the work and memory are linear in the number of
    boxes.  Pairs come in no particular order.
    """
    if len(lo) < 2:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    origin = lo.min(axis=0)
    span = float((hi.max(axis=0) - origin).max())
    extent = float((hi - lo).max())
    scale = float(np.maximum(np.abs(lo), np.abs(hi)).max())
    # The slack covers rounding in the box test, which grows with the
    # coordinates, and in the keys, which grows with the span.  The floor
    # at span / 2**20 keeps cell indices, and so the int64 keys, small.
    cell = max(extent + margin, span / 2**20) * (1 + 2**-20) + scale * 2**-40
    if 0 < cell < math.inf:
        k = np.floor((lo - origin) / cell).astype(np.int64) + 1
    else:  # an infinite margin, a span beyond the float range, or all boxes
        # one point at the origin with no margin: one cell
        k = np.ones(lo.shape, dtype=np.int64)
    width = int(k[:, 1].max()) + 2
    keys = k[:, 0] * width + k[:, 1]
    order = np.argsort(keys, kind="stable")  # within a cell, ascending index
    keys = keys[order]
    own_end = np.searchsorted(keys, keys, side="right")
    forward = keys[:, None] + np.array([1, width - 1, width, width + 1])
    start = np.column_stack([np.arange(1, len(keys) + 1), np.searchsorted(keys, forward)])
    end = np.column_stack([own_end, np.searchsorted(keys, forward, side="right")])
    count = end - start  # per box and cell
    p = np.repeat(np.arange(len(keys)), count.sum(axis=1))
    count = count.ravel()
    q = np.repeat(start.ravel() - np.cumsum(count) + count, count) + np.arange(len(p))
    a, b = order[p], order[q]
    x0, y0 = lo[:, 0], lo[:, 1]
    x1, y1 = hi[:, 0] + margin, hi[:, 1] + margin
    near = (x0[a] <= x1[b]) & (x0[b] <= x1[a]) & (y0[a] <= y1[b]) & (y0[b] <= y1[a])
    a, b = a[near], b[near]
    return np.minimum(a, b), np.maximum(a, b)


def _pair_distances(coords: np.ndarray, eidx: np.ndarray, margin: float):
    """Candidate pairs of the clearance checks, with exact distances.

    Returns ``(apart, adjacent, vertex_pairs, vertex_edge)``: non-adjacent
    edge pairs ``(i, j, distance)`` with i < j; edge pairs ``(i, j)`` with
    i < j that share an endpoint; vertex pairs ``(i, j, distance)`` with
    i < j; and ``(vertex, edge, distance)`` for edges not incident to the
    vertex.  A pair is a candidate when the boxes of its two elements come
    within ``margin`` of each other; ``margin = inf`` selects every pair.
    One broad-phase query over the edge boxes followed by the vertices (as
    boxes of zero extent) finds all three kinds, split by index afterwards.
    """
    e = len(eidx)
    s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
    lo = np.concatenate([np.minimum(s0, s1), coords])
    hi = np.concatenate([np.maximum(s0, s1), coords])
    i, j = _near_pairs(lo, hi, margin)
    edge_i, edge_j = i < e, j < e

    ci, cj = i[edge_j], j[edge_j]  # both are edges, as i < j
    shares = (eidx[ci][:, :, None] == eidx[cj][:, None, :]).any(axis=(1, 2))
    ci, cj, ai, aj = ci[~shares], cj[~shares], ci[shares], cj[shares]
    apart = (ci, cj, segment_pair_distance(s0[ci], s1[ci], s0[cj], s1[cj]))

    vi, vj = i[~edge_i] - e, j[~edge_i] - e
    dv = coords[vi] - coords[vj]
    vertex_pairs = (vi, vj, np.hypot(dv[:, 0], dv[:, 1]))

    pk, pi = i[edge_i & ~edge_j], j[edge_i & ~edge_j] - e
    not_incident = (eidx[pk, 0] != pi) & (eidx[pk, 1] != pi)
    pi, pk = pi[not_incident], pk[not_incident]
    vertex_edge = (pi, pk, _point_segment_distance(coords[pi], s0[pk], s1[pk]))
    return apart, (ai, aj), vertex_pairs, vertex_edge


def _adjacent_overlaps(
    coords: np.ndarray, ea: np.ndarray, eb: np.ndarray, eps: float
) -> np.ndarray:
    """``segments_conflict`` for many pairs of edges sharing an endpoint.

    ``ea`` and ``eb`` are (k, 2) vertex-index rows.  The common vertex is
    ``ea``'s first endpoint when that one is shared, else its second; each
    edge's other endpoint gives its direction.  Returns a bool per pair.
    """
    a_at_0 = (ea[:, 0] == eb[:, 0]) | (ea[:, 0] == eb[:, 1])
    common = np.where(a_at_0, ea[:, 0], ea[:, 1])
    rows = np.arange(len(ea))
    shared = coords[common]
    u = coords[ea[rows, a_at_0.astype(int)]] - shared
    v = coords[eb[rows, (common == eb[:, 0]).astype(int)]] - shared
    nu, nv = np.hypot(u[:, 0], u[:, 1]), np.hypot(v[:, 0], v[:, 1])
    degenerate = (nu == 0) | (nv == 0)  # degenerate stick: treat as overlapping
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]) / (nu * nv)
        sin = np.abs(_cross(u, v)) / (nu * nv)
    return degenerate | ((cos > 0) & (sin < min(eps, 1.0)))


def min_clearances(g: EmbeddedGraph) -> tuple[float, float, float]:
    """(min non-adjacent edge distance, min vertex-vertex, min vertex-edge) in units.

    Diagnostic used to document real margins in the corpus; inf where a
    category is empty.
    """
    apart, _, vertex_pairs, vertex_edge = _pair_distances(g.vertices, g.edges, math.inf)
    return tuple(
        float(pairs[2].min(initial=math.inf)) for pairs in (apart, vertex_pairs, vertex_edge)
    )
