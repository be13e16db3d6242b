"""Decide whether an embedded graph is a matchstick graph.

A matchstick graph is drawn with straight unit-length edges such that
non-adjacent edges do not intersect.  Numerically that becomes three checks
with explicit margins: every edge length within eps_length of 1, every pair
of non-adjacent edges at least eps_separation apart (adjacent pairs must not
overlap beyond their shared endpoint), and no two vertices or vertex/edge
pairs closer than eps_separation.  Violations are reported as data, never
raised.

Candidate pairs for the separation checks come from one sweep-and-prune
query per graph over the boxes of all edges and vertices (with an eps
margin); only candidates reach the exact distance kernel, which measures a
vertex as a stick of zero length.  Time and memory grow linearly for long,
thin drawings, such as every chain, ring and mirror double the package
builds, and as about n**1.5 on a square patch of n sticks: on a 4,900-vertex
triangular-lattice patch a check took 99-178 ms and 126-202 MB traced peak
(turned by 0.3 rad and axis-aligned; best of 3 on a 2-vCPU host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import EmbeddedGraph, degree_profile, edge_lengths

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
    profile: dict[int, int]  # degree -> vertex count, ascending
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
            "profile": {str(d): c for d, c in self.profile.items()},
            "classification": self.classification,
        }


# -- segment geometry ---------------------------------------------------------


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _scale(*points: np.ndarray) -> np.ndarray:
    """Per pair, the largest power of two <= the largest |coordinate|, (..., 1).

    Dividing by a power of two is exact and changes no rounding, yet squares
    and cross products of coordinates near the float range cannot overflow.
    (The power of two above it would be inf from 2**1023 up.)
    """
    largest = np.abs(points[0]).max(axis=-1)
    for x in points[1:]:
        largest = np.maximum(largest, np.abs(x).max(axis=-1))
    return np.ldexp(1.0, np.frexp(largest)[1] - 1)[..., None]


def _point_segment_distance(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Distance from point(s) to segment(s), broadcasting over leading axes."""
    scale = _scale(p, s0, s1)
    p, s0, s1 = p / scale, s0 / scale, s1 / scale
    d, r = s1 - s0, p - s0
    dr = _scale(d, r)  # else their squares underflow where coordinates dwarf the stick
    ds, rs = d / dr, r / dr
    dd = np.sum(ds * ds, axis=-1)
    t = np.sum(rs * ds, axis=-1) / np.where(dd > 0, dd, 1.0)
    gap = p - (s0 + np.clip(t, 0.0, 1.0)[..., None] * d)
    return np.hypot(gap[..., 0], gap[..., 1]) * scale[..., 0]


def segment_pair_intersects(a0, a1, b0, b1) -> np.ndarray:
    """Strict proper crossing (interiors cross); touching does not count.

    The pair's scale keeps the differences of coordinates finite; each
    difference is then scaled by its own power of two, so that a cross term
    of a component near 1 and a tiny one keeps its magnitude instead of
    underflowing to 0 (a crossing 5e-324 from an endpoint is still one).
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    scale = _scale(a0, a1, b0, b1)
    a0, a1, b0, b1 = a0 / scale, a1 / scale, b0 / scale, b1 / scale
    w = np.stack([a1 - a0, b1 - b0, b0 - a0, b1 - a0, a1 - b0])
    d1, d2, ab0, ab1, ba1 = w / _scale(w)
    s1 = _cross(d1, ab0)
    s2 = _cross(d1, ab1)
    s3 = _cross(d2, -ab0)
    s4 = _cross(d2, ba1)
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

    e = g.edge_count
    (i, j, d), (ai, aj) = _pair_distances(coords, eidx, eps)
    bad = d < eps
    i, j, d = i[bad].tolist(), j[bad].tolist(), d[bad].tolist()

    # 2. edge pairs; adjacent ones must not overlap beyond the shared vertex
    crossing = [(a, b, x) for a, b, x in zip(i, j, d) if b < e]
    overlap = _adjacent_overlaps(coords, eidx[ai], eidx[aj], eps)
    crossing += [(int(a), int(b), 0.0) for a, b in zip(ai[overlap], aj[overlap])]
    crossing.sort()
    crossing_ok = not crossing

    # 3. vertex clearance: pairs whose later element is a vertex
    clearance = [
        ("vertex-vertex", a - e, b - e, x) if a >= e else ("vertex-edge", b - e, a, x)
        for a, b, x in zip(i, j, d)
        if b >= e
    ]
    clearance.sort()
    clearance_ok = not clearance

    ok = unit_ok and crossing_ok and clearance_ok
    if not ok:
        classification = "not-a-matchstick-graph"
    elif set(profile) == {4}:
        classification = "4-regular matchstick"
    elif profile and set(profile) <= {2, 4}:
        classification = f"(2,4)-regular matchstick with {profile.get(2, 0)} degree-2 vertices"
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


def _near_pairs(lo: np.ndarray, hi: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, whose boxes come within margin on both axes.

    Boxes are (n, 2) arrays of lower and upper corners; a point is a box of
    zero extent.  The broad phase is a sweep and prune along the axis of
    larger extent: with the boxes sorted by their lower corner on that axis,
    each box meets the later boxes whose lower corner is at most its upper
    corner plus the margin, and the two comparisons on the other axis select
    the near pairs.  These are the box test's own comparisons, so rounding
    cannot lose a pair.  Work and memory are linear for drawings long and
    thin along that axis.  Pairs come in no particular order.
    """
    if len(lo) < 2:
        none = np.zeros(0, dtype=np.intp)
        return none, none
    axis = int(np.argmax(hi.max(axis=0) / 2 - lo.min(axis=0) / 2))  # halves cannot overflow
    order = np.argsort(lo[:, axis], kind="stable")
    first = np.arange(1, len(lo) + 1)
    count = np.searchsorted(lo[order, axis], hi[order, axis] + margin, side="right") - first
    p = np.repeat(np.arange(len(lo)), count)
    q = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(p))
    a, b = order[p], order[q]
    y0, y1 = lo[:, 1 - axis], hi[:, 1 - axis] + margin
    near = (y0[a] <= y1[b]) & (y0[b] <= y1[a])
    a, b = a[near], b[near]
    return np.minimum(a, b), np.maximum(a, b)


def _pair_distances(coords: np.ndarray, eidx: np.ndarray, margin: float):
    """Candidate pairs of the clearance checks, with exact distances.

    The elements are the e edges followed by the vertices, each vertex a
    stick of zero length from itself to itself, so element ``e + k`` is
    vertex k.  A pair is a candidate when the boxes of its two elements come
    within ``margin`` of each other; ``margin = inf`` selects every pair.
    Returns ``((i, j, distance), (ai, aj))`` with i < j: every candidate pair
    whose elements share no vertex, with its distance, and the edge pairs
    that share an endpoint.  A vertex paired with an edge through it is in
    neither.
    """
    e = len(eidx)
    ends = np.concatenate([eidx, np.repeat(np.arange(len(coords)), 2).reshape(-1, 2)])
    s0, s1 = coords[ends[:, 0]], coords[ends[:, 1]]
    i, j = _near_pairs(np.minimum(s0, s1), np.maximum(s0, s1), margin)
    shares = (ends[i][:, :, None] == ends[j][:, None, :]).any(axis=(1, 2))
    adjacent = shares & (j < e)  # so i < e too; two vertices never share
    i, j, ai, aj = i[~shares], j[~shares], i[adjacent], j[adjacent]
    return (i, j, segment_pair_distance(s0[i], s1[i], s0[j], s1[j])), (ai, aj)


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
    e = g.edge_count
    (i, j, d), _ = _pair_distances(g.vertices, g.edges, math.inf)
    kinds = (j < e, i >= e, (i < e) & (j >= e))
    return tuple(float(d[kind].min(initial=math.inf)) for kind in kinds)
