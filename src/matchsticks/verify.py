"""Decide whether an embedded graph is a matchstick graph.

A matchstick graph is drawn with straight unit-length edges such that
non-adjacent edges do not intersect.  Numerically that becomes three checks
with explicit margins: every edge length within eps_length of 1, every pair
of non-adjacent edges at least eps_separation apart (adjacent pairs must not
overlap beyond their shared endpoint), and no two vertices or vertex/edge
pairs closer than eps_separation.  Violations are reported as data, never
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DegreeProfile, EmbeddedGraph, degree_profile, normalize

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


def _point_segment_distance(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Distance from point(s) to segment(s), broadcasting over leading axes."""
    d = s1 - s0
    dd = np.sum(d * d, axis=-1)
    t = np.sum((p - s0) * d, axis=-1) / np.where(dd > 0, dd, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = s0 + t[..., None] * d
    return np.linalg.norm(p - proj, axis=-1)


def segment_pair_intersects(a0, a1, b0, b1) -> np.ndarray:
    """Strict proper crossing (interiors cross); touching does not count."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    d1, d2 = a1 - a0, b1 - b0
    s1 = _cross(d1, b0 - a0)
    s2 = _cross(d1, b1 - a0)
    s3 = _cross(d2, a0 - b0)
    s4 = _cross(d2, a1 - b0)
    return (s1 * s2 < 0) & (s3 * s4 < 0)


def segment_pair_distance(a0, a1, b0, b1) -> np.ndarray:
    """Exact minimum distance between segment pairs (0 where they cross).

    For non-crossing segments the minimum is attained at an endpoint of one
    of them, so the minimum over the four endpoint-to-segment distances is
    exact; proper crossings are detected separately and give 0.
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    dist = np.minimum.reduce(
        [
            _point_segment_distance(b0, a0, a1),
            _point_segment_distance(b1, a0, a1),
            _point_segment_distance(a0, b0, b1),
            _point_segment_distance(a1, b0, b1),
        ]
    )
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
    """Run every check on normalized coordinates and classify the graph.

    All violations are collected, not just the first.  The classification is
    "not-a-matchstick-graph" exactly when any check fails; otherwise it names
    the degree-regularity class.
    """
    gn = normalize(g)
    coords = gn.vertices
    eidx = gn.edge_array()
    v, e = gn.vertex_count, gn.edge_count
    profile = degree_profile(gn)

    # 1. unit lengths
    if e:
        diff = coords[eidx[:, 0]] - coords[eidx[:, 1]]
        deviations = np.abs(np.hypot(diff[:, 0], diff[:, 1]) - 1.0)
        worst = int(np.argmax(deviations))
        worst_dev = float(deviations[worst])
    else:
        worst, worst_dev = None, 0.0
    unit_ok = worst_dev <= tol.eps_length

    # 2. edge pairs
    crossing: list[tuple[int, int, float]] = []
    if e >= 2:
        s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
        lo = np.minimum(s0, s1)
        hi = np.maximum(s0, s1)
        # axis-aligned box prefilter with an eps margin
        gap_ok = (lo[:, None, :] <= hi[None, :, :] + tol.eps_separation) & (
            lo[None, :, :] <= hi[:, None, :] + tol.eps_separation
        )
        near = gap_ok.all(axis=2)
        iu, ju = np.triu_indices(e, k=1)
        shares = (
            (eidx[iu, 0][:, None] == eidx[ju][:, None].reshape(-1, 2)).any(axis=1)
            | (eidx[iu, 1][:, None] == eidx[ju][:, None].reshape(-1, 2)).any(axis=1)
        )
        candidates = near[iu, ju] & ~shares
        ci, cj = iu[candidates], ju[candidates]
        if len(ci):
            dists = segment_pair_distance(s0[ci], s1[ci], s0[cj], s1[cj])
            bad = dists < tol.eps_separation
            for i, j, d in zip(ci[bad], cj[bad], dists[bad]):
                crossing.append((int(i), int(j), float(d)))
        # adjacent pairs: overlap beyond the shared vertex
        adjacent = near[iu, ju] & shares
        ai, aj = iu[adjacent], ju[adjacent]
        overlap = _adjacent_overlaps(coords, eidx[ai], eidx[aj], tol.eps_separation)
        crossing += [(int(i), int(j), 0.0) for i, j in zip(ai[overlap], aj[overlap])]
    crossing.sort()
    crossing_ok = not crossing

    # 3. vertex clearance
    clearance: list[tuple[str, int, int, float]] = []
    if v >= 2:
        dv = coords[:, None, :] - coords[None, :, :]
        vv = np.hypot(dv[..., 0], dv[..., 1])
        ii, jj = np.triu_indices(v, k=1)
        bad = vv[ii, jj] < tol.eps_separation
        for i, j, d in zip(ii[bad], jj[bad], vv[ii, jj][bad]):
            clearance.append(("vertex-vertex", int(i), int(j), float(d)))
    if e and v:
        s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
        pv = _point_segment_distance(coords[:, None, :], s0[None, :, :], s1[None, :, :])
        incident = (np.arange(v)[:, None] == eidx[:, 0][None, :]) | (
            np.arange(v)[:, None] == eidx[:, 1][None, :]
        )
        pv = np.where(incident, np.inf, pv)
        for i, k in zip(*np.nonzero(pv < tol.eps_separation)):
            clearance.append(("vertex-edge", int(i), int(k), float(pv[i, k])))
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
    gn = normalize(g)
    coords = gn.vertices
    eidx = gn.edge_array()
    v, e = gn.vertex_count, gn.edge_count
    edge_min = vv_min = ve_min = math.inf
    if e >= 2:
        s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
        iu, ju = np.triu_indices(e, k=1)
        shares = (
            (eidx[iu, 0][:, None] == eidx[ju][:, None].reshape(-1, 2)).any(axis=1)
            | (eidx[iu, 1][:, None] == eidx[ju][:, None].reshape(-1, 2)).any(axis=1)
        )
        ci, cj = iu[~shares], ju[~shares]
        if len(ci):
            edge_min = float(segment_pair_distance(s0[ci], s1[ci], s0[cj], s1[cj]).min())
    if v >= 2:
        dv = coords[:, None, :] - coords[None, :, :]
        vv = np.hypot(dv[..., 0], dv[..., 1])
        ii, jj = np.triu_indices(v, k=1)
        vv_min = float(vv[ii, jj].min())
    if e and v:
        s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
        pv = _point_segment_distance(coords[:, None, :], s0[None, :, :], s1[None, :, :])
        incident = (np.arange(v)[:, None] == eidx[:, 0][None, :]) | (
            np.arange(v)[:, None] == eidx[:, 1][None, :]
        )
        pv = np.where(incident, np.inf, pv)
        ve_min = float(pv.min())
    return edge_min, vv_min, ve_min
