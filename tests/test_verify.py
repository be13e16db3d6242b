"""Matchstick verification: segment predicates, clearances, classifications."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import turned_upright, unit_rhombus, unit_triangle
from matchsticks import corpus
from matchsticks.model import EmbeddedGraph
from matchsticks.refine import refine
from matchsticks.verify import (
    Tolerances,
    VerificationReport,
    _adjacent_overlaps,
    _near_pairs,
    _point_segment_distance,
    min_clearances,
    segment_pair_distance,
    segment_pair_intersects,
    segments_conflict,
    verify_matchstick,
)

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def seg(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y1]], dtype=float)


@st.composite
def segments(draw):
    x0, y0, x1, y1 = draw(coord), draw(coord), draw(coord), draw(coord)
    if (x0, y0) == (x1, y1):
        x1 += 1.0
    return seg(x0, y0, x1, y1)


def exact_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(segment_pair_distance(a[0], a[1], b[0], b[1]))


def crosses(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(segment_pair_intersects(a[0], a[1], b[0], b[1]))


def sampled_min_distance(a: np.ndarray, b: np.ndarray, steps: int = 100) -> float:
    t = np.linspace(0.0, 1.0, steps)
    pa = a[0] + t[:, None] * (a[1] - a[0])
    pb = b[0] + t[:, None] * (b[1] - b[0])
    diff = pa[:, None, :] - pb[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).min())


def sampling_guard(a: np.ndarray, b: np.ndarray, steps: int = 100) -> float:
    """Discretization bound: the sampled minimum overshoots the true minimum
    by at most half a grid step on each segment."""
    la = float(np.hypot(*(a[1] - a[0])))
    lb = float(np.hypot(*(b[1] - b[0])))
    return (la + lb) / (2 * (steps - 1)) + 10 * np.finfo(float).eps


@given(segments(), segments())
@settings(max_examples=300)
def test_conflict_is_symmetric(a, b):
    assert segments_conflict(a, b) == segments_conflict(b, a)


@given(segments(), segments())
@settings(max_examples=300)
def test_exact_distance_within_sampling_guard(a, b):
    exact = exact_distance(a, b)
    sampled = sampled_min_distance(a, b)
    assert exact <= sampled + 1e-12
    assert sampled <= exact + sampling_guard(a, b)


def test_proper_crossing_detected():
    a = seg(0, 0, 1, 1)
    b = seg(0, 1, 1, 0)
    assert crosses(a, b)
    assert exact_distance(a, b) == 0.0
    assert segments_conflict(a, b)


def test_endpoint_touch_is_not_a_proper_crossing():
    a = seg(0, 0, 1, 0)
    b = seg(1, 0, 2, 1)
    assert not crosses(a, b)
    assert exact_distance(a, b) == 0.0


def test_collinear_disjoint_distance():
    a = seg(0, 0, 1, 0)
    b = seg(2, 0, 3, 0)
    assert exact_distance(a, b) == pytest.approx(1.0)
    assert not segments_conflict(a, b)


def test_parallel_distance():
    a = seg(0, 0, 1, 0)
    b = seg(0, 0.5, 1, 0.5)
    assert exact_distance(a, b) == pytest.approx(0.5)


def test_near_miss_is_a_conflict():
    a = seg(0, 0, 1, 0)
    b = seg(0.5, 5e-5, 1.5, 5e-5 + 1e-6)
    assert segments_conflict(a, b, eps=1e-4)
    assert not segments_conflict(a, b, eps=1e-6)


def four_gap_distance(a0, a1, b0, b1) -> np.ndarray:
    """Reference: the four endpoint-to-segment gaps of each pair under one
    shared power-of-two scale, each gap computed on its own."""
    points = [np.asarray(x, dtype=float) for x in (a0, a1, b0, b1)]
    largest = np.max([np.abs(x).max(axis=-1) for x in points], axis=0)
    scale = np.ldexp(1.0, np.frexp(largest)[1])[..., None]
    a0, a1, b0, b1 = (x / scale for x in points)

    def gap(p, s0, s1):
        d = s1 - s0
        dd = np.sum(d * d, axis=-1)
        t = np.clip(np.sum((p - s0) * d, axis=-1) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
        g = p - (s0 + t[..., None] * d)
        return np.hypot(g[..., 0], g[..., 1])

    gaps = [gap(b0, a0, a1), gap(b1, a0, a1), gap(a0, b0, b1), gap(a1, b0, b1)]
    dist = np.minimum.reduce(gaps) * scale[..., 0]
    return np.where(segment_pair_intersects(a0, a1, b0, b1), 0.0, dist)


# Coordinates are 0 or of magnitude 1e-6..1e100, so a pair spans at most 106
# decades: every product of coordinates scaled to at most 1 stays a normal
# float, and a power-of-two scale per gap gives the bits of one per pair.
# Beyond about 150 decades such products underflow and the two differ.
wide_coord = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-6),
)
wide_point = st.tuples(wide_coord, wide_coord)


@st.composite
def segment_pairs(draw):
    """(a0, a1, b0, b1): free, near-touching or crossing."""
    a0, a1 = np.array(draw(wide_point)), np.array(draw(wide_point))
    kind = draw(st.sampled_from(["free", "near", "crossing"]))
    if kind == "free":
        return a0, a1, np.array(draw(wide_point)), np.array(draw(wide_point))
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    on_a = a0 + t * (a1 - a0)
    normal = np.array([a0[1] - a1[1], a1[0] - a0[0]])
    if kind == "near":  # b0 a relative 1e-16..1e-3 off segment a
        offset = normal * 10.0 ** draw(st.floats(-16, -3)) * draw(st.sampled_from([-1, 1]))
        b0 = np.clip(on_a + offset, -1e100, 1e100)
        return a0, a1, b0, np.array(draw(wide_point))
    reach = draw(st.floats(1e-3, 1.0))  # crossing at on_a
    return a0, a1, on_a + reach * normal / 2, on_a - reach * normal / 2


@given(st.lists(segment_pairs(), min_size=1, max_size=10))
@example([(np.array([0.0, 0]), np.array([1.0, 0]), np.array([0.5, 5e-5]), np.array([1.5, 5e-5]))])
@example([(np.array([0.0, 0]), np.array([1.0, 0]), np.array([0.5, -1]), np.array([0.5, 1]))])
@example([(np.array([1e100, 0]), np.array([-1e100, 0]), np.array([0.0, 1e-6]), np.array([0, 1e100]))])
@example([(np.array([0.0, 0]), np.array([0.0, 1]), np.array([-0.25, 5e-324]), np.array([0.25, 5e-324]))])
@settings(max_examples=200)
def test_pair_distance_matches_four_gaps_bit_for_bit(pairs):
    a0, a1, b0, b1 = (np.array(x) for x in zip(*pairs))
    with np.errstate(over="raise", invalid="raise"):
        got = segment_pair_distance(a0, a1, b0, b1)
        expected = four_gap_distance(a0, a1, b0, b1)
    assert np.array_equal(got, expected)
    for k in range(len(pairs)):  # and one pair at a time
        assert np.array_equal(segment_pair_distance(a0[k], a1[k], b0[k], b1[k]), expected[k])


def test_adjacent_segments_conflict_only_when_nearly_parallel():
    shared = np.array([0.0, 0.0])
    a = seg(0, 0, 1, 0)
    for angle, expect in [(5e-5, True), (2e-4, False), (math.pi / 3, False),
                          (math.pi - 5e-5, False)]:  # opposite direction never conflicts
        b = np.array([shared, [math.cos(angle), math.sin(angle)]])
        got = segments_conflict(a, b, shared=(0, 0), eps=1e-4)
        assert got == expect, f"angle {angle}"


def test_adjacent_conflict_matches_shared_endpoint_position():
    # same geometry, shared point listed at the other end of b
    a = seg(0, 0, 1, 0)
    b = seg(math.cos(5e-5), math.sin(5e-5), 0, 0)
    assert segments_conflict(a, b, shared=(0, 1), eps=1e-4)


def scalar_adjacent_overlaps(coords, ea, eb, eps):
    """Reference: one ``segments_conflict`` call per adjacent edge pair."""
    out = []
    for a, b in zip(ea, eb):
        shared = next((ia, ib) for ia in (0, 1) for ib in (0, 1) if a[ia] == b[ib])
        seg_a = (*coords[a[0]], *coords[a[1]])
        seg_b = (*coords[b[0]], *coords[b[1]])
        with np.errstate(divide="ignore", invalid="ignore"):  # underflowing lengths
            out.append(segments_conflict(seg_a, seg_b, shared, eps))
    return out


# a small grid makes coincident points (degenerate sticks) and exact
# collinear or perpendicular pairs likely; free floats cover the rest
grid_or_free = st.one_of(st.integers(-2, 2).map(float), coord)


@given(
    st.lists(st.tuples(grid_or_free, grid_or_free), min_size=3, max_size=6),
    st.data(),
    st.sampled_from([1e-4, 0.05, 0.5, 1.0, 3.0]),
)
@settings(max_examples=200)
def test_adjacent_overlaps_match_scalar_segments_conflict(points, data, eps):
    coords = np.array(points)
    n = len(coords)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = np.array([(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)])
    pairs = [
        (a, b)
        for a in range(len(edges))
        for b in range(a + 1, len(edges))
        if len(set(edges[a]) & set(edges[b])) == 1
    ]
    ea = edges[[a for a, _ in pairs]]
    eb = edges[[b for _, b in pairs]]
    got = _adjacent_overlaps(coords, ea, eb, eps)
    assert got.tolist() == scalar_adjacent_overlaps(coords, ea, eb, eps)


def test_triangle_verifies():
    report = verify_matchstick(unit_triangle())
    assert report.is_matchstick
    assert report.classification.startswith("(2,4)-regular")


def test_rhombus_verifies_with_four_degree2():
    report = verify_matchstick(unit_rhombus())
    assert report.is_matchstick
    assert "4 degree-2" in report.classification


def test_unit_length_failure_reports_worst_edge():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.002]])
    g = EmbeddedGraph(coords, ((0, 1), (1, 2)))
    report = verify_matchstick(g)
    assert not report.unit_length_ok
    assert report.worst_edge == 1
    assert report.worst_deviation == pytest.approx(0.002)
    assert not report.is_matchstick
    assert report.classification == "not-a-matchstick-graph"


def test_crossing_edges_fail():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    edges = ((0, 1), (2, 3))
    g = EmbeddedGraph(coords, edges)
    report = verify_matchstick(g)
    assert not report.crossing_ok
    assert report.crossing_violations[0][:2] == (0, 1)


def test_vertex_too_close_to_edge_fails():
    # a vertex hovering 5e-5 over a non-incident unit edge
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 5e-5], [0.5, 1.0 + 5e-5]])
    g = EmbeddedGraph(coords, ((0, 1), (2, 3)))
    report = verify_matchstick(g)
    assert not report.vertex_clearance_ok
    kinds = {v[0] for v in report.clearance_violations}
    assert "vertex-edge" in kinds


def test_tolerances_validated():
    with pytest.raises(ValueError):
        Tolerances(eps_length=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_length=0.5)
    with pytest.raises(ValueError):
        Tolerances(eps_separation=0.7)


@pytest.mark.parametrize("name", ["fig2a", "fig5b"])
def test_report_is_isometry_invariant(name):
    g = refine(corpus.load_graph(name)).graph
    base = verify_matchstick(g)
    rng = np.random.default_rng(17)
    angle = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = g.vertices @ rot.T + rng.uniform(-5, 5, 2)
    mirrored = moved * np.array([1.0, -1.0])
    for coords in (moved, mirrored):
        report = verify_matchstick(replace(g, vertices=coords))
        assert report.is_matchstick == base.is_matchstick
        assert report.classification == base.classification
        assert report.unit_length_ok == base.unit_length_ok
        assert len(report.crossing_violations) == len(base.crossing_violations)
        assert report.worst_deviation == pytest.approx(base.worst_deviation, abs=1e-9)


def test_min_clearances_on_triangle():
    ee, vv, ve = min_clearances(unit_triangle())
    assert vv == pytest.approx(1.0)
    assert ve == pytest.approx(np.sqrt(3) / 2)


def test_report_json_schema():
    report = verify_matchstick(unit_triangle())
    payload = report.to_json_dict()
    for key in ("unit_length_ok", "worst_deviation", "crossing_ok",
                "vertex_clearance_ok", "profile", "classification"):
        assert key in payload


# -- the grid broad phase against all pairs -----------------------------------


def all_pairs_reference(g: EmbeddedGraph, tol: Tolerances = Tolerances()):
    """Reference for ``verify_matchstick`` and ``min_clearances`` over dense pair arrays.

    Edge pairs are selected from all (e, e) pairs by the box test with an
    eps margin; vertex pairs and vertex-edge pairs are all tested.  Returns
    the report and the three minima.
    """
    coords = g.vertices
    eidx = g.edges
    v, e = g.vertex_count, g.edge_count
    eps = tol.eps_separation
    s0, s1 = coords[eidx[:, 0]], coords[eidx[:, 1]]
    lengths = np.hypot(*(s0 - s1).T)
    worst = int(np.argmax(np.abs(lengths - 1.0))) if e else None
    worst_dev = float(np.abs(lengths[worst] - 1.0)) if e else 0.0

    iu, ju = np.triu_indices(e, k=1)
    shares = (eidx[iu][:, :, None] == eidx[ju][:, None, :]).any(axis=(1, 2))
    lo, hi = np.minimum(s0, s1), np.maximum(s0, s1)
    near = (
        (lo[:, None, :] <= hi[None, :, :] + eps) & (lo[None, :, :] <= hi[:, None, :] + eps)
    ).all(axis=2)[iu, ju]
    ci, cj = iu[~shares], ju[~shares]
    ee = segment_pair_distance(s0[ci], s1[ci], s0[cj], s1[cj])
    bad = near[~shares] & (ee < eps)
    crossing = [(int(i), int(j), float(d)) for i, j, d in zip(ci[bad], cj[bad], ee[bad])]
    ai, aj = iu[near & shares], ju[near & shares]
    overlap = _adjacent_overlaps(coords, eidx[ai], eidx[aj], eps)
    crossing += [(int(i), int(j), 0.0) for i, j in zip(ai[overlap], aj[overlap])]

    ii, jj = np.triu_indices(v, k=1)
    vv = np.hypot(*(coords[ii] - coords[jj]).T)
    # each vertex as a stick of zero length
    p, q0, q1 = np.broadcast_arrays(coords[:, None, :], s0[None, :, :], s1[None, :, :])
    pv = segment_pair_distance(p, p, q0, q1)
    incident = (np.arange(v)[:, None] == eidx[:, 0]) | (np.arange(v)[:, None] == eidx[:, 1])
    pv = np.where(incident, np.inf, pv)
    clearance = [("vertex-vertex", int(i), int(j), float(d))
                 for i, j, d in zip(ii[vv < eps], jj[vv < eps], vv[vv < eps])]
    clearance += [("vertex-edge", int(i), int(k), float(pv[i, k]))
                  for i, k in zip(*np.nonzero(pv < eps))]

    degrees = np.bincount(eidx.ravel(), minlength=v)
    profile = {d: int(c) for d, c in enumerate(np.bincount(degrees)) if c}
    ok = worst_dev <= tol.eps_length and not crossing and not clearance
    if not ok:
        classification = "not-a-matchstick-graph"
    elif v and (degrees == 4).all():
        classification = "4-regular matchstick"
    elif v and ((degrees == 2) | (degrees == 4)).all():
        count = int(np.count_nonzero(degrees == 2))
        classification = f"(2,4)-regular matchstick with {count} degree-2 vertices"
    else:
        classification = "matchstick (other profile)"
    report = VerificationReport(
        worst_dev <= tol.eps_length, worst, worst_dev, not crossing, tuple(sorted(crossing)),
        not clearance, tuple(sorted(clearance)), profile, classification,
    )
    minima = tuple(float(d.min(initial=math.inf)) for d in (ee, vv, pv))
    return report, minima


@st.composite
def crowded_drawings(draw):
    """Small drawings on a half-unit lattice with jitter near the separation margin.

    Lattice points make coincident, collinear and crossing sticks likely, the
    jitter turns them into near-violations of every kind, and a random rigid
    motion moves the pairs across cell boundaries in every direction.
    """
    n = draw(st.integers(0, 9))
    lattice = st.integers(0, 6).map(lambda k: k / 2)
    jitter = st.sampled_from([0.0, 0.0, 5e-5, -5e-5, 1e-4, -2e-4, 0.03])
    points = np.array(
        [[draw(lattice) + draw(jitter), draw(lattice) + draw(jitter)] for _ in range(n)]
    ).reshape(n, 2)
    angle = draw(st.floats(0, 2 * math.pi))
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    shift = np.array([draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return EmbeddedGraph(points @ rot.T + shift, tuple(edges))


margins = st.sampled_from([Tolerances(), Tolerances(eps_separation=0.05),
                           Tolerances(eps_separation=0.3)])
huge = np.array([[1e300, 1e300], [1e300, 1e300], [-1e300, 1e300], [1e300, -5e299],
                 [-1e300, -1e300]])
# vertices 1 and 2 are nearest, but only 1 is within the float range of vertex 0
beyond_range = np.array([[-1e308, 0.0], [7.976931348623157e307, 0.0], [8e307, 0.0],
                         [0.0, 1.5e308]])


@given(crowded_drawings(), margins)
@example(EmbeddedGraph(np.zeros((3, 2))), Tolerances())  # no edges, coincident vertices
@example(EmbeddedGraph(np.zeros((0, 2))), Tolerances())  # nothing at all
@example(EmbeddedGraph(huge, ((0, 4), (1, 2), (2, 3), (3, 4))), Tolerances())
@example(EmbeddedGraph(beyond_range, ((0, 3),)), Tolerances())
# vertex 0 sits on the end of stick (1, 2): exactly 0 from it, as from vertex 2
@example(EmbeddedGraph(np.array([[0.0, 0.01], [0.0, 0.51], [0.0, 0.01]]),
                       ((0, 1), (0, 2), (1, 2))), Tolerances())
@settings(max_examples=300)
def test_grid_broad_phase_matches_all_pairs(g, tol):
    with np.errstate(over="ignore", invalid="ignore"):  # sticks ~1e300 long overflow
        expected, minima = all_pairs_reference(g, tol)
        report = verify_matchstick(g, tol)
        got_minima = min_clearances(g)
    assert report == expected
    np.testing.assert_equal(got_minima, minima)


@pytest.mark.parametrize(
    "origin, t",
    [(0.0, 1.0000999999999998), (0.0, 2.0001999999999995), (1e11, 100000000002.0002)],
)
def test_near_pairs_at_the_margin_stay_one_cell_apart(origin, t):
    # box 2 starts exactly at the margin past box 1, which starts just below
    # origin + k (1 + margin): a cell of exactly the extent plus the margin
    # would round their lower corners two cells apart
    lo = np.array([[origin, 0.0], [t, 0.0], [t + 1.0 + 1e-4, 0.0]])
    hi = lo + [1.0, 0.0]
    i, j = _near_pairs(lo, hi, 1e-4)
    assert (1, 2) in zip(i.tolist(), j.tolist())


@st.composite
def box_sets(draw):
    """Boxes of mixed extent and zero-extent points, from 0 to 12 of them."""
    n = draw(st.integers(0, 12))
    bound = draw(st.sampled_from([1.0, 10.0, 1e6, 1e300]))
    value = st.floats(-bound, bound, allow_nan=False)
    lo = np.array([[draw(value), draw(value)] for _ in range(n)]).reshape(n, 2)
    extent = st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, bound))
    size = np.array([[draw(extent), draw(extent)] for _ in range(n)]).reshape(n, 2)
    point = np.array([draw(st.booleans()) for _ in range(n)], dtype=bool).reshape(n, 1)
    return lo, np.where(point, lo, np.minimum(lo + size, 1e300))


@given(box_sets(), st.sampled_from([0.0, 1e-4, 0.3, math.inf]))
@example((np.zeros((0, 2)), np.zeros((0, 2))), 0.3)
@example((np.ones((1, 2)), np.ones((1, 2))), math.inf)
@example((np.zeros((3, 2)), np.zeros((3, 2))), 0.0)  # a cell of width zero
@settings(max_examples=300)
def test_near_pairs_match_all_pairs(boxes, margin):
    lo, hi = boxes
    expected = {
        (i, j)
        for i in range(len(lo))
        for j in range(i + 1, len(lo))
        if (lo[i] <= hi[j] + margin).all() and (lo[j] <= hi[i] + margin).all()
    }
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        i, j = _near_pairs(lo, hi, margin)
    got = list(zip(i.tolist(), j.tolist()))
    assert len(got) == len(set(got))  # each pair once
    assert set(got) == expected


def test_huge_coordinates_keep_their_pairs():
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_matchstick(EmbeddedGraph(huge, ((0, 4), (1, 2), (2, 3), (3, 4))))
    assert ("vertex-vertex", 0, 1, 0.0) in report.clearance_violations
    assert ("vertex-edge", 1, 0, 0.0) in report.clearance_violations


def test_sticks_crossing_beyond_two_to_the_1023_are_reported():
    # every coordinate's power of two above is inf; the one at or below is not
    coords = np.array([[-9e307, 0.0], [9e307, 0.0], [0.0, -9e307], [0.0, 9e307]])
    g = EmbeddedGraph(coords, ((0, 1), (2, 3)))
    with np.errstate(over="ignore"):  # the sticks' lengths overflow
        report = verify_matchstick(g)
        minima = min_clearances(g)
    assert report.crossing_violations == ((0, 1, 0.0),)
    assert bool(segment_pair_intersects(*coords))
    assert np.isfinite(minima).all()
    assert minima[0] == 0.0


def test_vertex_near_a_stick_of_huge_extent_is_reported():
    # the stick's squared length (4e600) is past the float range; the vertex
    # lies 5e-5 above its middle
    coords = np.array([[-1e300, 0.0], [1e300, 0.0], [0.0, 5e-5], [0.0, 1.0]])
    with np.errstate(over="raise", invalid="raise"):
        report = verify_matchstick(EmbeddedGraph(coords, ((0, 1), (2, 3))))
        distance = segment_pair_distance(coords[0], coords[1], coords[2], coords[3])
        point = _point_segment_distance(coords[2], coords[0], coords[1])
    assert ("vertex-edge", 2, 0, 5e-5) in report.clearance_violations
    assert float(distance) == float(point) == 5e-5


def test_vertex_on_a_short_stick_far_out_is_on_it():
    # scaled by the pair, the stick's squared length (~1e-600) underflows
    coords = np.array([[1e300, -1.0], [1e300, 1.0], [1e300, 0.0]])
    with np.errstate(over="raise", invalid="raise"):
        point = _point_segment_distance(coords[2], coords[0], coords[1])
        report = verify_matchstick(EmbeddedGraph(coords, ((0, 1),)))
    assert float(point) == 0.0
    assert report.clearance_violations == (("vertex-edge", 2, 0, 0.0),)


# Each pair is shifted in steps smaller than its gap over more than one
# vertex cell (about eps wide), so some shifts place it across a boundary.
SHIFTS = [0.5 + k * 2e-5 for k in range(10)]


@pytest.mark.parametrize("x", SHIFTS)
def test_vertices_too_close_fail(x):
    coords = np.array([[0.0, 0.0], [x, 0.3], [x + 3e-5, 0.3 + 4e-5]])
    report = verify_matchstick(EmbeddedGraph(coords))
    assert not report.vertex_clearance_ok
    ((kind, a, b, d),) = report.clearance_violations
    assert (kind, a, b) == ("vertex-vertex", 1, 2)
    assert d == pytest.approx(5e-5)
    assert report.classification == "not-a-matchstick-graph"


@pytest.mark.parametrize("x", SHIFTS)
def test_folded_adjacent_sticks_cross_at_zero(x):
    # sticks 0-1 and 0-2 leave vertex 0 in the same direction; vertex 2 lies 5e-5 past 1
    coords = np.array([[x - 1.0, 0.2], [x, 0.2], [x + 5e-5, 0.2]])
    report = verify_matchstick(EmbeddedGraph(coords, ((0, 1), (0, 2))))
    assert report.crossing_violations == ((0, 1, 0.0),)
    assert ("vertex-vertex", 1, 2) in [c[:3] for c in report.clearance_violations]
    assert report.classification == "not-a-matchstick-graph"


@pytest.mark.parametrize("turned", [False, True], ids=["as-built", "turned"])
def test_verify_memory_is_linear_on_a_long_chain(long_chain, turned):
    # all-pairs arrays over 995 vertices and 1,990 sticks peak above 200 MB
    g = turned_upright(long_chain) if turned else long_chain
    tracemalloc.start()
    try:
        report = verify_matchstick(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_matchstick
    assert peak < 20e6
