"""End-to-end acceptance checks, one test per required behavior.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
check.  Each test is self-contained: frozen reference values live next to the
assertions that use them, and oracles (brute-force enumeration, sampled
segment distances, finite differences) are written out here independently of
the library code they check.
"""

import math
import time
import warnings
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import merged_vertex_count, random_connected_graph, unit_rhombus, unit_triangle
from matchsticks import corpus
from matchsticks.construct import (
    ChainSpec,
    PartSpec,
    chain_extend,
    chain_plan,
    mirror_double,
    realize,
    ring_plan,
)
from matchsticks.counting import (
    DEFAULT_COVERAGE,
    PART_INVENTORY,
    CoverageSources,
    Inventory,
    combinations_table,
    theorem1_coverage,
)
from matchsticks.model import EmbeddedGraph, degree_profile, edge_lengths
from matchsticks.refine import refine, residual_jacobian
from matchsticks.rigidity import analyze_rigidity
from matchsticks.verify import (
    Tolerances,
    segment_pair_distance,
    segment_pair_intersects,
    segments_conflict,
    verify_matchstick,
)

# Reference tally for rings of three parts from the 8-part inventory, as
# distributed alongside the figure corpus.  Its row for 81 vertices reads 1
# and its rows sum to 119; the correct multiset count for 81 is 2 (22+22+40
# and 22+31+31), bringing the total to C(10,3) = 120 as the tally's own
# caption states.  The test below pins agreement on every other row and pins
# that single discrepancy explicitly.
REFERENCE_TALLY = {
    63: 1, 64: 0, 65: 0, 66: 0, 67: 0, 68: 0, 69: 0, 70: 0,
    71: 1, 72: 1, 73: 0, 74: 0, 75: 1, 76: 1, 77: 1, 78: 0,
    79: 1, 80: 1, 81: 1, 82: 1, 83: 1, 84: 2, 85: 2, 86: 1,
    87: 2, 88: 2, 89: 4, 90: 4, 91: 3, 92: 2, 93: 4, 94: 4,
    95: 4, 96: 3, 97: 4, 98: 5, 99: 6, 100: 4, 101: 4, 102: 5,
    103: 6, 104: 4, 105: 3, 106: 2, 107: 4, 108: 5, 109: 4, 110: 2,
    111: 1, 112: 2, 113: 3, 114: 2, 115: 1, 116: 0, 117: 1, 118: 1,
    119: 1, 120: 1,
}

# name -> (vertex count, expected degree profile as {degree: count} or "4r")
CORPUS_CLAIMS = {
    "fig1a": (52, "4r"), "fig1b": (54, "4r"), "fig1c": (57, "4r"),
    "fig1d": (60, "4r"),
    "fig2a": (22, "2p"), "fig2b": (30, "2p"), "fig2c": (31, "2p"),
    "fig2d": (34, "2p"), "fig2e": (35, "2p"), "fig2f": (36, "2p"),
    "fig2g": (40, "2p"), "fig2h": (41, "2p"),
    "fig3a": (64, "4r"), "fig3b": (65, "4r"),
    "fig4a": (67, "4r"), "fig4b": (69, "4r"), "fig4c": (73, "4r"),
    "fig4d": (74, "4r"),
    "fig5a": (48, "2p"), "fig5b": (5, {2: 4, 4: 1}), "fig5c": (49, "2p"),
}

CLAIMED_FLEXIBLE = ("fig1d", "fig3b", "fig4a", "fig5a", "fig5b", "fig5c")
CLAIMED_RIGID = tuple(
    n for n in CORPUS_CLAIMS if n not in CLAIMED_FLEXIBLE
)


def test_acceptance_01_ring_table_reproduces_reference_tally():
    start = time.perf_counter()
    table = combinations_table(PART_INVENTORY, 3)
    assert set(table.rows) == set(REFERENCE_TALLY)
    mismatches = {
        v: (REFERENCE_TALLY[v], g)
        for v, g in table.rows.items()
        if g != REFERENCE_TALLY[v]
    }
    # the single known miscount in the reference tally, pinned exactly
    assert mismatches == {81: (1, 2)}
    assert sum(REFERENCE_TALLY.values()) == 119
    assert table.total() == 120 == math.comb(10, 3)
    assert time.perf_counter() - start < 1.0


def test_acceptance_02_coverage_certificate_complete_to_10000():
    start = time.perf_counter()
    cert = theorem1_coverage(10_000)
    assert cert.complete
    assert set(cert.witnesses) == set(range(63, 10_001))
    # mutation check: the certificate must actually depend on the 94+3n family
    mutated = CoverageSources(
        inventory=DEFAULT_COVERAGE.inventory,
        ring_size=DEFAULT_COVERAGE.ring_size,
        mirror_doubles=DEFAULT_COVERAGE.mirror_doubles,
        corpus_graphs=DEFAULT_COVERAGE.corpus_graphs,
        extra_rings=DEFAULT_COVERAGE.extra_rings,
        families=tuple(f for f in DEFAULT_COVERAGE.families if f.offset != 94),
    )
    assert theorem1_coverage(10_000, mutated).missing != ()
    assert time.perf_counter() - start < 1.0


def test_bundled_corpus_lists_the_claimed_drawings_in_figure_order(monkeypatch):
    monkeypatch.delenv(corpus.CORPUS_ENV, raising=False)
    assert corpus.corpus_names() == tuple(CORPUS_CLAIMS)


def test_acceptance_03_corpus_graphs_certify():
    tol = Tolerances(eps_separation=1e-4)
    for name, (vertices, kind) in CORPUS_CLAIMS.items():
        g = corpus.load_graph(name)
        assert g.vertex_count == vertices, f"{name}: {g.vertex_count} vertices"
        result = refine(g)
        assert result.converged, f"{name}: refinement did not converge"
        refined = result.graph
        lengths = np.hypot(
            *(refined.vertices[[a for a, _ in refined.edges]]
              - refined.vertices[[b for _, b in refined.edges]]).T
        )
        assert np.abs(lengths - 1.0).max() <= 1e-9, f"{name}: edge lengths"
        report = verify_matchstick(refined, tol)
        assert report.is_matchstick, f"{name}: {report.classification}"
        profile = degree_profile(refined)
        if kind == "4r":
            assert set(profile) == {4}, f"{name}: {profile}"
        elif kind == "2p":
            assert set(profile) <= {2, 4} and profile.get(2) == 2, f"{name}: {profile}"
        else:
            assert profile == kind, f"{name}: {profile}"


def test_acceptance_04_edge_count_identities():
    for name, (_, kind) in CORPUS_CLAIMS.items():
        g = corpus.load_graph(name)
        if kind == "4r":
            assert g.edge_count == 2 * g.vertex_count, name
        elif kind == "2p":
            assert g.edge_count == 2 * g.vertex_count - 2, name
        else:  # the 5-vertex spacer satisfies neither identity
            assert g.edge_count not in (
                2 * g.vertex_count,
                2 * g.vertex_count - 2,
            ), name


def test_acceptance_05_construction_arithmetic():
    part = {n: PartSpec(corpus.refined_graph(n)) for n in
            ("fig2a", "fig2b", "fig5a", "fig5c")}
    assert merged_vertex_count(ring_plan([part["fig2a"]] * 3)) == 63
    assert merged_vertex_count(ring_plan([part["fig5a"], part["fig5c"]])) == 95
    assert merged_vertex_count(ring_plan([part["fig2b"]] * 4)) == 116
    mirror_expected = {"fig2d": 66, "fig2e": 68, "fig2f": 70,
                       "fig2g": 78, "fig2h": 80}
    for name, expected in mirror_expected.items():
        v = corpus.load_graph(name).vertex_count
        assert 2 * v - 2 == expected, name
    families = {("fig5a", "fig5a"): 94, ("fig5a", "fig5c"): 95,
                ("fig5c", "fig5c"): 96}
    for (left, right), base in families.items():
        for n in range(6):
            spec = ChainSpec(part[left], part[right], n)
            assert merged_vertex_count(chain_plan(spec)) == base + 3 * n


def test_acceptance_06_geometric_constructions_realize_and_verify():
    start = time.perf_counter()

    def certify(g: EmbeddedGraph, expected_vertices: int) -> None:
        result = refine(g)
        assert result.converged and result.final_residual <= 1e-9
        report = verify_matchstick(result.graph)
        assert report.is_matchstick, report.classification
        assert result.graph.vertex_count == expected_vertices
        assert degree_profile(result.graph) == {4: expected_vertices}

    g2d = corpus.refined_graph("fig2d")
    certify(mirror_double(g2d, *_ports(g2d)), 66)
    g5a = corpus.refined_graph("fig5a")
    certify(mirror_double(g5a, *_ports(g5a)), 94)
    certify(realize(ring_plan([PartSpec(corpus.refined_graph("fig2a"))] * 3)), 63)
    certify(chain_extend(ChainSpec(PartSpec(g5a), PartSpec(g5a), 1)), 97)
    assert time.perf_counter() - start < 60.0


def _ports(g: EmbeddedGraph) -> tuple[int, int]:
    deg = g.degrees()
    a, b = (int(i) for i in np.flatnonzero(deg == 2))
    return a, b


def test_acceptance_07_rigidity_sound_direction():
    for name in CLAIMED_FLEXIBLE:
        report = analyze_rigidity(corpus.refined_graph(name))
        assert report.internal_flexes >= 1, (
            f"{name} is claimed flexible but reports no first-order flex"
        )
    triangle = analyze_rigidity(unit_triangle())
    assert triangle.rigid and triangle.rank == 3
    rhombus = analyze_rigidity(unit_rhombus())
    assert not rhombus.rigid and rhombus.internal_flexes == 1
    # Claimed-rigid graphs are expected to report zero flexes.  A symmetric
    # framework can be rigid yet carry a first-order flex, so a deviation here
    # is flagged with its singular-value tail rather than failed.
    deviations = []
    for name in CLAIMED_RIGID:
        report = analyze_rigidity(corpus.refined_graph(name))
        if report.internal_flexes != 0:
            tail = ", ".join(f"{s:.3e}" for s in report.singular_tail(4))
            deviations.append(
                f"{name}: {report.internal_flexes} flex(es) at first order, "
                f"smallest singular values {tail}"
            )
    for line in deviations:
        print(f"flagged: {line}")
        warnings.warn(f"claimed-rigid deviation -- {line}", stacklevel=1)


def test_acceptance_08_property_suites():
    _jacobian_matches_central_differences()
    _segment_predicates_match_sampled_oracle()
    _enumeration_matches_brute_force()
    _refine_is_idempotent_at_convergence()


def _jacobian_matches_central_differences() -> None:
    rng = np.random.default_rng(20260823)
    h = 1e-6
    for trial in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 13)))
        analytic = residual_jacobian(g)
        numeric = np.empty_like(analytic)
        flat = g.vertices.ravel()
        for j in range(flat.size):
            bump = np.zeros_like(flat)
            bump[j] = h
            plus = edge_lengths(replace(g, vertices=(flat + bump).reshape(-1, 2)))
            minus = edge_lengths(replace(g, vertices=(flat - bump).reshape(-1, 2)))
            numeric[:, j] = (plus - minus) / (2 * h)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(numeric - analytic).max() / scale <= 1e-6, f"trial {trial}"


def _point_to_segment(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    d = s1 - s0
    dd = np.sum(d * d, axis=-1)
    t = np.clip(np.sum((p - s0) * d, axis=-1) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    gap = p - (s0 + t[..., None] * d)
    return np.sqrt(np.sum(gap * gap, axis=-1))


def _segment_predicates_match_sampled_oracle() -> None:
    rng = np.random.default_rng(1729)
    pairs = 100_000
    pts = rng.uniform(-2.0, 2.0, size=(4, pairs, 2))
    a0, a1, b0, b1 = pts
    # keep segment lengths bounded away from zero so the oracle's guard band
    # stays meaningful
    for lo, hi in ((a0, a1), (b0, b1)):
        while True:
            short = np.hypot(*(hi - lo).T) < 0.05
            if not short.any():
                break
            hi[short] = rng.uniform(-2.0, 2.0, size=(int(short.sum()), 2))

    exact = segment_pair_distance(a0, a1, b0, b1)
    np.testing.assert_allclose(
        exact, segment_pair_distance(b0, b1, a0, a1), atol=1e-12
    )
    np.testing.assert_array_equal(
        segment_pair_intersects(a0, a1, b0, b1),
        segment_pair_intersects(b0, b1, a0, a1),
    )

    steps = 41
    ts = np.linspace(0.0, 1.0, steps)
    chunk = 10_000
    for lo in range(0, pairs, chunk):
        hi = lo + chunk
        ca0, ca1 = a0[lo:hi, None, :], a1[lo:hi, None, :]
        cb0, cb1 = b0[lo:hi, None, :], b1[lo:hi, None, :]
        on_a = ca0 + ts[None, :, None] * (ca1 - ca0)
        on_b = cb0 + ts[None, :, None] * (cb1 - cb0)
        sampled = np.minimum(
            _point_to_segment(on_a, cb0, cb1).min(axis=1),
            _point_to_segment(on_b, ca0, ca1).min(axis=1),
        )
        la = np.hypot(*(a1[lo:hi] - a0[lo:hi]).T)
        lb = np.hypot(*(b1[lo:hi] - b0[lo:hi]).T)
        guard = np.minimum(la, lb) / (2 * (steps - 1)) + 1e-9
        d = exact[lo:hi]
        assert np.all(d <= sampled + 1e-12)
        assert np.all(d >= sampled - guard)

    # the scalar conflict predicate is symmetric, including for adjacent pairs
    sample = rng.choice(pairs, size=3000, replace=False)
    for i in sample:
        seg_a = np.array([a0[i], a1[i]])
        seg_b = np.array([b0[i], b1[i]])
        assert segments_conflict(seg_a, seg_b) == segments_conflict(seg_b, seg_a)
    for _ in range(500):
        origin = rng.uniform(-1.0, 1.0, size=2)
        rays = origin + rng.uniform(-1.0, 1.0, size=(2, 2))
        seg_a = np.array([origin, rays[0]])
        seg_b = np.array([origin, rays[1]])
        assert segments_conflict(seg_a, seg_b, shared=(0, 0)) == segments_conflict(
            seg_b, seg_a, shared=(0, 0)
        )


def _enumeration_matches_brute_force() -> None:
    rng = np.random.default_rng(42)

    def check(sizes: tuple[int, ...], parts: int) -> None:
        table = combinations_table(Inventory(sizes), parts)
        multisets = {tuple(sorted(c)) for c in product(sorted(sizes), repeat=parts)}
        expected = Counter(sum(combo) - parts for combo in multisets)
        assert {v: g for v, g in table.rows.items() if g} == dict(expected)

    for parts in range(1, 5):
        check(PART_INVENTORY.part_sizes, parts)
        for _ in range(25):
            count = int(rng.integers(1, 9))
            sizes = tuple(rng.choice(np.arange(3, 61), size=count, replace=False))
            check(sizes, parts)


def _refine_is_idempotent_at_convergence() -> None:
    for name in CORPUS_CLAIMS:
        first = refine(corpus.load_graph(name))
        assert first.converged, name
        second = refine(first.graph)
        assert second.converged, name
        moved = np.abs(second.graph.vertices - first.graph.vertices).max()
        assert moved <= 1e-12, f"{name}: moved {moved:.3e}"
