"""First-order rigidity: rank computation, invariances, realized compositions."""

import contextlib
import io
import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_calls, random_connected_graph, triangle_strip, unit_rhombus, unit_triangle
from matchsticks import cli, corpus, refine, rigidity
from matchsticks.construct import ChainSpec, PartSpec, chain_extend, realize, ring_plan
from matchsticks.model import EmbeddedGraph
from matchsticks.rigidity import DisconnectedGraphError, analyze_rigidity, is_connected


def test_triangle_is_rigid_with_rank_three():
    report = analyze_rigidity(unit_triangle())
    assert report.rank == 3
    assert report.dof_bound == 3
    assert report.internal_flexes == 0
    assert report.rigid
    assert report.classification == "rigid"


def test_rhombus_has_exactly_one_flex():
    report = analyze_rigidity(unit_rhombus())
    assert report.rank == 4
    assert report.dof_bound == 5
    assert report.internal_flexes == 1
    assert report.classification == "flexible"


def test_single_bar_is_rigid():
    g = EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), ((0, 1),))
    report = analyze_rigidity(g)
    assert report.rank == 1
    assert report.internal_flexes == 0


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_triangle_strips_are_rigid(n):
    assert analyze_rigidity(triangle_strip(n)).internal_flexes == 0


def test_disconnected_graph_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    g = EmbeddedGraph(coords, ((0, 1), (2, 3)))
    assert not is_connected(g)
    with pytest.raises(DisconnectedGraphError):
        analyze_rigidity(g)


def test_an_empty_graph_is_not_connected():
    assert not is_connected(EmbeddedGraph(np.zeros((0, 2))))


def test_tiny_graphs_rejected():
    g = EmbeddedGraph(np.array([[0.0, 0.0]]), ())
    with pytest.raises(ValueError):
        analyze_rigidity(g)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_rank_is_isometry_invariant(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 9)))
    base = analyze_rigidity(g)
    angle = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    for transform in (rot, rot @ flip):
        moved = replace(g, vertices=g.vertices @ transform.T + rng.uniform(-3, 3, 2))
        assert analyze_rigidity(moved).rank == base.rank


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_rank_is_monotone_in_edges(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(4, 9)))
    base = analyze_rigidity(g).rank
    present = set(map(tuple, g.edges.tolist()))
    candidates = [
        (i, j)
        for i in range(g.vertex_count)
        for j in range(i + 1, g.vertex_count)
        if (i, j) not in present
    ]
    if candidates:
        extra = candidates[int(rng.integers(0, len(candidates)))]
        grown = EmbeddedGraph(g.vertices, np.vstack([g.edges, extra]))
        assert analyze_rigidity(grown).rank >= base
    if g.edge_count > 1:
        drop = int(rng.integers(0, g.edge_count))
        pruned = EmbeddedGraph(g.vertices, np.delete(g.edges, drop, axis=0))
        if is_connected(pruned):
            assert analyze_rigidity(pruned).rank <= base


@pytest.mark.parametrize("name", ["fig1d", "fig3b", "fig4a", "fig5a", "fig5b", "fig5c"])
def test_claimed_flexible_corpus_graphs_have_flexes(name):
    report = analyze_rigidity(corpus.refined_graph(name))
    assert report.internal_flexes >= 1


CLAIMED_RIGID = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c", "fig2d",
                 "fig2e", "fig2f", "fig2g", "fig2h", "fig3a", "fig4b", "fig4c",
                 "fig4d")


@pytest.mark.parametrize("name", CLAIMED_RIGID)
def test_claimed_rigid_corpus_graphs(name):
    report = analyze_rigidity(corpus.refined_graph(name))
    if name in ("fig2g", "fig2h"):
        # symmetric borderline cases: one singular value sits just below the
        # default rank cutoff, so a single first-order flex is reported even
        # though the frameworks are rigid
        assert report.internal_flexes == 1
        assert 1e-9 < report.singular_tail(2)[1] < 1e-7
    else:
        assert report.internal_flexes == 0


def test_singular_tail_is_ascending():
    report = analyze_rigidity(triangle_strip(4))
    tail = report.singular_tail(5)
    assert list(tail) == sorted(tail)
    assert len(tail) == 5


def test_report_json_schema():
    report = analyze_rigidity(unit_triangle())
    assert hash(report) == hash(report)  # the evidence dict takes no part in hashing
    payload = report.to_json_dict()
    assert list(payload) == ["rigid", "rank", "dof_bound", "internal_flexes", "classification", "evidence"]
    assert payload["evidence"] == {"method": "dense_svd", "cutoff": float(f"{1e-8 * math.sqrt(3):.6g}")}


def test_ring_of_three_rigid_parts_is_rigid():
    part = PartSpec(corpus.refined_graph("fig2a"))
    assert analyze_rigidity(realize(ring_plan([part] * 3))).rigid


@pytest.mark.parametrize("factor", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
def test_rank_tolerance_outside_the_unit_interval_is_rejected(factor):
    with pytest.raises(ValueError, match="rank tolerance"):
        analyze_rigidity(unit_triangle(), factor)


@pytest.mark.parametrize("name", ["fig3a", "fig5a"])
def test_rank_tolerance_below_the_rounding_floor_is_rejected(name):
    # below rounding, the rigid motions count towards the rank: fig3a read
    # "rank 126 of 125" and fig5a "rigid" at 1e-16
    g = corpus.refined_graph(name)
    floor = 2 * g.vertex_count * np.finfo(float).eps
    for factor in (1e-16, floor * (1 - 1e-9)):
        with pytest.raises(ValueError, match=f"below the rounding floor {floor:.2g}"):
            analyze_rigidity(g, factor)
    assert analyze_rigidity(g, floor).internal_flexes == analyze_rigidity(g).internal_flexes


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_rounding_floor_lies_above_the_rigid_motions(name):
    # J applied to the orthonormal rigid motions (two translations and the
    # rotation about the centroid) is rounding, far below 2v eps sigma_max
    g = corpus.refined_graph(name)
    centered = g.vertices - g.vertices.mean(axis=0)
    motions = np.zeros((2 * g.vertex_count, 3))
    motions[0::2, 0] = motions[1::2, 1] = 1.0
    motions[0::2, 2], motions[1::2, 2] = -centered[:, 1], centered[:, 0]
    jacobian = refine.residual_jacobian(g)
    moved = np.linalg.norm(jacobian @ np.linalg.qr(motions)[0], 2)
    floor = 2 * g.vertex_count * np.finfo(float).eps
    assert moved < floor * np.linalg.norm(jacobian, 2) / 10


# -- the banded path against the dense SVD ------------------------------------


def dense_and_banded(g, rank_tol_factor=rigidity.DEFAULT_RANK_TOL):
    """Reports from the dense SVD and from the banded path, whatever g's size,
    and whether ``_banded`` answered or handed g back to the dense SVD."""
    banded, answered = rigidity._banded, []

    def recorded(*args):
        result = banded(*args)
        answered.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_BANDED_FROM", math.inf)
        dense = analyze_rigidity(g, rank_tol_factor)
        mp.setattr(rigidity, "_BANDED_FROM", 0)
        mp.setattr(rigidity, "_banded", recorded)
        banded = analyze_rigidity(g, rank_tol_factor)
    assert len(answered) == 1
    return dense, banded, answered[0]


def assert_paths_agree(g, answered=True, rank_tol_factor=rigidity.DEFAULT_RANK_TOL):
    dense, banded, banded_answered = dense_and_banded(g, rank_tol_factor)
    assert banded_answered == answered
    assert (banded.rank, banded.internal_flexes, banded.classification) == (
        dense.rank, dense.internal_flexes, dense.classification
    )
    assert (banded.evidence["method"] != "dense_svd") == answered
    return banded


@lru_cache(maxsize=None)
def chain(left: str, right: str, spacers: int) -> EmbeddedGraph:
    parts = (PartSpec(corpus.refined_graph(left)), PartSpec(corpus.refined_graph(right)))
    return chain_extend(ChainSpec(*parts, spacers))


@lru_cache(maxsize=None)
def ring(parts: tuple[str, ...]) -> EmbeddedGraph:
    return realize(ring_plan([PartSpec(corpus.refined_graph(p)) for p in parts]))


def flat_rhombus_ladder(k: int) -> EmbeddedGraph:
    """k unit rhombi in a row, folded flat onto the x axis.

    Rails 0..k and k+1..2k+1 are joined by rungs of length 1/2.  Every
    stick is horizontal, so the rank is only v - 1 and the flexes (v - 2)
    outnumber the initial block of 2v - e + 21 vectors once k > 24.
    """
    coords = [[i, 0.0] for i in range(k + 1)] + [[i + 0.5, 0.0] for i in range(k + 1)]
    rails = [(i, i + 1) for i in range(k)] + [(k + 1 + i, k + 2 + i) for i in range(k)]
    rungs = [(i, k + 1 + i) for i in range(k + 1)]
    return EmbeddedGraph(np.array(coords), tuple(rails + rungs), name=f"flat-ladder{k}")


def bent_strip(n: int, flat: int) -> EmbeddedGraph:
    """triangle_strip(n) with its first flat + 1 vertices folded onto the x axis.

    The flat triangles' sticks are dependent, so the strip has about flat
    flexes while the rest of it stays rigid.
    """
    coords = [[i / 2, 0.0 if i <= flat else (i % 2) * math.sqrt(3) / 2] for i in range(n + 2)]
    edges = [(i, i + 1) for i in range(n + 1)] + [(i, i + 2) for i in range(n)]
    return EmbeddedGraph(np.array(coords), tuple(edges), name=f"bent-strip{n}-{flat}")


def zigzag_path(v: int) -> EmbeddedGraph:
    """v vertices joined by v - 1 unit sticks that alternate between two heights."""
    coords = [[i / 2, (i % 2) * math.sqrt(3) / 2] for i in range(v)]
    edges = tuple((i, i + 1) for i in range(v - 1))
    return EmbeddedGraph(np.array(coords), edges, name=f"zigzag{v}")


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_banded_rank_matches_dense_on_the_corpus(name):
    # fig5b needs a block of half its columns or more; the rigid fig2a would
    # too, but its pinned inertia count answers before any block is sized.
    # fig2g's and fig2h's flexes lie between the cutoff and mu, so the Ritz
    # step cannot certify them, and below 150 vertices nothing sweeps
    assert_paths_agree(corpus.refined_graph(name), answered=name not in ("fig5b", "fig2g", "fig2h"))


@pytest.mark.parametrize("name", ["fig2g", "fig2h"])
def test_banded_path_keeps_the_near_threshold_flex(name, monkeypatch):
    # swept at any size, the second singular value sits within the bracket on
    # sigma_max times the rank tolerance, so the verdict takes the pinned
    # inertia count alone and hands the graph to the dense SVD
    g = corpus.refined_graph(name)
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(rigidity, "_BANDED_FROM", 0)
        mp.setattr(rigidity, "_SWEEPS_FROM", 0)
        for owner, function in [(refine._BlockFactor, "negative_count"), (rigidity, "_hashed_block"),
                                (rigidity, "_singular_values"), (refine._NormalEquations, "factor")]:
            counted_calls(mp, calls, owner, function)
        banded = analyze_rigidity(g)
        assert calls == ["factor", "negative_count", "factor", "_hashed_block", "_singular_values"]
    assert banded.internal_flexes == 1 and banded.evidence["method"] == "dense_svd"
    assert 1e-9 < banded.singular_tail(2)[1] < 1e-7
    assert_paths_agree(g, answered=False)


def test_singular_tail_takes_one_dense_svd_when_asked(monkeypatch):
    # the Ritz step certifies the verdict, which sweeps no block and takes no
    # dense SVD; the first read of the tail takes one, and later reads none
    g = chain("fig5a", "fig5c", 50)
    assert g.vertex_count >= rigidity._BANDED_FROM
    ritz_values, seen, calls = rigidity._ritz_values, [], []
    monkeypatch.setattr(rigidity, "_ritz_values", lambda *args: seen.append(ritz_values(*args)) or seen[-1])
    counted_calls(monkeypatch, calls, rigidity, "_hashed_block")
    counted_calls(monkeypatch, calls, rigidity, "_singular_values")
    report = analyze_rigidity(g)
    evidence, ((theta, rounding),) = report.evidence, seen
    assert report.internal_flexes == 1 and calls == []
    assert evidence["method"] == "ritz_step" and evidence["count"] == 1
    # the Ritz bound, rounded up to three significant digits
    assert theta[0] + rounding <= evidence["ritz_max"] < evidence["cutoff"] < evidence["mu"]
    assert float(f"{evidence['ritz_max']:.3g}") == evidence["ritz_max"]
    tail = report.singular_tail(10)
    assert calls == ["_singular_values"] and len(tail) == 10
    assert report.singular_tail(10) == tail and calls == ["_singular_values"]  # computed once
    assert tail == tuple(rigidity._singular_values(g)[::-1][:10].tolist())


@pytest.mark.parametrize("kind", ["chain-5a-5a", "chain-5a-5c", "chain-5c-5c", "bent-strip", "ladder"])
def test_a_swept_verdict_sweeps_one_block(kind, monkeypatch):
    # a verdict sweeps at most one block and names the sweeps as its evidence.
    # The count and the Ritz step leave these verdicts open; the ladder's
    # block would reach half its columns, so it hands off before any sweep
    g, rank_tol_factor = {
        "chain-5a-5a": lambda: (chain("fig5a", "fig5a", 150), UNCERTIFIED_TOL["chain"]),
        "chain-5a-5c": lambda: (chain("fig5a", "fig5c", 150), UNCERTIFIED_TOL["chain"]),
        "chain-5c-5c": lambda: (chain("fig5c", "fig5c", 150), UNCERTIFIED_TOL["chain"]),
        "bent-strip": lambda: (bent_strip(150, 30), UNCERTIFIED_TOL["bent-strip"]),
        "ladder": lambda: (flat_rhombus_ladder(80), rigidity.DEFAULT_RANK_TOL),
    }[kind]()
    assert g.vertex_count >= rigidity._SWEEPS_FROM
    calls = []
    for owner, function in [(rigidity, "_hashed_block"), (rigidity, "_singular_values")]:
        counted_calls(monkeypatch, calls, owner, function)
    report = analyze_rigidity(g, rank_tol_factor)
    # the 5a-5a chain's count finds two values below mu, whose singular value
    # 5.73e-4 lies within rounding of mu = 5.66e-4; its sweeps find one, so the
    # verdict takes the dense SVD after them
    handed_off = kind in ("ladder", "chain-5a-5a")
    assert calls.count("_hashed_block") == (kind != "ladder")
    assert calls.count("_singular_values") == handed_off
    assert report.evidence["method"] == ("dense_svd" if handed_off else "sweeps")
    assert report.evidence.get("count", math.inf) >= report.internal_flexes >= 1


@given(
    st.sampled_from(["fig2g", "fig2h", "ring", "chain"]),
    st.integers(4, 50),
    st.floats(-12, -3).map(lambda e: 10.0**e),
)
@example("fig2g", 4, 1e-12)
@example("chain", 50, 1e-3)
@settings(max_examples=30, deadline=None)
def test_banded_verdict_agrees_with_dense_across_tolerances(kind, spacers, rank_tol_factor):
    if kind == "ring":
        g = ring(("fig2a", "fig2g", "fig2h"))
    elif kind == "chain":
        g = chain("fig5a", "fig5c", spacers)
    else:
        g = corpus.refined_graph(kind)
    dense, banded, _ = dense_and_banded(g, rank_tol_factor)
    assert (banded.rank, banded.internal_flexes) == (dense.rank, dense.internal_flexes)


@pytest.mark.parametrize(
    "parts",
    [("fig2g",) * 3, ("fig2h",) * 3, ("fig2a", "fig2g", "fig2h"), ("fig2f", "fig2g", "fig2g")],
)
def test_banded_rank_matches_dense_on_rings(parts):
    assert_paths_agree(ring(parts))


# -- the pinned inertia count ----------------------------------------------------

RING_PARTS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig2g", "fig2h")
CHAIN_ENDS = (("fig5a", "fig5a"), ("fig5a", "fig5c"), ("fig5c", "fig5c"))
RIGID_RINGS = [("fig2a",) * 3, ("fig2a", "fig2d", "fig2e"), ("fig2b", "fig2c", "fig2f"), ("fig2f",) * 3]
# rank tolerances at which a singular value of these graphs lies between the
# cutoff and mu, so that the Ritz step cannot certify their flexible verdicts
UNCERTIFIED_TOL = {"chain": 1e-4, "fig5a": 1e-2, "ring": 1e-2, "bent-strip": 1e-4}


def verdict_sweep() -> list[tuple[str, EmbeddedGraph]]:
    """The 21 drawings, the 120 three-part rings of fig2a-fig2h, the 8 rings
    of four equal parts, and the three end pairs' chains at 0-5, 10, 20 and
    50 spacers, each with a label."""
    graphs = [(name, corpus.refined_graph(name)) for name in corpus.corpus_names()]
    rings = [*combinations_with_replacement(RING_PARTS, 3), *((part,) * 4 for part in RING_PARTS)]
    graphs += [("+".join(parts), ring(parts)) for parts in rings]
    graphs += [
        (f"{left}-{spacers}-{right}", chain(left, right, spacers))
        for left, right in CHAIN_ENDS
        for spacers in (*range(6), 10, 20, 50)
    ]
    return graphs


@pytest.mark.parametrize("rank_tol_factor", [1e-8, 1e-5, 1e-11])
def test_banded_verdicts_match_dense_on_the_sweep(rank_tol_factor):
    verdict = lambda report: (report.rank, report.internal_flexes, report.classification)
    for label, g in verdict_sweep():
        dense, banded, _ = dense_and_banded(g, rank_tol_factor)
        assert verdict(banded) == verdict(dense), label


# -- the bracket on sigma_max ----------------------------------------------------


def assert_bracketed(g: EmbeddedGraph) -> None:
    """top <= sigma_max^2 <= max(d_u + d_v), with top, lo and hi taken as
    ``_banded`` takes them and sigma_max from the dense SVD.  Both sides hold
    up to rounding: the SVD's, and that of J's unit rows."""
    columns, values = refine._link_columns(g.edges), refine._link_values(g.vertices, g.edges)
    top, lo, hi = rigidity._bracket(g, columns, values)
    pairs, degree = g.edges.tolist(), [0] * g.vertex_count
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    assert lo == math.sqrt(top)
    assert hi == math.sqrt(max(degree[u] + degree[v] for u, v in pairs))
    square = rigidity._singular_values(g)[0] ** 2
    slack = 1 + 8 * np.finfo(float).eps
    assert top <= square * slack
    assert square <= hi * hi * slack


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_sigma_max_is_bracketed_on_the_drawings(name):
    assert_bracketed(corpus.refined_graph(name))


def test_sigma_max_is_bracketed_on_the_three_part_rings():
    for parts in combinations_with_replacement(RING_PARTS, 3):
        assert_bracketed(ring(parts))


@pytest.mark.parametrize("ends", CHAIN_ENDS, ids="-".join)
def test_sigma_max_is_bracketed_on_the_chains(ends):
    for spacers in range(4, 21):
        assert_bracketed(chain(*ends, spacers))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_sigma_max_is_bracketed_on_random_graphs(seed):
    # the rows are unit vectors whatever the edge lengths
    rng = np.random.default_rng(seed)
    assert_bracketed(random_connected_graph(rng, int(rng.integers(2, 12))))


def test_degree_bound_is_attained_by_a_single_bar():
    # sigma_max^2 = d_u + d_v = 2: the bound is tight, so the check keeps its slack
    bar = EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), ((0, 1),))
    assert_bracketed(bar)
    assert rigidity._singular_values(bar)[0] ** 2 == pytest.approx(2.0, rel=1e-15)


def workload_graphs() -> list[EmbeddedGraph]:
    """The benchmark's graphs of 60 vertices or more: the refined drawings,
    the 120 three-part rings of fig2a-fig2h and the three end pairs' chains
    at 50 and 150 spacers."""
    graphs = [corpus.refined_graph(name) for name in corpus.corpus_names()]
    graphs = [g for g in graphs if g.vertex_count >= rigidity._BANDED_FROM]
    graphs += [ring(parts) for parts in combinations_with_replacement(RING_PARTS, 3)]
    return graphs + [chain(*ends, spacers) for ends in CHAIN_ENDS for spacers in (50, 150)]


@pytest.mark.parametrize("parts", RIGID_RINGS)
def test_rigid_ring_verdicts_take_no_sweep_and_no_svd(parts, monkeypatch):
    g = ring(parts)
    assert g.vertex_count >= rigidity._BANDED_FROM
    calls = []
    with monkeypatch.context() as mp:
        counted_calls(mp, calls, rigidity, "_orthonormal")
        counted_calls(mp, calls, np.linalg, "svd")
        counted_calls(mp, calls, refine._BlockFactor, "solve")
        counted_calls(mp, calls, refine._BlockFactor, "negative_count")
        counted_calls(mp, calls, rigidity, "_singular_values")
        counted_calls(mp, calls, rigidity, "_hashed_block")
        report = analyze_rigidity(g)
    assert report.rigid and calls == ["negative_count"]  # the pinned count alone
    assert report.evidence["method"] == "pinned_count" and report.evidence["count"] == 0
    assert report.evidence["cutoff"] < report.evidence["mu"]


def test_open_verdicts_below_150_vertices_take_the_dense_svd_once(monkeypatch):
    # verdicts that the count and the Ritz step leave open under _SWEEPS_FROM
    # vertices take one dense SVD and sweep no block: the 64 rings with a
    # fig2g or fig2h part at rank tolerances 1e-9 and 1e-11, and the
    # command-line runs of the digest sweep with such verdicts (compositions
    # of fig2g and fig2h)
    rings = [parts for parts in combinations_with_replacement(RING_PARTS, 3) if {"fig2g", "fig2h"} & set(parts)]
    assert len(rings) == 64
    calls = []
    counted_calls(monkeypatch, calls, rigidity, "_hashed_block")
    counted_calls(monkeypatch, calls, rigidity, "_singular_values")
    for rank_tol_factor in (1e-9, 1e-11):
        for parts in rings:
            g = ring(parts)
            assert rigidity._BANDED_FROM <= g.vertex_count < rigidity._SWEEPS_FROM
            calls.clear()
            assert analyze_rigidity(g, rank_tol_factor).evidence["method"] == "dense_svd"
            assert calls == ["_singular_values"], parts
    commands = [["construct", "ring", "fig2g", "fig2g", "fig2g", "--json"]]
    commands += [["construct", "mirror", name, "--json"] for name in ("fig2g", "fig2h")]
    for argv in commands:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert '"method": "dense_svd"' in out.getvalue()
        assert calls == ["_singular_values"], argv


@pytest.mark.parametrize("kind", ["fig5a", "ring", "chain", "rigid-ring"])
def test_pinned_count_is_the_dense_count_less_the_rigid_motions(kind, monkeypatch):
    # the verdict's one inertia count, at -mu^2 with the three default pins
    # held, finds every eigenvalue of J^T J below mu^2 but the rigid motions
    g = {
        "fig5a": lambda: corpus.refined_graph("fig5a"),
        "ring": lambda: ring(("fig2a", "fig2a", "fig2g")),
        "chain": lambda: chain("fig5a", "fig5c", 150),
        "rigid-ring": lambda: ring(RIGID_RINGS[0]),
    }[kind]()
    factor, negative_count = refine._NormalEquations.factor, refine._BlockFactor.negative_count
    factors, counts = [], []

    def recorded_factor(self, *args):
        factors.append(args)
        return factor(self, *args)

    def recorded_count(self):
        counts.append(negative_count(self))
        return counts[-1]

    monkeypatch.setattr(rigidity, "_BANDED_FROM", 0)
    monkeypatch.setattr(refine._NormalEquations, "factor", recorded_factor)
    monkeypatch.setattr(refine._BlockFactor, "negative_count", recorded_count)
    report = analyze_rigidity(g)
    (shift, pins, weight), pinned = factors[0], counts[0]  # the first factor is the pinned one
    assert sorted(pins) == sorted(2 * vertex + axis for vertex, axis in refine.default_pins(g))
    assert weight == pytest.approx((refine.residual_jacobian(g) ** 2).sum(axis=0).max())  # top
    sigma = rigidity._singular_values(g)
    structural = 2 * g.vertex_count - len(sigma)  # zero eigenvalues of J^T J besides sigma's
    assert pinned == structural + np.count_nonzero(sigma < math.sqrt(-shift)) - 3
    assert (pinned == 0) == (kind == "rigid-ring") == report.rigid


@pytest.mark.parametrize(
    "kind, factorizations",
    [("chain", 2), ("fig5a", 2), ("ring", 2), ("ladder", 1), ("bent-strip", 2)],
)
def test_flexible_verdicts_factor_no_more_often(kind, factorizations, monkeypatch):
    # verdicts that the Ritz step does not certify (UNCERTIFIED_TOL; the
    # ladder hands off first), swept at any size, factor for the pinned
    # inertia count at -mu^2 and for the sweeps at +delta (unless the block
    # would reach half the columns).  Each factor is eliminated once, to be
    # counted or solved
    g = {
        "chain": lambda: chain("fig5a", "fig5c", 150),
        "fig5a": lambda: corpus.refined_graph("fig5a"),
        "ring": lambda: ring(("fig2b", "fig2g", "fig2g")),
        "ladder": lambda: flat_rhombus_ladder(80),
        "bent-strip": lambda: bent_strip(150, 30),
    }[kind]()
    calls = []
    monkeypatch.setattr(rigidity, "_BANDED_FROM", 0)
    monkeypatch.setattr(rigidity, "_SWEEPS_FROM", 0)
    counted_calls(monkeypatch, calls, refine._NormalEquations, "factor")
    assert not analyze_rigidity(g, UNCERTIFIED_TOL.get(kind, rigidity.DEFAULT_RANK_TOL)).rigid
    assert len(calls) == factorizations


# -- the Ritz certificate of flexible verdicts -------------------------------------


@lru_cache(maxsize=None)
def certificate_graphs() -> tuple[tuple[str, EmbeddedGraph, np.ndarray], ...]:
    """The drawings of 60 vertices or more, the 120 three-part rings, the three
    end pairs' chains at 0-40 spacers and eight random connected graphs of
    60-95 vertices, each with a label and the square roots of J^T J's
    eigenvalues, ascending: n - e structural zeros, then J's singular values
    from the dense SVD."""
    graphs = [(name, corpus.refined_graph(name)) for name in corpus.corpus_names()]
    graphs = [(label, g) for label, g in graphs if g.vertex_count >= 60]
    graphs += [("+".join(parts), ring(parts)) for parts in combinations_with_replacement(RING_PARTS, 3)]
    graphs += [
        (f"{left}-{spacers}-{right}", chain(left, right, spacers))
        for left, right in CHAIN_ENDS
        for spacers in range(41)
    ]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        graphs.append((f"random-{seed}", random_connected_graph(rng, 60 + 5 * seed)))
    found = []
    for label, g in graphs:
        sigma = rigidity._singular_values(g)[::-1]
        found.append((label, g, np.concatenate([np.zeros(2 * g.vertex_count - len(sigma)), sigma])))
    return tuple(found)


@pytest.mark.parametrize("rank_tol_factor", [1e-11, 1e-8, 1e-5])
def test_ritz_certificate_is_sound_and_its_verdicts_exact(rank_tol_factor, monkeypatch):
    # every Ritz value is at least the matching singular value, less the
    # rounding allowance; a verdict certified by them (no factor solved, so
    # no sweep, and no dense SVD) has the dense SVD's rank
    ritz_values, seen, calls = rigidity._ritz_values, [], []

    def recorded(*args):
        seen.append(ritz_values(*args))
        return seen[-1]

    monkeypatch.setattr(rigidity, "_BANDED_FROM", 0)
    monkeypatch.setattr(rigidity, "_ritz_values", recorded)
    counted_calls(monkeypatch, calls, refine._BlockFactor, "solve")
    counted_calls(monkeypatch, calls, rigidity, "_singular_values")
    certified = 0
    for label, g, sigma in certificate_graphs():  # their dense SVDs, taken before the loop
        seen.clear()
        calls.clear()
        report = analyze_rigidity(g, rank_tol_factor)
        if not seen:  # rigid by the count alone, or handed off first
            continue
        theta, rounding = seen[0]
        assert np.all(theta[::-1] + rounding >= sigma[: len(theta)]), label
        if not calls:
            certified += 1
            dense_rank = int(np.sum(sigma > rank_tol_factor * sigma[-1]))
            assert report.rank == dense_rank and not report.rigid, label
    assert certified >= 100


def test_flexible_ring_and_chain_verdicts_are_certified(monkeypatch):
    # at the default tolerance every flexible verdict on the benchmark's graphs
    # of 60 vertices or more takes the Ritz step, no sweep and no dense SVD,
    # and every rigid one none of the three
    calls, flexible = [], 0
    counted_calls(monkeypatch, calls, refine._BlockFactor, "solve")
    counted_calls(monkeypatch, calls, rigidity, "_ritz_values")
    counted_calls(monkeypatch, calls, rigidity, "_hashed_block")
    counted_calls(monkeypatch, calls, rigidity, "_singular_values")
    for g in workload_graphs():
        calls.clear()
        if not analyze_rigidity(g).rigid:
            flexible += 1
            assert calls == ["_ritz_values"], g.name
        else:
            assert calls == [], g.name
    # fig1d, fig3b and fig4a, the rings with a fig2g or fig2h part, and the chains
    assert flexible == 3 + 64 + 6


@pytest.mark.parametrize("kind", ["ring", "chain"])
def test_certified_flexible_verdict_takes_one_count_and_no_sweep(kind, monkeypatch):
    g = ring(("fig2a", "fig2a", "fig2g")) if kind == "ring" else chain("fig5a", "fig5c", 150)
    assert g.vertex_count >= rigidity._BANDED_FROM
    calls = []
    with monkeypatch.context() as mp:
        counted_calls(mp, calls, refine._BlockFactor, "negative_count")
        counted_calls(mp, calls, refine._BlockFactor, "solve")
        for name in ["_orthonormal", "_hashed_block", "_singular_values"]:
            counted_calls(mp, calls, rigidity, name)
        report = analyze_rigidity(g)
    assert report.internal_flexes == 1 and calls == ["negative_count"]
    evidence = report.evidence
    assert evidence["method"] == "ritz_step" and evidence["count"] == 1
    assert evidence["ritz_max"] < evidence["cutoff"]


@pytest.mark.parametrize("kind", ["ring", "chain"])
def test_a_singular_pivot_in_the_pinned_count_hands_off_to_the_dense_svd(kind, monkeypatch):
    # a singular pivot leaves nothing to count: the verdict, even one that
    # would sweep, takes the dense SVD alone and has its rank
    g = ring(("fig2a", "fig2a", "fig2g")) if kind == "ring" else chain("fig5a", "fig5c", 150)
    eliminate, calls = refine._BlockFactor.__init__, []

    def singular_once(self, *args):
        calls.append("eliminate")
        if len(calls) == 1:  # the pinned count's elimination
            raise np.linalg.LinAlgError("Singular matrix")
        eliminate(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(rigidity, "_SWEEPS_FROM", 0)
        mp.setattr(refine._BlockFactor, "__init__", singular_once)
        for name in ["_ritz_values", "_hashed_block", "_singular_values"]:
            counted_calls(mp, calls, rigidity, name)
        report = analyze_rigidity(g)
    assert calls == ["eliminate", "_singular_values"]
    dense = rigidity._singular_values(g)
    assert report.rank == int(np.sum(dense > rigidity.DEFAULT_RANK_TOL * dense[0]))
    assert report.internal_flexes == 1


@given(
    st.sampled_from([("fig5a", "fig5a"), ("fig5a", "fig5c"), ("fig5c", "fig5c")]),
    st.integers(0, 50),
)
@settings(max_examples=25)
def test_banded_rank_matches_dense_on_chains(ends, spacers):
    assert_paths_agree(chain(*ends, spacers))


@given(st.integers(23, 80))
@settings(max_examples=15)
def test_banded_rank_matches_dense_on_strips(n):
    assert_paths_agree(triangle_strip(n))


def test_banded_rank_answers_short_strips_by_the_count(monkeypatch):
    # a strip of n triangles has 2n + 4 columns and would need a first block
    # of 24 vectors, but it is rigid: the pinned inertia count answers it
    def no_block(n, p):
        raise AssertionError(f"a block of {p} vectors was started")

    monkeypatch.setattr(rigidity, "_hashed_block", no_block)
    for n in range(1, 23):
        assert assert_paths_agree(triangle_strip(n)).rigid


def test_banded_rank_matches_dense_on_the_rhombus():
    assert assert_paths_agree(unit_rhombus(), answered=False).internal_flexes == 1


@given(st.integers(25, 45))
@settings(max_examples=8)
def test_banded_rank_hands_off_for_many_flexes(k):
    # the flexes outnumber 2v - e + 21, and the block they size reaches half the columns
    g = flat_rhombus_ladder(k)
    banded = assert_paths_agree(g, answered=False)
    assert banded.internal_flexes == g.vertex_count - 2
    assert banded.internal_flexes > 2 * g.vertex_count - g.edge_count + 21


@given(st.integers(25, 46))
@settings(max_examples=8)
def test_banded_sizes_its_one_block_by_the_inertia_count(flat):
    # the flexes outnumber 2v - e + 21, so the inertia count at -mu^2 sizes the
    # block, which stays below half the strip's 304 columns; at rank tolerance
    # 3e-3 singular values lie between the cutoff and mu, so the Ritz step
    # cannot certify the verdict
    g = bent_strip(150, flat)
    assert g.vertex_count >= rigidity._BANDED_FROM
    hashed_block, sizes = rigidity._hashed_block, []

    def counted(n, p):
        sizes.append(p)
        return hashed_block(n, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_hashed_block", counted)
        report = analyze_rigidity(g, 3e-3)
    assert len(sizes) == 1
    assert sizes[0] > report.internal_flexes > 2 * g.vertex_count - g.edge_count + 21
    assert_paths_agree(g)


@pytest.mark.parametrize("kind, block_sizes", [("chain", 1), ("ladder", 0), ("bent-strip", 1)])
def test_banded_rank_takes_one_tall_svd_per_block_size(kind, block_sizes, monkeypatch):
    # sweeps settle on the eigenvalues of a p x p Gram matrix; the singular
    # values of the tall e x p product J V are taken once, after the last sweep.
    # The ladder's block would reach half its columns, so it hands off first.
    # The others' verdicts are not certified (UNCERTIFIED_TOL): the Ritz step
    # takes one more SVD, of a product of fewer columns than the block.
    g = {
        "chain": lambda: chain("fig5a", "fig5c", 150),
        "ladder": lambda: flat_rhombus_ladder(50),
        "bent-strip": lambda: bent_strip(150, 30),
    }[kind]()
    svd, hashed_block = np.linalg.svd, rigidity._hashed_block
    tall, sizes = [], []

    def counted_svd(a, *args, **kwargs):
        tall.append((a.shape[0] > a.shape[1], a.shape[1]))
        return svd(a, *args, **kwargs)

    def counted_block(n, p):
        sizes.append(p)
        return hashed_block(n, p)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(rigidity, "_hashed_block", counted_block)
    answer = rigidity._banded(g, UNCERTIFIED_TOL.get(kind, rigidity.DEFAULT_RANK_TOL))
    assert (answer is None) == (kind == "ladder")
    assert len(sizes) == block_sizes
    assert [is_tall for is_tall, columns in tall if columns in sizes] == [True] * block_sizes
    assert all(columns < min(sizes, default=0) for _, columns in tall[:-block_sizes or None])


@pytest.mark.parametrize("kind", ["chain", "fig2g"])
def test_banded_rank_hands_off_when_sweeps_run_out(kind, monkeypatch):
    # two sweeps never settle (the first has no Ritz estimate), so the dense
    # SVD answers verdicts that the Ritz step does not certify, swept at any
    # size: the short chain's at rank tolerance 1e-2, fig2g's at the default
    monkeypatch.setattr(rigidity, "_MAX_SWEEPS", 2)
    monkeypatch.setattr(rigidity, "_SWEEPS_FROM", 0)
    runs_out = []
    counted_calls(monkeypatch, runs_out, rigidity, "_hashed_block")
    if kind == "chain":
        assert_paths_agree(chain("fig5a", "fig5c", 4), answered=False, rank_tol_factor=1e-2)
    else:
        assert_paths_agree(corpus.refined_graph(kind), answered=False)
    assert runs_out == ["_hashed_block"]  # the verdict swept, then took the dense SVD


def test_banded_rank_hands_off_a_long_path_before_any_sweep(monkeypatch):
    # the path's n - e structural zeros alone fill half the columns
    g = zigzag_path(400)
    assert g.vertex_count >= rigidity._BANDED_FROM

    def no_sweep(n, p):
        raise AssertionError(f"a block of {p} vectors was started")

    monkeypatch.setattr(rigidity, "_hashed_block", no_sweep)
    assert rigidity._banded(g, rigidity.DEFAULT_RANK_TOL) is None
    report = analyze_rigidity(g)
    assert (report.rank, report.internal_flexes) == (g.edge_count, g.vertex_count - 2)


def test_banded_rigidity_memory_is_linear_on_a_long_chain(long_chain):
    # a dense SVD of the 1,990 x 1,990 rigidity matrix peaks above 30 MB;
    # the verdict stays far below it
    assert long_chain.vertex_count >= rigidity._BANDED_FROM
    tracemalloc.start()
    try:
        report = analyze_rigidity(long_chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.internal_flexes == 1
    assert peak < 12e6


def test_a_long_chain_verdict_sweeps_at_the_default_tolerance(monkeypatch):
    # from about 1,000 spacers one inverse step leaves the flex's Ritz value
    # above the cutoff, so the verdict itself sweeps; a dense J alone would
    # take 306 MB
    g = chain("fig5a", "fig5c", 1000)
    assert g.vertex_count == 3095
    calls = []
    counted_calls(monkeypatch, calls, rigidity, "_hashed_block")
    counted_calls(monkeypatch, calls, rigidity, "_singular_values")
    tracemalloc.start()
    try:
        report = analyze_rigidity(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == ["_hashed_block"] and report.evidence["method"] == "sweeps"
    assert report.internal_flexes == 1
    assert peak < 40e6


# -- orthonormalization of the iteration's blocks -------------------------------


def conditioned_block(m: int, p: int, condition: float, seed: int) -> np.ndarray:
    """An m x p block whose singular values fall evenly, in decades, from 1 to 1/condition."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((m, p)))[0]
    right = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (left * np.logspace(0, -math.log10(condition), p)) @ right.T


def assert_orthonormal_basis(w: np.ndarray) -> None:
    q = rigidity._orthonormal(w)
    assert q.shape == w.shape
    np.testing.assert_allclose(q.T @ q, np.eye(w.shape[1]), rtol=0, atol=1e-14)
    r = q.T @ w
    scale = np.abs(w).max()
    # q spans w's columns, and its first k columns span w's first k (r is triangular)
    np.testing.assert_allclose(q @ r, w, rtol=0, atol=1e-14 * scale)
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize(
    "shape, condition",
    [(shape, condition) for shape in [(1092, 21), (300, 7), (60, 60)]
     for condition in [1.0, 1e3, 1e6, 1e9, 1e12]] + [((40, 1), 1.0)],
)
def test_orthonormal_is_exact_to_rounding_up_to_condition_1e12(shape, condition):
    assert_orthonormal_basis(conditioned_block(*shape, condition, seed=shape[1]) * 1e3)


@pytest.mark.parametrize("n, p", [(1092, 23), (8, 8), (182, 182), (300, 84)])
def test_orthonormal_on_the_hashed_start_block(n, p):
    assert_orthonormal_basis(rigidity._hashed_block(n, p))
