"""First-order rigidity: rank computation, invariances, realized compositions."""

import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, triangle_strip, unit_rhombus, unit_triangle
from matchsticks import corpus, rigidity
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
    payload = analyze_rigidity(unit_triangle()).to_json_dict()
    for key in ("rank", "dof_bound", "internal_flexes", "classification",
                "singular_value_tail"):
        assert key in payload


def test_ring_of_three_rigid_parts_is_rigid():
    part = PartSpec(corpus.refined_graph("fig2a"))
    assert analyze_rigidity(realize(ring_plan([part] * 3))).rigid


@pytest.mark.parametrize("factor", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
def test_rank_tolerance_outside_the_unit_interval_is_rejected(factor):
    with pytest.raises(ValueError, match="rank tolerance"):
        analyze_rigidity(unit_triangle(), factor)


# -- the banded path against the dense SVD ------------------------------------


def dense_and_banded(g):
    """Reports from the dense SVD and from the banded path, whatever g's size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_BANDED_FROM", math.inf)
        dense = analyze_rigidity(g)
        mp.setattr(rigidity, "_BANDED_FROM", 0)
        banded = analyze_rigidity(g)
    return dense, banded


def assert_paths_agree(g):
    dense, banded = dense_and_banded(g)
    assert (banded.rank, banded.internal_flexes, banded.classification) == (
        dense.rank, dense.internal_flexes, dense.classification
    )
    assert len(banded.singular_tail(10)) == min(10, g.edge_count, 2 * g.vertex_count)
    np.testing.assert_allclose(banded.singular_tail(10), dense.singular_tail(10), rtol=0, atol=1e-12)
    return banded


@lru_cache(maxsize=None)
def chain(left: str, right: str, spacers: int) -> EmbeddedGraph:
    parts = (PartSpec(corpus.refined_graph(left)), PartSpec(corpus.refined_graph(right)))
    return chain_extend(ChainSpec(*parts, spacers))


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


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_banded_rank_matches_dense_on_the_corpus(name):
    assert_paths_agree(corpus.refined_graph(name))


@pytest.mark.parametrize("name", ["fig2g", "fig2h"])
def test_banded_path_keeps_the_near_threshold_flex(name):
    # the second singular value sits within the bracket on sigma_max times
    # the rank tolerance, so the verdict needs the bisection
    banded = assert_paths_agree(corpus.refined_graph(name))
    assert banded.internal_flexes == 1
    assert 1e-9 < banded.singular_tail(2)[1] < 1e-7


@pytest.mark.parametrize(
    "parts",
    [("fig2g",) * 3, ("fig2h",) * 3, ("fig2a", "fig2g", "fig2h"), ("fig2f", "fig2g", "fig2g")],
)
def test_banded_rank_matches_dense_on_rings(parts):
    assert_paths_agree(realize(ring_plan([PartSpec(corpus.refined_graph(p)) for p in parts])))


@given(
    st.sampled_from([("fig5a", "fig5a"), ("fig5a", "fig5c"), ("fig5c", "fig5c")]),
    st.integers(0, 50),
)
@settings(max_examples=25)
def test_banded_rank_matches_dense_on_chains(ends, spacers):
    assert_paths_agree(chain(*ends, spacers))


@given(st.integers(1, 80))
@settings(max_examples=15)
def test_banded_rank_matches_dense_on_strips(n):
    assert_paths_agree(triangle_strip(n))


def test_banded_rank_matches_dense_on_the_rhombus():
    assert assert_paths_agree(unit_rhombus()).internal_flexes == 1


@given(st.integers(25, 45))
@settings(max_examples=8)
def test_banded_rank_doubles_its_block_for_many_flexes(k):
    g = flat_rhombus_ladder(k)
    banded = assert_paths_agree(g)
    assert banded.internal_flexes == g.vertex_count - 2
    assert banded.internal_flexes > 2 * g.vertex_count - g.edge_count + 21


def test_banded_rigidity_memory_is_linear_on_a_long_chain(long_chain):
    # a dense SVD of the 1,990 x 1,990 rigidity matrix peaks above 30 MB
    assert long_chain.vertex_count >= rigidity._BANDED_FROM
    tracemalloc.start()
    try:
        report = analyze_rigidity(long_chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.internal_flexes == 1
    assert peak < 12e6
