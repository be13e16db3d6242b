"""Graph container, degree profiles, and edge lengths."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import unit_rhombus, unit_triangle
from matchsticks import corpus
from matchsticks.model import (
    EmbeddedGraph,
    ModelError,
    degree_profile,
    edge_lengths,
    _components,
)
from matchsticks.refine import refine


def test_edges_are_canonicalized_and_sorted_within_pair():
    g = EmbeddedGraph(np.zeros((3, 2)) + [[0, 0], [1, 0], [0, 1]], ((2, 1), (1, 0)))
    assert g.edges.tolist() == [[1, 2], [0, 1]]
    assert g.vertex_count == 3
    assert g.edge_count == 2


def test_vertices_array_is_read_only():
    g = unit_triangle()
    with pytest.raises(ValueError):
        g.vertices[0, 0] = 99.0


def test_edge_array_is_built_once_and_read_only():
    g = unit_triangle()
    edges = g.edges
    assert g.edges is edges
    assert edges.dtype == np.int64 and edges.shape == (3, 2)
    assert not edges.flags.writeable
    with pytest.raises(ValueError):
        edges[0, 0] = 2
    empty = EmbeddedGraph(np.zeros((2, 2))).edges
    assert empty.dtype == np.int64 and empty.shape == (0, 2)


def test_graph_fields_are_vertices_edges_and_a_keyword_name():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert [f.name for f in dataclasses.fields(EmbeddedGraph)] == ["vertices", "edges", "name"]
    with pytest.raises(TypeError):
        EmbeddedGraph(coords, ((0, 1),), 1.0)
    assert EmbeddedGraph(coords, ((0, 1),), name="stick").name == "stick"


def test_graphs_compare_and_hash_by_identity():
    g, h = corpus.load_graph("fig2a"), corpus.load_graph("fig2a")
    assert (g == h) is False
    assert g == g and {g} == {g} and len({g, h}) == 2
    result = refine(g)
    assert hash(result) == hash(result)  # a frozen result holding a graph hashes


@pytest.mark.parametrize(
    "edges",
    [((0, 0),), ((0, 1), (1, 0)), ((0, 3),), ((-1, 1),)],
    ids=["self-loop", "duplicate", "out-of-range", "negative"],
)
def test_bad_edges_rejected(edges):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError):
        EmbeddedGraph(coords, edges)


def reference_edges(edges, n):
    """The per-edge validation loop: canonical edges, or the first problem's message."""
    seen = []
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for {n} vertices"
        if (u, v) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.append((u, v))
    return tuple(seen)


@given(st.integers(0, 6), st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=12))
def test_edge_validation_matches_the_per_edge_loop(n, edges):
    coords = np.zeros((n, 2))
    expected = reference_edges(edges, n)
    for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        try:
            got = tuple(map(tuple, EmbeddedGraph(coords, given_edges).edges.tolist()))
        except ModelError as exc:
            got = str(exc)
        assert got == expected


def test_non_integral_edge_indices_rejected():
    # int() used to truncate 1.7 to 1 and keep the edge (0, 1)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match=r"^edge \(0, 1\.7\) has a non-integral vertex index$"):
        EmbeddedGraph(coords, [(1, 2), (0, 1.7)])
    assert EmbeddedGraph(coords, [(2.0, 1.0)]).edges.tolist() == [[1, 2]]


@pytest.mark.parametrize(
    "edges, shown",
    [
        ([(0, 1), (0, 1, 2)], "(0, 1, 2)"),
        ([0, 1, 1, 2], "0"),
        (np.array([0, 1, 1, 2]), "0"),
        ([(0, 1), (0, (1, 2))], "(0, (1, 2))"),
    ],
    ids=["three-entries", "flat-list", "flat-array", "ragged-row"],
)
def test_rows_that_are_not_pairs_rejected(edges, shown):
    # a flat sequence of indices must not be re-paired into edges
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match=rf"^edge {re.escape(shown)} is not a pair of vertex indices$"):
        EmbeddedGraph(coords, edges)


def test_indices_beyond_int64_are_out_of_range():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match=rf"^edge \(0, {2**70}\) out of range for 3 vertices$"):
        EmbeddedGraph(coords, [(0, 1), (2**70, 0)])
    big = np.array([[0, 2**64 - 1]], dtype=np.uint64)
    with pytest.raises(ModelError, match=rf"^edge \(0, {2**64 - 1}\) out of range"):
        EmbeddedGraph(coords, big)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (0, 10**400)], rf"^edge \(0, {10**400}\) out of range for 3 vertices$"),
        ([(0, 1), (-(10**400), 2)], rf"^edge \({-(10**400)}, 2\) out of range for 3 vertices$"),
        ([(0, 1), ("a", 2)], r"^edge \('a', 2\) has a non-integral vertex index$"),
        ([(0, 1), (None, 2)], r"^edge \(None, 2\) has a non-integral vertex index$"),
    ],
    ids=["beyond-float-range", "below-float-range", "text", "none"],
)
def test_edge_entries_beyond_floats_or_not_numbers_rejected(edges, message):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match=message):
        EmbeddedGraph(coords, edges)


def test_nonfinite_coordinates_rejected():
    coords = np.array([[0.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ModelError):
        EmbeddedGraph(coords, ((0, 1),))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-3, 3, size=(n, 2))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(min_value=1, max_value=len(all_pairs)))
    picks = rng.choice(len(all_pairs), size=count, replace=False)
    edges = tuple(all_pairs[i] for i in sorted(picks))
    return EmbeddedGraph(coords, edges)


@given(graphs())
def test_degree_profile_sums_to_vertex_count(g):
    assert sum(degree_profile(g).values()) == g.vertex_count


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert int(g.degrees().sum()) == 2 * g.edge_count


@given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_profile_and_length_multiset_are_permutation_invariant(g, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.vertex_count)
    inverse = np.argsort(perm)
    relabeled = EmbeddedGraph(g.vertices[perm], inverse[g.edges])
    assert degree_profile(relabeled) == degree_profile(g)
    np.testing.assert_allclose(
        np.sort(edge_lengths(relabeled)), np.sort(edge_lengths(g)), rtol=1e-12
    )


def test_degree_profile_is_an_ascending_dict():
    assert degree_profile(unit_rhombus()) == {2: 4}
    # a path with a pendant: vertex 1 has degree 3, its three neighbours degree 1
    g = EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
                      ((1, 2), (0, 1), (1, 3)))
    profile = degree_profile(g)
    assert profile == {1: 3, 3: 1} and list(profile) == [1, 3]
    assert all(type(x) is int for x in (*profile, *profile.values()))
    assert str(profile) == "{1: 3, 3: 1}"  # the catalog's profile column
    assert degree_profile(EmbeddedGraph(np.zeros((0, 2)))) == {}


def test_edge_length_is_in_units():
    g = EmbeddedGraph(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]]), ((0, 1), (1, 2)))
    np.testing.assert_allclose(edge_lengths(g), [5.0, 1.0])
    assert edge_lengths(EmbeddedGraph(np.zeros((2, 2)))).shape == (0,)


def test_new_vertices_must_have_shape_v2_and_cover_the_edges():
    g = unit_triangle()
    with pytest.raises(ModelError):
        dataclasses.replace(g, vertices=np.zeros((3, 3)))
    with pytest.raises(ModelError):
        dataclasses.replace(g, vertices=np.zeros((2, 2)))  # edges would dangle


def smallest_in_component_reference(n, pairs):
    """Plain depth-first search: the smallest node index of each node's component."""
    adjacency = [[] for _ in range(n)]
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    label = [-1] * n
    for start in range(n):
        if label[start] < 0:
            label[start] = start
            stack = [start]
            while stack:
                for other in adjacency[stack.pop()]:
                    if label[other] < 0:
                        label[other] = start
                        stack.append(other)
    return label


@st.composite
def pair_lists(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    return n, pairs + repeats


@given(pair_lists())
@example((0, []))
@example((5, []))
@example((4, [(3, 2), (3, 2), (2, 3), (1, 1)]))
@example((8, [(k + 1, k) for k in reversed(range(7))]))  # a path, largest node first
@example((6, [(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]))  # a star around the largest node
def test_components_match_depth_first_search(case):
    n, pairs = case
    i = np.array([a for a, _ in pairs], dtype=int)
    j = np.array([b for _, b in pairs], dtype=int)
    assert _components(n, i, j).tolist() == smallest_in_component_reference(n, pairs)
