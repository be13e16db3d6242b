"""Gauss-Newton refinement: Jacobian correctness, convergence, idempotence."""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, triangle_strip, unit_rhombus, unit_triangle
import matchsticks
from matchsticks import corpus
from matchsticks import refine as refine_module
from matchsticks.ingest import SegmentFile, build_graph
from matchsticks.model import EmbeddedGraph, edge_lengths
from matchsticks.refine import (
    RefineOptions,
    ZeroLengthEdgeError,
    _NormalEquations,
    default_pins,
    refine,
    residual_jacobian,
)


def central_difference_jacobian(g: EmbeddedGraph, h: float = 1e-6) -> np.ndarray:
    flat = g.vertices.ravel().copy()
    out = np.zeros((g.edge_count, flat.size))
    for col in range(flat.size):
        bumped = flat.copy()
        bumped[col] += h
        plus = edge_lengths(replace(g, vertices=bumped.reshape(-1, 2)))
        bumped[col] -= 2 * h
        minus = edge_lengths(replace(g, vertices=bumped.reshape(-1, 2)))
        out[:, col] = (plus - minus) / (2 * h)
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 10)))
    analytic = residual_jacobian(g)
    numeric = central_difference_jacobian(g)
    scale = max(1.0, float(np.abs(analytic).max()))
    assert np.abs(analytic - numeric).max() / scale <= 1e-6


def test_refine_perturbed_rigid_graph_recovers_unit_lengths():
    rng = np.random.default_rng(3)
    g = triangle_strip(6)
    noisy = replace(g, vertices=g.vertices + rng.uniform(-0.02, 0.02, g.vertices.shape))
    result = refine(noisy)
    assert result.converged
    assert result.final_residual <= 1e-12
    assert result.initial_residual > 1e-3
    np.testing.assert_allclose(edge_lengths(result.graph), 1.0, atol=1e-11)


def drawn(g: EmbeddedGraph, scale: float) -> EmbeddedGraph:
    """g drawn as segments at the given scale, then ingested."""
    segments = np.hstack([g.vertices[g.edges[:, 0]], g.vertices[g.edges[:, 1]]]) * scale
    return build_graph(SegmentFile({"name": g.name}, segments))


def test_refine_outputs_unit_one():
    result = refine(drawn(unit_triangle(), 43.77))
    np.testing.assert_allclose(edge_lengths(result.graph), 1.0, atol=1e-12)


def test_refine_preserves_combinatorics():
    g = triangle_strip(4)
    result = refine(replace(g, vertices=g.vertices + 0.01))
    np.testing.assert_array_equal(result.graph.edges, g.edges)
    assert result.graph.vertex_count == g.vertex_count


def test_refine_is_idempotent_at_convergence():
    rng = np.random.default_rng(11)
    g = triangle_strip(5)
    noisy = replace(g, vertices=g.vertices + rng.uniform(-0.01, 0.01, g.vertices.shape))
    first = refine(noisy)
    assert first.converged
    second = refine(first.graph)
    assert second.converged
    assert second.iterations == 0
    assert np.abs(second.graph.vertices - first.graph.vertices).max() <= 1e-12


def test_residual_never_increases():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = triangle_strip(int(rng.integers(2, 8)))
        noisy = replace(g, vertices=g.vertices + rng.uniform(-0.05, 0.05, g.vertices.shape))
        result = refine(noisy)
        assert result.final_residual <= result.initial_residual


def test_default_pins_fix_three_coordinates():
    g = triangle_strip(4)
    pins = default_pins(g)
    assert len(pins) == 3
    assert pins[0] == (0, 0) and pins[1] == (0, 1)
    assert pins[2][0] != 0


def test_zero_length_edge_rejected():
    g = EmbeddedGraph(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), ((0, 1), (1, 2)))
    with pytest.raises(ZeroLengthEdgeError):
        refine(g)


@pytest.mark.parametrize("max_iterations", [1, 2, 5, 25])
def test_nonconvergence_reports_last_iterate(max_iterations):
    # a unit triangle with an extra edge that cannot also be unit length
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2], [1.5, np.sqrt(3) / 2]])
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3))  # K4: not unit-realizable
    opts = RefineOptions(max_iterations=max_iterations)
    result = refine(EmbeddedGraph(coords, edges), opts)
    assert not result.converged
    assert 0 < result.iterations <= max_iterations  # may stall before the cap
    assert result.final_residual <= result.initial_residual
    assert np.isfinite(result.graph.vertices).all()
    # the residual reported is the returned graph's own
    assert result.final_residual == np.abs(edge_lengths(result.graph) - 1).max()


def test_options_validation():
    with pytest.raises(ValueError):
        RefineOptions(max_iterations=0)
    with pytest.raises(ValueError):
        RefineOptions(target_residual=-1.0)


def test_distance_constraint_flexes_rhombus():
    g = unit_rhombus()
    target = 1.2  # diagonal 0-2 is reachable by the one internal flex
    result = refine(g, distance_constraints=[(0, 2, target)])
    assert result.converged
    got = np.hypot(*(result.graph.vertices[0] - result.graph.vertices[2]))
    assert got == pytest.approx(target, abs=1e-11)
    np.testing.assert_allclose(edge_lengths(result.graph), 1.0, atol=1e-11)


def test_coincidence_constraints_bring_points_together_without_merging():
    tri = unit_triangle()
    shifted = tri.vertices + np.array([2.0, 0.3])
    union = EmbeddedGraph(
        np.vstack([tri.vertices, shifted]),
        ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
    )
    result = refine(union, coincidences=[(1, 3)])
    assert result.converged
    assert result.graph.vertex_count == 6  # refinement never merges indices
    gap = np.hypot(*(result.graph.vertices[1] - result.graph.vertices[3]))
    assert gap <= 1e-12
    np.testing.assert_allclose(edge_lengths(result.graph), 1.0, atol=1e-11)


def triangle_row(seed):
    """Three perturbed unit triangles in a row, each glued to the next at one vertex.

    Returns the union (9 vertices, nothing merged) and its two joints.
    """
    tri = unit_triangle().vertices
    coords = np.vstack([tri, tri + [1.0, 0.0], tri + [2.0, 0.0]])
    coords += np.random.default_rng(seed).uniform(-0.05, 0.05, coords.shape)
    edges = [(u + k, v + k) for k in (0, 3, 6) for u, v in unit_triangle().edges]
    return EmbeddedGraph(coords, tuple(edges)), [(1, 3), (4, 6)]


def test_glued_vertices_come_back_bit_identical():
    union, joints = triangle_row(7)
    result = refine(union, coincidences=joints)
    assert result.converged and result.iterations > 0
    for i, j in joints:
        assert np.array_equal(result.graph.vertices[i], result.graph.vertices[j])


def test_glue_solve_has_one_set_of_unknowns_per_joint(monkeypatch):
    sizes = []

    class Recording(_NormalEquations):
        def __init__(self, coords, links, free):
            super().__init__(coords, links, free)
            sizes.append(len(self.unknowns))

    monkeypatch.setattr(sys.modules[refine.__module__], "_NormalEquations", Recording)
    union, joints = triangle_row(8)
    pins = default_pins(union)
    assert refine(union, coincidences=joints).converged
    assert sizes == [2 * (union.vertex_count - len(joints)) - len(pins)]


def test_coincidence_pair_joined_by_an_edge_is_refused():
    # the edge would have to shrink to nothing, so no iteration can converge
    with pytest.raises(ZeroLengthEdgeError):
        refine(unit_triangle(), coincidences=[(0, 1)])


def test_degenerate_rows_are_named_by_kind_and_vertices():
    # the rhombus has edges 0-3 only; the distance constraint is row 4
    with pytest.raises(ZeroLengthEdgeError, match=r"^distance constraint 0 \(vertices 0, 2\) "):
        refine(unit_rhombus(), coincidences=[(0, 2)], distance_constraints=[(0, 2, 1.2)])
    with pytest.raises(ZeroLengthEdgeError, match=r"^edge 1 \(vertices 1, 2\) "):
        refine(unit_rhombus(), coincidences=[(1, 2)])


def test_refine_imports_numpy_only():
    # scipy.sparse alone would add ~0.2 s and ~20 MB to every use of the package,
    # and np.median (numpy.ma) and np.random (numpy.random, secrets, hashlib, the
    # Cython runtime) together ~30 ms and ~7 MB.  None of them may be loaded at
    # all, and after the imports no call on the certification path may load
    # another module.  The 40-spacer chain (215 vertices) takes the banded
    # rigidity path, the others the dense one.
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from matchsticks import cli, construct, corpus, rigidity
        from matchsticks.counting import theorem1_coverage
        from matchsticks.refine import refine
        from matchsticks.verify import min_clearances, verify_matchstick

        imported = set(sys.modules)
        g = refine(corpus.load_graph("fig2a")).graph
        assert verify_matchstick(g).is_matchstick and min(min_clearances(g)) > 0
        assert rigidity.analyze_rigidity(g).rigid
        parts = [construct.PartSpec(corpus.refined_graph(n)) for n in ("fig2a", "fig2b", "fig2c")]
        assert verify_matchstick(construct.realize(construct.ring_plan(parts))).is_matchstick
        ends = [construct.PartSpec(corpus.refined_graph(n)) for n in ("fig5a", "fig5c")]
        g = construct.chain_extend(construct.ChainSpec(*ends, 40))
        assert g.vertex_count >= rigidity._BANDED_FROM
        assert rigidity.analyze_rigidity(g).internal_flexes == 1
        assert theorem1_coverage(2000).complete
        library = set(sys.modules) - imported
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "fig2a"]) == 0
            assert cli.main(["construct", "chain", "fig5a", "fig5c", "--spacers", "20"]) == 0
        command_line = set(sys.modules) - imported - library
        heavy = [m for m in sys.modules if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])
                 or m.split(".")[0] == "scipy"]
        print(json.dumps([sorted(library), sorted(command_line), sorted(heavy)]))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(matchsticks.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    library, command_line, heavy = json.loads(out.stdout)
    assert library == [] and heavy == []
    # argparse translates its messages through gettext, which imports locale
    assert set(command_line) <= {"locale", "_locale"}


@pytest.mark.parametrize("unit", [1.0, 2.5])
def test_refining_a_refined_graph_returns_it_unchanged(unit):
    g = corpus.refined_graph("fig2a")
    ingested = drawn(g, unit)  # back in matchstick units, to rounding
    result = refine(ingested)
    assert result.iterations == 0 and result.converged
    assert result.final_residual == result.initial_residual <= 1e-12
    assert result.graph.name == g.name
    np.testing.assert_array_equal(result.graph.edges, g.edges)
    np.testing.assert_array_equal(result.graph.vertices, ingested.vertices)
    np.testing.assert_allclose(result.graph.vertices, g.vertices, atol=1e-12)


def test_converged_coincidences_still_come_back_as_one_point():
    # two copies a hair apart, glued at vertex 0: the residual already meets
    # the target, yet the glued pair must come back as one point
    g = corpus.refined_graph("fig2a")
    v = g.vertex_count
    union = EmbeddedGraph(
        np.vstack([g.vertices, g.vertices + [2.0**-45, 0.0]]),
        np.vstack([g.edges, g.edges + v]),
    )
    result = refine(union, coincidences=[(0, v)])
    assert result.iterations == 0 and result.converged
    assert not np.array_equal(union.vertices[0], union.vertices[v])
    assert np.array_equal(result.graph.vertices[0], result.graph.vertices[v])


def test_corpus_refines_fast_and_tight():
    for name in ("fig1a", "fig2a", "fig5b"):
        result = refine(corpus.load_graph(name))
        assert result.converged
        assert result.iterations <= 10
        assert result.final_residual <= 1e-12


# -- the banded solve against dense linear algebra ----------------------------


def solver_case(kind, n, seed, middle_pin, coincidence_count, distance_count):
    """A perturbed graph with pins, coincidences and distance constraints.

    Strips are long and thin, so their normal matrix splits into several
    blocks; random graphs are compact and give a single block.  Extra
    constraints join vertices a few steps apart along the strip.
    """
    rng = np.random.default_rng(seed)
    if kind == "strip":
        g = triangle_strip(n)
        g = replace(g, vertices=g.vertices + rng.uniform(-0.05, 0.05, g.vertices.shape))
    else:
        g = random_connected_graph(rng, n)
    v = g.vertex_count
    pins = default_pins(g)
    if middle_pin:
        pins += ((v // 2, 0), (v // 2, 1))
    starts = rng.integers(0, v - 3, size=coincidence_count + distance_count)
    coincidences = [(int(i), int(i) + 3) for i in starts[:coincidence_count]]
    distances = [
        (int(i), int(i) + 2, float(rng.uniform(0.8, 2.0))) for i in starts[coincidence_count:]
    ]
    return g, pins, coincidences, distances


def eliminated(g, pins, coincidences, distances):
    """The system refine solves, built here without its code.

    Each coincidence group merges at its members' average and takes one set
    of unknowns, its smallest member's; every row and pin moves to that
    member, and the other members' coordinates are not free.  Returns the
    merged coordinates, the relabelled links, their targets, the free mask
    and each vertex's representative.
    """
    v = g.vertex_count
    parent = list(range(v))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in coincidences:
        low, high = sorted((root(i), root(j)))
        parent[high] = low  # the smaller root stays, so roots are smallest members
    rep = np.array([root(i) for i in range(v)])
    coords = g.vertices.copy()
    for r in set(rep.tolist()):
        coords[rep == r] = coords[rep == r].mean(axis=0)
    links = rep[np.array(g.edges.tolist() + [(i, j) for i, j, _ in distances]).reshape(-1, 2)]
    targets = np.array([1.0] * g.edge_count + [t for _, _, t in distances])
    free = np.repeat(rep == np.arange(v), 2)
    for vi, ci in pins:
        free[2 * rep[vi] + ci] = False
    return coords, links, targets, free, rep


def dense_jacobian(coords, links):
    """One length row per link, 2v columns."""
    J = np.zeros((len(links), coords.size))
    for row, (i, j) in enumerate(links):
        u = (coords[i] - coords[j]) / np.hypot(*(coords[i] - coords[j]))
        J[row, 2 * i : 2 * i + 2] = u
        J[row, 2 * j : 2 * j + 2] = -u
    return J


def dense_first_step(g, pins, coincidences, distances, damping):
    """Coordinates after refine's first iteration, from dense linear algebra.

    Solves (J^T J + lam I) dx = -J^T r over the free coordinates of the
    eliminated system in their natural order, for the first damping
    lam = damping * 10^k whose step lowers the residual norm (None when no
    damping does), and gives every member its representative's position.
    """
    coords, links, targets, free, rep = eliminated(g, pins, coincidences, distances)

    def residual(c):
        return np.array([np.hypot(*(c[i] - c[j])) for i, j in links]) - targets

    J = dense_jacobian(coords, links)
    Jf, r = J[:, free], residual(coords)
    lam = damping
    while lam <= 1e14:
        dx = np.linalg.solve(Jf.T @ Jf + lam * np.eye(Jf.shape[1]), -Jf.T @ r)
        trial = coords.ravel().copy()
        trial[free] += dx
        trial = trial.reshape(-1, 2)
        if np.linalg.norm(residual(trial)) < np.linalg.norm(r):
            return trial[rep]
        lam *= 10
    return None


def joins_coincident_vertices(g, pins, coincidences, distances):
    links = eliminated(g, pins, coincidences, distances)[1]
    return bool(np.any(links[:, 0] == links[:, 1]))


SOLVER_EXAMPLES = [
    # (kind, n, seed, middle_pin, coincidences, distances)
    ("random", 6, 1, False, 1, 1),  # one block
    ("strip", 30, 2, True, 2, 1),  # several blocks, a pin mid-ordering
    ("strip", 33, 3, False, 0, 2),  # several blocks, the last one padded
]


def banded_system(g, pins, coincidences, distances):
    coords, links, _, free, _ = eliminated(g, pins, coincidences, distances)
    return _NormalEquations(coords, links, free)


def test_solver_examples_cover_block_layouts():
    one, pinned, padded = (banded_system(*solver_case(*case)) for case in SOLVER_EXAMPLES)
    assert one.count == 1
    assert pinned.count >= 3
    # the strip's middle vertex is pinned; its neighbour sits mid-way through the ordering
    mid = solver_case(*SOLVER_EXAMPLES[1])[0].vertex_count // 2
    vertices = list(pinned.unknowns // 2)
    assert mid not in vertices
    assert 0.3 < vertices.index(mid - 1) / len(vertices) < 0.7
    assert padded.count >= 3 and padded.count * padded.size > len(padded.unknowns)


@given(
    st.sampled_from(["strip", "random"]),
    st.integers(4, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([1e-4, 1e-2, 1.0]),
)
@example(*SOLVER_EXAMPLES[0], 1e-4)
@example(*SOLVER_EXAMPLES[1], 1e-4)
@example(*SOLVER_EXAMPLES[2], 1e-2)
@settings(max_examples=60)
def test_refine_step_matches_dense_normal_equations(
    kind, n, seed, middle_pin, coincidence_count, distance_count, damping
):
    if kind == "random":
        n = min(n, 9)
    g, pins, coincidences, distances = solver_case(
        kind, n, seed, middle_pin, coincidence_count, distance_count
    )
    opts = RefineOptions(max_iterations=1, pinned=pins)
    # the damping is a module constant; Hypothesis refuses function-scoped fixtures
    with mock.patch.object(refine_module, "_DAMPING", damping):
        if joins_coincident_vertices(g, pins, coincidences, distances):
            with pytest.raises(ZeroLengthEdgeError):
                refine(g, opts, coincidences, distances)
            return
        result = refine(g, opts, coincidences, distances)
    expected = dense_first_step(g, pins, coincidences, distances, damping)
    if expected is None:
        assert result.iterations == 0
        return
    assert result.iterations == 1
    start = g.vertices
    want, got = expected - start, result.graph.vertices - start
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


@given(
    st.sampled_from(["strip", "random"]),
    st.integers(4, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([-1.0, -0.05, 1e-8, 1.0]),
    st.sampled_from([None, 1, 5]),
)
@example(*SOLVER_EXAMPLES[1], -0.05, 5)
@example(*SOLVER_EXAMPLES[2], -1.0, None)  # padded last block, negative shift
# a degree-1 vertex makes J^T J - I singular; its first pivot is singular
@example("random", 9, 113861, True, 2, 0, -1.0, None)
# J^T J - I singular to rounding without a singular pivot: the factor counts
# an eigenvalue that eigvalsh puts at +1.9e-16 as negative
@example("random", 9, 3730109489, True, 1, 1, -1.0, None)
# J^T J - I with ten negative eigenvalues and a pivot of condition 1.8e5: a
# solve that reused the count's pivots as inverses missed the bound (8e-9)
@example("strip", 14, 4236441, False, 0, 0, -1.0, None)
@settings(max_examples=60)
def test_block_factor_matches_dense_linear_algebra(
    kind, n, seed, middle_pin, coincidence_count, distance_count, shift, columns
):
    if kind == "random":
        n = min(n, 9)
    case = solver_case(kind, n, seed, middle_pin, coincidence_count, distance_count)
    if joins_coincident_vertices(*case):
        return  # refine refuses these before it builds a system
    coords, links = eliminated(*case)[:2]
    system = banded_system(*case)
    system.assemble(coords, np.zeros(len(links)))
    J = dense_jacobian(coords, links)[:, system.unknowns]
    matrix = J.T @ J + shift * np.eye(J.shape[1])
    eigenvalues = np.linalg.eigvalsh(matrix)
    # an eigenvalue within rounding of zero may count either way
    rounding = len(matrix) * np.finfo(float).eps * np.abs(matrix).max()
    below, near = (int(np.count_nonzero(eigenvalues < t)) for t in (-rounding, rounding))
    factor = system.factor(shift)
    count = factor.negative_count()  # the inertia needs no solve first
    assert below <= count <= near
    rhs = np.random.default_rng(seed).standard_normal(
        (J.shape[1],) if columns is None else (J.shape[1], columns)
    )
    try:
        got = factor.solve(rhs)
    except np.linalg.LinAlgError:
        # a singular pivot: the count took eigenvalues within rounding of zero as non-negative
        assert count == below
        return
    assert got.shape == rhs.shape
    # a backward-error check: it holds however close to singular the matrix is
    scale = np.abs(matrix).max() * np.abs(got).max()
    np.testing.assert_allclose(matrix @ got, rhs, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("case", SOLVER_EXAMPLES, ids=["one-block", "several-blocks", "padded"])
@pytest.mark.parametrize("shift", [-1.0, 1e-8])
def test_block_factor_solves_alike_after_a_count(case, shift):
    # a count leaves the factor unsolved: the solve after it is a first solve
    case = solver_case(*case)
    coords, links = eliminated(*case)[:2]
    system = banded_system(*case)
    system.assemble(coords, np.zeros(len(links)))
    rhs = np.random.default_rng(0).standard_normal((len(system.unknowns), 3))
    counted = system.factor(shift)
    counted.negative_count()
    assert counted.solve(rhs).tobytes() == system.factor(shift).solve(rhs).tobytes()


@pytest.mark.parametrize("case", SOLVER_EXAMPLES, ids=["one-block", "several-blocks", "padded"])
@pytest.mark.parametrize("of_top, absolute", [(1e-8, 0.0), (0.0, 1.0)], ids=["1e-8-top", "1.0"])
@pytest.mark.parametrize("columns", [1, 8])
def test_block_factor_repeated_solves_match_dense_linear_algebra(case, of_top, absolute, columns):
    # solves after the first apply the pivots as inverse products; at a
    # positive shift their forward error stays within n * kappa * eps
    case = solver_case(*case)
    coords, links = eliminated(*case)[:2]
    system = banded_system(*case)
    system.assemble(coords, np.zeros(len(links)))
    J = dense_jacobian(coords, links)[:, system.unknowns]
    shift = of_top * (J.T @ J).diagonal().max() + absolute
    matrix = J.T @ J + shift * np.eye(J.shape[1])
    bound = len(matrix) * np.linalg.cond(matrix) * np.finfo(float).eps
    factor = system.factor(shift)
    rng = np.random.default_rng(columns)
    factor.solve(rng.standard_normal(len(matrix)))  # forms the pivots and gains
    for _ in range(3):
        rhs = rng.standard_normal((len(matrix), columns))
        want = np.linalg.solve(matrix, rhs)
        got = factor.solve(rhs)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=bound * np.abs(want).max())
