"""Composition planning, mirror doubling, and geometric realization."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import merged_vertex_count, triangle_strip, unit_triangle
from matchsticks import construct, corpus
from matchsticks.construct import (
    ChainSpec,
    CompositionPlan,
    PartSpec,
    PlanError,
    RealizationFailedError,
    chain_extend,
    chain_plan,
    degree2_vertices,
    mirror_double,
    plan_from_json,
    realize,
    ring_plan,
)
from matchsticks.ingest import build_graph, emit_segments, parse_segment_file
from matchsticks.model import EmbeddedGraph, degree_profile, edge_lengths
from matchsticks.pipeline import certify
from matchsticks.rigidity import analyze_rigidity
from matchsticks.verify import verify_matchstick


def certified(g: EmbeddedGraph) -> EmbeddedGraph:
    cert = certify(g)
    assert cert.certified, cert.verification.classification
    return cert.graph


def test_degree2_vertices_finds_ports():
    g = corpus.refined_graph("fig2a")
    ports = degree2_vertices(g)
    assert len(ports) == 2
    deg = g.degrees()
    assert all(deg[p] == 2 for p in ports)
    assert list(ports) == sorted(ports)


def test_ring_plan_arithmetic():
    part = PartSpec(corpus.refined_graph("fig2a"))
    plan = ring_plan([part] * 3)
    assert len(plan.parts) == 3
    assert len(plan.identifications) == 3
    assert merged_vertex_count(plan) == 22 * 3 - 3


def test_plan_validation_rejects_port_reuse():
    part = PartSpec(corpus.refined_graph("fig2a"))
    with pytest.raises(PlanError):
        CompositionPlan((part, part), ((0, 0, 1, 0), (0, 0, 1, 1)))


def test_plan_validation_rejects_bad_slot():
    part = PartSpec(corpus.refined_graph("fig2a"))
    with pytest.raises(PlanError):
        CompositionPlan((part, part), ((0, 2, 1, 0),))


def test_plan_validation_rejects_self_identification():
    part = PartSpec(corpus.refined_graph("fig2a"))
    with pytest.raises(PlanError):
        CompositionPlan((part,), ((0, 0, 0, 1),))


def test_plan_validation_rejects_disconnected_parts():
    part = PartSpec(corpus.refined_graph("fig2a"))
    with pytest.raises(PlanError):
        CompositionPlan((part, part, part, part), ((0, 0, 1, 0), (2, 0, 3, 0)))


def test_chain_spec_arithmetic():
    left = PartSpec(corpus.refined_graph("fig5a"))
    right = PartSpec(corpus.refined_graph("fig5c"))
    for n in range(6):
        assert merged_vertex_count(chain_plan(ChainSpec(left, right, n))) == 95 + 3 * n
    with pytest.raises(PlanError):
        ChainSpec(left, right, -1)


# -- mirror doubling ----------------------------------------------------------


def test_mirror_double_requires_degree2_join_vertices():
    g = corpus.refined_graph("fig2a")
    with pytest.raises(PlanError, match="join vertex 0 is not one of the degree-2 vertices"):
        mirror_double(g, 0, 1)  # generic interior vertices have degree 4
    ports = degree2_vertices(g)
    with pytest.raises(PlanError, match=f"join vertex {ports[0]} is passed twice"):
        mirror_double(g, ports[0], ports[0])


@pytest.mark.parametrize("bad", [22, 99, -1])
def test_mirror_double_rejects_join_vertices_out_of_range(bad):
    g = corpus.refined_graph("fig2a")  # 22 vertices
    port = degree2_vertices(g)[0]
    for a, b in ((port, bad), (bad, port)):
        with pytest.raises(PlanError, match=f"join vertex {bad} is not one of the degree-2"):
            mirror_double(g, a, b)


def two_triangles_meeting_on_their_axis() -> EmbeddedGraph:
    """Two unit triangles sharing vertex 2, which lies on the line through 0 and 3."""
    h = np.sqrt(3) / 2
    coords = np.array([[0.0, 0.0], [0.5, h], [1.0, 0.0], [2.0, 0.0], [1.5, h]])
    edges = ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
    return EmbeddedGraph(coords, edges, name="bowtie")


def test_mirror_double_puts_a_vertex_on_the_axis_onto_its_copy():
    doubled = mirror_double(two_triangles_meeting_on_their_axis(), 0, 3, "line")
    assert doubled.vertex_count == 8
    cert = certify(doubled)
    assert cert.refinement.converged and not cert.certified
    kinds = {kind for kind, *_ in cert.verification.clearance_violations}
    assert "vertex-vertex" in kinds


def test_mirror_double_mode_validated():
    g = corpus.refined_graph("fig2d")
    a, b = degree2_vertices(g)
    with pytest.raises(ValueError):
        mirror_double(g, a, b, "diagonal")


@pytest.mark.parametrize(
    "name,mode,expected",
    [("fig2d", "line", 66), ("fig2e", "line", 68), ("fig2f", "point", 70),
     ("fig2g", "line", 78), ("fig2h", "line", 80), ("fig5a", "line", 94),
     ("fig5c", "line", 96)],
)
def test_mirror_doubles_verify(name, mode, expected):
    g = corpus.refined_graph(name)
    a, b = degree2_vertices(g)
    doubled = certified(mirror_double(g, a, b, mode))
    assert doubled.vertex_count == expected
    assert doubled.edge_count == 2 * g.edge_count
    assert degree_profile(doubled) == {4: expected}


@pytest.mark.parametrize("mode", ["line", "point"])
def test_mirror_double_symmetry_permutation(mode):
    g = corpus.refined_graph("fig2d")
    a, b = degree2_vertices(g)
    doubled = mirror_double(g, a, b, mode)
    A, B = doubled.vertices[a], doubled.vertices[b]
    if mode == "line":
        u = (B - A) / np.hypot(*(B - A))
        rel = doubled.vertices - A
        along = (rel @ u)[:, None] * u
        image = A + 2 * along - rel
    else:
        image = (A + B) - doubled.vertices
    # every vertex's image is again a vertex; the pairing is an involution
    perm = []
    for p in image:
        dist = np.hypot(*(doubled.vertices - p).T)
        j = int(np.argmin(dist))
        assert dist[j] <= 1e-9
        perm.append(j)
    assert sorted(perm) == list(range(doubled.vertex_count))
    for i, j in enumerate(perm):
        assert perm[j] == i
    if mode == "line":
        assert perm[a] == a and perm[b] == b
    else:
        assert perm[a] == b and perm[b] == a


# -- realization --------------------------------------------------------------


def test_ring_of_three_identical_parts():
    part = PartSpec(corpus.refined_graph("fig2a"))
    g = certified(realize(ring_plan([part] * 3)))
    assert g.vertex_count == 63
    assert g.edge_count == 3 * 42
    assert degree_profile(g) == {4: 63}


def test_ring_of_three_mixed_parts():
    parts = [PartSpec(corpus.refined_graph(n)) for n in ("fig2a", "fig2b", "fig2c")]
    g = certified(realize(ring_plan(parts)))
    assert g.vertex_count == 22 + 30 + 31 - 3


def test_ring_of_four():
    part = PartSpec(corpus.refined_graph("fig2b"))
    g = certified(realize(ring_plan([part] * 4)))
    assert g.vertex_count == 116


def test_facing_pair_of_flexible_parts():
    pair = ring_plan(
        [PartSpec(corpus.refined_graph("fig5a")), PartSpec(corpus.refined_graph("fig5c"))]
    )
    g = certified(realize(pair))
    assert g.vertex_count == 95


def test_realize_merges_vertices_but_never_edges():
    part = PartSpec(corpus.refined_graph("fig2a"))
    plan = ring_plan([part] * 3)
    g = realize(plan)
    assert g.vertex_count == merged_vertex_count(plan)
    assert g.edge_count == sum(p.graph.edge_count for p in plan.parts)


def test_ring_of_unit_triangles_leaves_spare_ports():
    tri = PartSpec(unit_triangle())
    g = certified(realize(ring_plan([tri] * 3)))
    assert g.vertex_count == 6
    assert degree_profile(g) == {2: 3, 4: 3}


def test_rigid_pair_with_mismatched_gaps_fails():
    pair = ring_plan(
        [PartSpec(corpus.refined_graph("fig2a")), PartSpec(corpus.refined_graph("fig2b"))]
    )
    with pytest.raises(RealizationFailedError):
        realize(pair)


def test_plan_neither_cycle_nor_chain_fails():
    # one joint per part, but the spacer takes three of them: no single cycle
    spacer, part = corpus.refined_graph("fig5b"), corpus.refined_graph("fig2a")
    idents = ((0, 0, 1, 0), (0, 1, 2, 0), (0, 2, 3, 0), (1, 1, 2, 1))
    plan = CompositionPlan((PartSpec(spacer),) + (PartSpec(part),) * 3, idents)
    with pytest.raises(PlanError, match="unsupported plan topology"):
        realize(plan)


def test_cycle_violating_triangle_inequality_fails():
    long_part = PartSpec(triangle_strip(8))  # port gap about 4.58
    tri = PartSpec(unit_triangle())
    with pytest.raises(RealizationFailedError, match="cycle cannot close"):
        realize(ring_plan([long_part, tri, tri]))


def test_cycle_layout_places_a_circumcentre_outside_the_polygon():
    # 2 max < sum, so the cycle closes; the long side's circumcentre lies
    # outside the polygon, so that side takes the reflex central angle.  The
    # ring realizes, but its triangles overlap the strip
    strip, tri = PartSpec(triangle_strip(4)), PartSpec(unit_triangle())
    g = realize(ring_plan([strip, tri, tri, tri]))
    assert (g.vertex_count, g.edge_count) == (11, 18)
    assert np.abs(edge_lengths(g) - 1).max() < 1e-12
    assert verify_matchstick(g).classification == "not-a-matchstick-graph"


def test_cycle_layout_closes_every_closable_polygon():
    # random 4-9-gons, a third of them near-degenerate: the longest side falls
    # short of the others' sum by 1e-6 to 1e-1 of it, and the centre lies
    # outside, often beyond the sum of the sides
    rng = np.random.default_rng(7)
    outside = beyond = 0
    for trial in range(600):
        d = rng.uniform(0.05, 5.0, int(rng.integers(4, 10)))
        if trial % 3 == 0:
            i = int(rng.integers(len(d)))
            d[i] = (d.sum() - d[i]) * (1 - 10.0 ** rng.uniform(-6, -1))
        if 2 * d.max() >= d.sum():
            continue
        polygon = construct._closed_polygon(d.tolist())
        edges = np.roll(polygon, -1, axis=0) - polygon
        np.testing.assert_allclose(np.hypot(*edges.T), d, rtol=0, atol=1e-11 * d.max())
        assert np.sum(polygon[:, 0] * edges[:, 1] - polygon[:, 1] * edges[:, 0]) > 0  # ccw
        outside += np.arcsin(d / d.max()).sum() < np.pi
        beyond += np.hypot(*polygon[0]) > d.sum()
    assert outside > 100 and beyond > 50


# -- chains -------------------------------------------------------------------


def test_chain_with_one_spacer():
    g5a = corpus.refined_graph("fig5a")
    g = certified(chain_extend(ChainSpec(PartSpec(g5a), PartSpec(g5a), 1)))
    assert g.vertex_count == 97
    assert degree_profile(g) == {4: 97}


def test_chain_with_zero_spacers_is_a_facing_pair():
    g5a = corpus.refined_graph("fig5a")
    g = certified(chain_extend(ChainSpec(PartSpec(g5a), PartSpec(g5a), 0)))
    assert g.vertex_count == 94


@pytest.mark.parametrize("n,expected", [(2, 100), (3, 103)])
def test_longer_chains(n, expected):
    g5a = corpus.refined_graph("fig5a")
    g = certified(chain_extend(ChainSpec(PartSpec(g5a), PartSpec(g5a), n)))
    assert g.vertex_count == expected


def test_long_chain_glues_to_unit_edges():
    # 1,597 vertices before merging: the glue solve must stay banded to be quick
    spec = ChainSpec(
        PartSpec(corpus.refined_graph("fig5a")), PartSpec(corpus.refined_graph("fig5c")), 300
    )
    g = realize(chain_plan(spec))
    assert g.vertex_count == 995
    assert np.abs(edge_lengths(g) - 1.0).max() <= 1e-12


def mirror_of_fig2d(mode: str) -> EmbeddedGraph:
    g = corpus.refined_graph("fig2d")
    return mirror_double(g, *degree2_vertices(g), mode)


@pytest.mark.parametrize(
    "build, vertices",
    [
        (lambda: realize(ring_plan([PartSpec(corpus.refined_graph(n))
                                    for n in ("fig2a", "fig2d", "fig2h")])), 94),
        (lambda: realize(ring_plan([PartSpec(corpus.load_graph("fig2b"))] * 4)), 116),  # as drawn
        (lambda: realize(ring_plan([PartSpec(corpus.refined_graph("fig5a")),
                                    PartSpec(corpus.refined_graph("fig5c"))])), 95),
        (lambda: chain_extend(end_spec("fig5a", "fig5c", 20)), 155),  # the base alone
        (lambda: mirror_of_fig2d("line"), 66),
        (lambda: mirror_of_fig2d("point"), 66),
    ],
    ids=["ring", "raw-ring-of-four", "facing-pair", "chain-base", "mirror-line", "mirror-point"],
)
def test_realize_makes_one_refine_call_the_glue_solve(monkeypatch, build, vertices):
    calls = []
    real_refine = construct.refine

    def recording_refine(g, opts=construct.RefineOptions(), coincidences=(),
                         distance_constraints=()):
        calls.append((len(coincidences), len(distance_constraints)))
        return real_refine(g, opts, coincidences, distance_constraints)

    monkeypatch.setattr(construct, "refine", recording_refine)
    assert build().vertex_count == vertices
    # parts go in as given: no refine of a part, only the solve that closes the joints
    assert len(calls) == 1
    (glued, constrained), = calls
    assert glued > 0 and constrained == 0


CHAIN_ENDS = [("fig5a", "fig5a"), ("fig5a", "fig5c"), ("fig5c", "fig5c")]


def end_spec(left: str, right: str, n: int) -> ChainSpec:
    return ChainSpec(PartSpec(corpus.refined_graph(left)), PartSpec(corpus.refined_graph(right)), n)


def assert_tiled_like_solved(spec: ChainSpec) -> None:
    tiled, solved = chain_extend(spec), realize(chain_plan(spec))
    assert (tiled.name, tiled.vertex_count) == (solved.name, solved.vertex_count)
    np.testing.assert_array_equal(tiled.edges, solved.edges)
    assert np.abs(edge_lengths(tiled) - 1.0).max() <= 1e-12
    assert verify_matchstick(tiled).classification == verify_matchstick(solved).classification
    verdicts = [analyze_rigidity(g) for g in (tiled, solved)]
    assert len({(r.rank, r.internal_flexes, r.classification) for r in verdicts}) == 1


@pytest.mark.parametrize("n", [6, 7, 20, 21, 150])
@pytest.mark.parametrize("left,right", CHAIN_ENDS)
def test_tiled_chain_matches_the_glue_solved_chain(left, right, n):
    assert_tiled_like_solved(end_spec(left, right, n))


def test_tiled_chain_keeps_a_reflected_end_and_a_given_spacer():
    g5a = corpus.refined_graph("fig5a")
    reflected = replace(g5a, vertices=g5a.vertices * [1.0, -1.0])
    spacer = corpus.load_graph("fig5b")  # as drawn: the glue solve polishes it
    assert_tiled_like_solved(ChainSpec(PartSpec(g5a), PartSpec(reflected), 21, spacer))


@pytest.mark.parametrize("left,right", CHAIN_ENDS)
def test_long_chains_glue_solve_only_their_base(monkeypatch, left, right):
    glued = []
    real_refine = construct.refine

    def recording_refine(g, opts=construct.RefineOptions(), coincidences=(),
                         distance_constraints=()):
        if len(coincidences):
            glued.append(len(coincidences))
        return real_refine(g, opts, coincidences, distance_constraints)

    monkeypatch.setattr(construct, "refine", recording_refine)
    for n in (20, 150, 3000):
        spec = end_spec(left, right, n)
        g = chain_extend(spec)
        assert g.vertex_count == merged_vertex_count(chain_plan(spec))
        assert np.abs(edge_lengths(g) - 1.0).max() <= 1e-12
    # two ports at each of the 4-spacer base's 5 joints; a fallback would glue all n + 1
    assert glued == [10, 10, 10]


def test_tiling_polishes_a_chain_whose_base_is_off(monkeypatch):
    spec = end_spec("fig5a", "fig5c", 20)
    solved = []
    real_realize = construct.realize

    def perturbed_realize(plan):
        solved.append(len(plan.parts) - 2)
        g = real_realize(plan)
        if len(solved) == 1:  # the base: move a vertex of its repeated block
            coords = g.vertices.copy()
            coords[spec.left.graph.vertex_count + 3, 0] += 1e-9
            g = replace(g, vertices=coords)
        return g

    monkeypatch.setattr(construct, "realize", perturbed_realize)
    g = chain_extend(spec)
    expected = real_realize(chain_plan(spec))
    assert solved == [4]
    assert g.name == expected.name
    np.testing.assert_array_equal(g.edges, expected.edges)
    assert np.abs(edge_lengths(g) - 1.0).max() <= 1e-12


def test_a_short_tiled_chain_that_misses_is_polished_not_solved_whole(monkeypatch):
    # the 5-spacer base tiled to 7 spacers misses the target by rounding alone
    solved = []
    real_realize = construct.realize

    def recording_realize(plan):
        solved.append(len(plan.parts) - 2)
        return real_realize(plan)

    monkeypatch.setattr(construct, "realize", recording_realize)
    spec = end_spec("fig5a", "fig5c", 7)
    g = chain_extend(spec)
    assert solved == [5]
    assert g.vertex_count == merged_vertex_count(chain_plan(spec))
    assert np.abs(edge_lengths(g) - 1.0).max() <= 1e-12


def test_a_tiled_chain_whose_polish_fails_is_a_realization_failure(monkeypatch):
    # the 7-spacer tiling misses the target by rounding and is polished (above)
    real_refine = construct.refine

    def unconverged(g, opts=construct.RefineOptions(), coincidences=(), distance_constraints=()):
        result = real_refine(g, opts, coincidences, distance_constraints)
        return result if len(coincidences) else replace(result, converged=False)

    monkeypatch.setattr(construct, "refine", unconverged)
    with pytest.raises(RealizationFailedError, match=r"^tiled chain did not polish \(edge residual "):
        chain_extend(end_spec("fig5a", "fig5c", 7))


def test_a_ten_thousand_spacer_chain_is_polished_about_its_centroid():
    # tiled from x = 0, its coordinates reach about 1e4, where float64 rounding
    # alone leaves edges about 2e-12 off unit length; centred, the polish converges
    spec = end_spec("fig5c", "fig5c", 10_000)
    g = chain_extend(spec)
    assert g.vertex_count == merged_vertex_count(chain_plan(spec)) == 30_096
    assert np.abs(edge_lengths(g) - 1.0).max() <= 1e-12


def test_chain_rejects_non_spacer_interior():
    g5a = corpus.refined_graph("fig5a")
    with pytest.raises(PlanError):
        chain_plan(ChainSpec(PartSpec(g5a), PartSpec(g5a), 1, spacer=unit_triangle()))


def test_chain_layout_ignores_the_order_and_direction_of_identifications():
    plan = chain_plan(end_spec("fig5a", "fig5c", 4))
    flipped = tuple((b, sb, a, sa) for a, sa, b, sb in reversed(plan.identifications))
    g = realize(plan)
    h = realize(CompositionPlan(plan.parts, flipped, plan.name))
    assert g.name == h.name
    np.testing.assert_array_equal(g.edges, h.edges)
    assert np.abs(g.vertices - h.vertices).max() <= 1e-12


def spacer_entered_through_one_triangle() -> CompositionPlan:
    g5a, spacer = corpus.refined_graph("fig5a"), corpus.refined_graph("fig5b")
    ports = degree2_vertices(spacer)
    hub = int(np.argmax(spacer.degrees()))
    triangles = sorted(edge for edge in spacer.edges.tolist() if hub not in edge)  # port to port
    p, q, r, s = (ports.index(v) for edge in triangles for v in edge)
    idents = ((0, 0, 1, p), (0, 1, 1, q), (1, r, 2, 0), (1, s, 2, 1))
    return CompositionPlan((PartSpec(g5a), PartSpec(spacer), PartSpec(g5a)), idents)


def ring_left_open() -> CompositionPlan:
    part = PartSpec(corpus.refined_graph("fig2a"))
    return CompositionPlan((part,) * 3, ((0, 1, 1, 0), (1, 1, 2, 0)))


def ring_of_spacers() -> CompositionPlan:
    spacer = PartSpec(corpus.refined_graph("fig5b"))
    idents = tuple(
        (i, exit_slot, (i + 1) % 3, entry_slot)
        for i in range(3)
        for exit_slot, entry_slot in ((2, 0), (3, 1))
    )
    return CompositionPlan((spacer,) * 3, idents)


@pytest.mark.parametrize(
    "make_plan, message",
    [
        (spacer_entered_through_one_triangle, "chain joints do not respect spacer port pairs"),
        (ring_left_open, "chain neighbors must share exactly two joints"),
        (ring_of_spacers, "cycle neighbors must share exactly one joint"),
    ],
)
def test_layout_rejects_joints_it_cannot_place(make_plan, message):
    with pytest.raises(PlanError, match=message):
        realize(make_plan())


def test_chain_plan_structure():
    g5a = corpus.refined_graph("fig5a")
    plan = chain_plan(ChainSpec(PartSpec(g5a), PartSpec(g5a), 2))
    assert len(plan.parts) == 4
    assert len(plan.identifications) == 2 * 3
    assert merged_vertex_count(plan) == 100


def mirror_plan(monkeypatch, g, a, b, mode):
    """The plan ``mirror_double`` hands to ``realize``."""
    plans = []
    monkeypatch.setattr(construct, "realize", plans.append)
    mirror_double(g, a, b, mode)
    (plan,) = plans
    return plan


@pytest.mark.parametrize("kind", ["ring", "chain", "mirror-line", "mirror-point"])
def test_plan_resolves_each_slot_to_its_degree2_vertex(kind, monkeypatch):
    g2a, g5c = corpus.refined_graph("fig2a"), corpus.refined_graph("fig5c")
    a, b = degree2_vertices(g2a)
    ring_parts = [PartSpec(corpus.refined_graph(n)) for n in ("fig2a", "fig2d", "fig2h")]
    plan = {
        "ring": lambda: ring_plan(ring_parts),
        "chain": lambda: chain_plan(ChainSpec(PartSpec(g5c), PartSpec(g2a), 3)),
        "mirror-line": lambda: mirror_plan(monkeypatch, g2a, a, b, "line"),
        "mirror-point": lambda: mirror_plan(monkeypatch, g2a, a, b, "point"),
    }[kind]()
    assert len(plan.vertex_identifications) == len(plan.identifications)
    for slots, vertices in zip(plan.identifications, plan.vertex_identifications):
        assert vertices[::2] == slots[::2]  # the same two parts
        for part, slot, vertex in zip(slots[::2], slots[1::2], vertices[1::2]):
            g = plan.parts[part].graph
            assert g.degrees()[vertex] == 2
            assert vertex == degree2_vertices(g)[slot]
    if kind.startswith("mirror"):
        copies = (a, b) if kind == "mirror-line" else (b, a)
        assert plan.vertex_identifications == ((0, a, 1, copies[0]), (0, b, 1, copies[1]))


# -- plan serialization -------------------------------------------------------


def test_plan_json_reads_a_ring_plan():
    plan = replace(ring_plan([PartSpec(corpus.refined_graph("fig2a"), label="fig2a")] * 3),
                   name="r63")
    doc = {
        "name": "r63",
        "parts": [{"part": "fig2a"}, "fig2a", {"part": "fig2a"}],
        "identifications": [list(ident) for ident in plan.identifications],
    }
    restored = plan_from_json(json.dumps(doc), corpus.refined_graph)
    assert restored.name == "r63"
    assert restored.identifications == plan.identifications
    assert [spec.label for spec in restored.parts] == ["fig2a"] * 3
    g = certified(realize(restored))
    assert g.vertex_count == 63


def test_plan_json_part_files_are_refined_by_realize(tmp_path):
    path = tmp_path / "part.seg"
    path.write_text(emit_segments(corpus.load_graph("fig2a")))
    doc = {"parts": [str(path)] * 3, "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]]}
    plan = plan_from_json(
        json.dumps(doc), lambda ref: build_graph(parse_segment_file(Path(ref).read_text()))
    )
    part = plan.parts[0].graph
    assert np.abs(edge_lengths(part) - 1.0).max() > 1e-6  # resolved as drawn, not refined
    assert certified(realize(plan)).vertex_count == 63


def test_plan_json_rejects_malformed_documents():
    with pytest.raises(PlanError):
        plan_from_json("{}", corpus.refined_graph)


# a ring of three fig2a whose first identification is filled in per case
RING3_JSON = (
    '{"parts": ["fig2a", "fig2a", "fig2a"], "identifications": [%s, [1, 1, 2, 0], [2, 1, 0, 0]]}'
)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"parts": [1, 2], "identifications": []}',
        '{"parts": [{"reflect": true}], "identifications": []}',
        '{"parts": [{"part": 7}], "identifications": []}',
        '{"parts": ["fig2a"], "identifications": 5}',
        '{"parts": ["fig2a"], "identifications": [[0, "x", 0, 1]]}',
        '{"parts": [{"part": "fig2a", "reflect": "false"}], "identifications": []}',
        '{"parts": [{"part": "fig2a", "reflect": 0}], "identifications": []}',
        '{"parts": ["fig2a"], "identifications": [], "name": 5}',
        '{"parts": ["fig2a"], "identifications": [], "name": ["r"]}',
        RING3_JSON % "[0, 1.9, 1, 0]",
        RING3_JSON % "[0, true, 1, 0]",
        RING3_JSON % "[0, 1, 1]",
        RING3_JSON % "[0, 1, 1, 0, 0]",
        RING3_JSON % '"0110"',
        RING3_JSON % '{"0": 0}',
        pytest.param("[" * 200000, id="deeply-nested-plan"),
    ],
)
def test_plan_json_rejects_documents_of_the_wrong_shape(text):
    with pytest.raises(PlanError):
        plan_from_json(text, corpus.refined_graph)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"parts": [{"part": "fig2a", "reflect": false}], "identifications": []}',
         "part 'fig2a': unknown key(s) 'reflect'"),
        ('{"parts": ["fig2a"], "identifications": [], "mirror": true, "Name": "r"}',
         "plan document: unknown key(s) 'Name', 'mirror'"),
    ],
    ids=["part-key", "document-key"],
)
def test_plan_json_names_the_keys_it_does_not_know(text, message):
    with pytest.raises(PlanError) as excinfo:
        plan_from_json(text, corpus.refined_graph)
    assert str(excinfo.value) == message


def test_realized_graph_is_named_after_the_plan():
    part = PartSpec(corpus.refined_graph("fig2a"), label="fig2a")
    g = realize(ring_plan([part] * 3))
    assert g.name == "ring(fig2a,fig2a,fig2a)"
