"""Segment file parsing, endpoint merging, and the bundled corpus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import turned_upright
from matchsticks import corpus
from matchsticks.ingest import (
    AmbiguousMergeError,
    DegenerateSegmentError,
    SegmentFile,
    SegmentFileError,
    build_graph,
    emit_segments,
    estimate_unit,
    graph_from_text,
    max_unit_deviation,
    parse_segment_file,
)
from matchsticks.model import EmbeddedGraph, degree_profile, edge_lengths

GOOD = """\
# a unit square
! name square
! claimed_vertices 4
! claimed_profile (2,4)-regular
! claimed_rigidity flexible
0 0 1 0
1 0 1 1
1 1 0 1
0 1 0 0
"""


def test_parse_reads_metadata_and_segments():
    sf = parse_segment_file(GOOD)
    assert sf.metadata["name"] == "square"
    assert sf.metadata["claimed_vertices"] == 4
    assert sf.metadata["claimed_rigidity"] == "flexible"
    assert sf.segments.shape == (4, 4)
    assert not sf.segments.flags.writeable


def test_parse_requires_name():
    with pytest.raises(SegmentFileError):
        parse_segment_file("0 0 1 0\n")


@pytest.mark.parametrize(
    "line",
    [
        "! colour blue",
        "! claimed_vertices four",
        "! claimed_profile pentagonal",
        "! claimed_rigidity wobbly",
        "0 0 1",
        "0 0 1 zero",
    ],
)
def test_parse_rejects_bad_lines_with_line_number(line):
    text = "! name bad\n" + line + "\n0 0 1 0\n"
    with pytest.raises(SegmentFileError) as exc_info:
        parse_segment_file(text)
    assert "line 2" in str(exc_info.value)


def test_build_graph_merges_square():
    g = graph_from_text(GOOD)
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert degree_profile(g) == {2: 4}


def test_build_graph_merges_jittered_endpoints():
    rng = np.random.default_rng(7)
    sf = parse_segment_file(GOOD)
    noisy = sf.segments + rng.uniform(-2e-3, 2e-3, size=sf.segments.shape)
    sf2 = parse_segment_file(
        "! name noisy\n" + "\n".join(" ".join(f"{x:.7f}" for x in row) for row in noisy)
    )
    g = build_graph(sf2)
    assert g.vertex_count == 4
    assert g.edge_count == 4


def test_vertex_order_is_first_appearance():
    g = graph_from_text(GOOD)
    np.testing.assert_allclose(g.vertices[0], [0, 0], atol=2e-2)
    np.testing.assert_allclose(g.vertices[1], [1, 0], atol=2e-2)


def test_ambiguous_merge_when_clusters_almost_touch():
    # two endpoint clusters 1.5 eps apart: merged or not depending on hashing,
    # so the builder must refuse
    text = "! name ambiguous\n0 0 1 0\n0 0.015 1 1\n"
    with pytest.raises(AmbiguousMergeError):
        build_graph(parse_segment_file(text))


def test_ambiguous_merge_when_unit_close_to_epsilon():
    text = "! name tiny\n0 0 0.05 0\n0.05 0 0.05 0.05\n"
    with pytest.raises(AmbiguousMergeError):
        build_graph(parse_segment_file(text))


def test_degenerate_segment_rejected():
    text = "! name degenerate\n0 0 1 0\n2 2 2.001 2\n"
    with pytest.raises(DegenerateSegmentError):
        build_graph(parse_segment_file(text))


def test_duplicate_segments_collapse_to_one_edge():
    text = "! name doubled\n0 0 1 0\n0.001 0 1.001 0\n"
    g = build_graph(parse_segment_file(text))
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_estimate_unit_is_median_length():
    segments = np.array([[0, 0, 1, 0], [0, 0, 0, 2], [0, 0, 3, 0]], dtype=float)
    assert estimate_unit(segments) == pytest.approx(2.0)
    # relative to the unit: lengths (1, 2, 3) deviate by at most half a unit
    assert max_unit_deviation(segments) == pytest.approx(0.5)


def test_estimate_unit_equals_np_median_exactly():
    rng = np.random.default_rng(7)
    for count in range(1, 201):  # odd and even counts
        # rows drawn with replacement from a smaller pool repeat lengths exactly
        pool = rng.uniform(-3.0, 3.0, (count // 3 + 1, 4))
        segments = pool[rng.integers(0, len(pool), count)]
        lengths = np.hypot(segments[:, 2] - segments[:, 0], segments[:, 3] - segments[:, 1])
        assert estimate_unit(segments) == float(np.median(lengths)), count
    assert np.isnan(estimate_unit([[0, 0, 1, 0], [np.nan, 0, 0, 0], [0, 0, 2, 0]]))


@st.composite
def spread_graphs(draw):
    """Graphs whose vertices stay far apart relative to the merge radius."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=2, max_value=9))
    grid = [(i, j) for i in range(4) for j in range(4)]
    picks = rng.choice(len(grid), size=n, replace=False)
    coords = np.array([grid[i] for i in picks], dtype=float)
    coords += rng.uniform(-0.2, 0.2, size=coords.shape)
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(3):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return EmbeddedGraph(coords, tuple(sorted(edges)), name="roundtrip")


@given(spread_graphs())
@settings(max_examples=60)
def test_emit_then_build_round_trips(g):
    rebuilt = graph_from_text(emit_segments(g))
    assert rebuilt.vertex_count == g.vertex_count
    assert rebuilt.edge_count == g.edge_count
    assert degree_profile(rebuilt) == degree_profile(g)


def test_emit_records_name():
    g = graph_from_text(GOOD)
    assert "! name square" in emit_segments(g)


# -- clustering against a cell-loop reference ----------------------------------


def cell_loop_build_graph(sf: SegmentFile, eps: float) -> EmbeddedGraph:
    """Reference for ``build_graph``: a dict of eps-wide cells, union-find, dense check.

    Endpoints within eps (``hypot``) of each other are unioned, each union
    rooted at the smaller index; vertices are cluster centroids summed in
    endpoint order and numbered by first appearance along the segment list;
    any two centroids closer than 2 eps (all v x v distances) are ambiguous;
    the graph comes back divided by the median segment length.
    """
    segs = sf.segments
    unit = estimate_unit(segs)
    if not eps < 0.1 * unit:
        raise AmbiguousMergeError(f"merge radius {eps} is not small against the unit {unit:.6g}")
    points = np.concatenate([segs[:, 0:2], segs[:, 2:4]])
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    cells = {}
    for i, key in enumerate(np.floor(points / eps).astype(np.int64).tolist()):
        cells.setdefault(tuple(key), []).append(i)
    for (cx, cy), members in cells.items():
        near = [
            j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in cells.get((cx + dx, cy + dy), ())
        ]
        for i in members:
            for j in near:
                if j > i and np.hypot(*(points[i] - points[j])) <= eps:
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)
    labels = [find(i) for i in range(len(points))]

    order = {}
    for s in range(len(segs)):
        for label in (labels[s], labels[s + len(segs)]):
            order.setdefault(label, len(order))
    centroids = np.zeros((len(order), 2))
    counts = np.zeros(len(order))
    for point, label in zip(points, labels):
        centroids[order[label]] += point
        counts[order[label]] += 1
    centroids /= counts[:, None]
    if len(centroids) > 1:
        diff = centroids[:, None, :] - centroids[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        mind = float(dist.min())
        if mind < 2 * eps:
            raise AmbiguousMergeError(
                f"two merged vertices are only {mind:.6g} apart "
                f"(< 2 x merge radius = {2 * eps:.6g})"
            )
    edges = []
    for s in range(len(segs)):
        u, v = order[labels[s]], order[labels[s + len(segs)]]
        if u == v:
            raise DegenerateSegmentError(f"segment {s} endpoints merged into vertex {u}")
        if (min(u, v), max(u, v)) not in edges:
            edges.append((min(u, v), max(u, v)))
    return EmbeddedGraph(centroids / unit, tuple(edges), name=str(sf.metadata["name"]))


def build_outcome(build, sf: SegmentFile):
    try:
        g = build(sf)
    except (AmbiguousMergeError, DegenerateSegmentError) as exc:
        return type(exc).__name__, str(exc)
    return g.vertices.tobytes(), g.edges.tolist()


def drawing(segments, eps: float = 1e-2):
    """Segments drawn for a merge radius of eps, scaled to the radius of 0.01."""
    return SegmentFile({"name": "drawing"}, np.array(segments, dtype=float) * (1e-2 / eps))


@st.composite
def merge_drawings(draw):
    """Drawings whose endpoints scatter around their vertices by about a merge radius eps.

    ``spread`` scales each endpoint's offset so that endpoints of one vertex
    end up just inside or just outside eps of each other; ``snap`` puts the
    vertices on multiples of eps, so their endpoints straddle cell
    boundaries; ``chain`` adds segments whose starts step 0.9 eps apart (a
    transitive cluster); ``near_miss`` adds a cluster 1-2.2 eps from a vertex
    (ambiguous); ``loop`` adds a segment from a vertex to itself (degenerate).
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    eps = draw(st.sampled_from([5e-3, 1e-2, 2e-2]))
    spread = draw(st.sampled_from([0.0, 0.2, 0.45, 0.6, 0.7, 1.0, 1.3]))
    snap, near_miss, loop = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    chain = draw(st.integers(min_value=0, max_value=6))
    n = int(rng.integers(2, 10))
    spots = rng.choice(36, size=n, replace=False)
    vertices = np.column_stack([spots // 6, spots % 6]) + rng.uniform(-0.2, 0.2, (n, 2))
    if snap:
        vertices = np.round(vertices / eps) * eps
    ends = rng.integers(0, n, size=(int(rng.integers(1, 16)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    ends = np.vstack([[[0, 1]], ends] + ([[[1, 1]]] if loop else []))
    segments = vertices[ends].reshape(-1, 4)
    segments += rng.uniform(-1, 1, segments.shape) * spread * eps / 2
    x, y = vertices[0]
    steps = 0.9 * eps * np.arange(1, chain + 1)
    extra = [[x + t, y, x + 1 + t, y + 0.5] for t in steps]
    if near_miss:
        d = rng.uniform(1.0, 2.2) * eps
        extra.append([x + d, y, x + d + 1, y + 0.3])
    return drawing(np.vstack([segments] + extra if extra else [segments]), eps)


@given(merge_drawings())
@example(drawing([[0, 0, 1, 0], [2, 2, 2.001, 2]]))  # degenerate
@example(drawing([[0, 0, 1, 0], [0, 0.015, 1, 1]]))  # ambiguous
# endpoints straddling the cell boundaries at multiples of 0.01
@example(drawing([[0.009, 0, 1, 0], [0.0101, 0.5, 0.0099, 1.5], [0.02, 0.001, 1, 0.7]]))
@example(drawing([[0.009 * k, 0, 1 + 0.009 * k, 1] for k in range(6)]))  # transitive chains
@settings(max_examples=300)
def test_build_graph_matches_cell_loop_reference(sf):
    expected = build_outcome(lambda sf: cell_loop_build_graph(sf, 1e-2), sf)
    assert build_outcome(build_graph, sf) == expected


# -- bundled corpus -----------------------------------------------------------


def test_corpus_has_twenty_one_graphs():
    assert len(corpus.corpus_names()) == 21


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_matches_claimed_metadata(name):
    sf = corpus.load_segments(name)
    g = corpus.load_graph(name)
    assert g.vertex_count == sf.metadata["claimed_vertices"]
    degrees = set(degree_profile(g))
    if sf.metadata["claimed_profile"] == "4-regular":
        assert degrees == {4}
    else:
        assert degrees == {2, 4}


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_drawings_are_unit_accurate_to_1e3(name):
    sf = corpus.load_segments(name)
    assert max_unit_deviation(sf.segments) <= 1e-3


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_graphs_load_in_matchstick_units(name):
    # merged endpoints move the vertices off the drawn ones by less than 1e-6
    assert np.median(edge_lengths(corpus.load_graph(name))) == pytest.approx(1.0, abs=1e-6)


def test_fig1a_drawing_unit():
    # median of the 104 segment lengths in the fig1a drawing
    unit = estimate_unit(corpus.load_segments("fig1a").segments)
    assert unit == pytest.approx(43.77, rel=1e-3)


def test_unknown_corpus_name():
    with pytest.raises(corpus.CorpusError):
        corpus.load_segments("fig9z")


def test_override_refuses_a_name_outside_its_directory(tmp_path, monkeypatch):
    (tmp_path / "x.seg").write_text(GOOD)
    (tmp_path / "sub").mkdir()
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path / "sub"))
    with pytest.raises(corpus.CorpusError):
        corpus.load_segments("../x")


@pytest.mark.parametrize("override", [False, True], ids=["bundled", "override"])
@pytest.mark.parametrize("name", ["../corpus/fig2a", "./fig2a"])
def test_a_name_with_a_path_separator_is_refused(override, name, tmp_path, monkeypatch):
    # each name leads to a file in both modes, so only the separator refuses it
    if override:
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "fig2a.seg").write_text(GOOD)
        monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path / "corpus"))
    else:
        monkeypatch.delenv(corpus.CORPUS_ENV, raising=False)
    with pytest.raises(corpus.CorpusError, match="unknown corpus graph"):
        corpus.refined_graph(name)


def test_corpus_directory_override(tmp_path, monkeypatch):
    (tmp_path / "custom.seg").write_text(GOOD)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    assert corpus.corpus_names() == ("custom",)
    assert corpus.load_graph("custom").vertex_count == 4


def test_refined_graph_cache_follows_corpus_directory(tmp_path, monkeypatch):
    square, triangle = tmp_path / "square", tmp_path / "triangle"
    square.mkdir()
    triangle.mkdir()
    (square / "shape.seg").write_text(GOOD)
    (triangle / "shape.seg").write_text(
        "! name triangle\n0 0 1 0\n1 0 0.5 0.8660254\n0.5 0.8660254 0 0\n"
    )
    monkeypatch.setenv(corpus.CORPUS_ENV, str(square))
    assert corpus.refined_graph("shape").vertex_count == 4
    monkeypatch.setenv(corpus.CORPUS_ENV, str(triangle))
    assert corpus.refined_graph("shape").vertex_count == 3
    monkeypatch.setenv(corpus.CORPUS_ENV, str(square))
    assert corpus.refined_graph("shape").vertex_count == 4
    monkeypatch.delenv(corpus.CORPUS_ENV)
    with pytest.raises(corpus.CorpusError):
        corpus.refined_graph("shape")


def test_refined_graph_cache_follows_file_contents(tmp_path, monkeypatch):
    fig2a, fig2b = (emit_segments(corpus.load_graph(name)) for name in ("fig2a", "fig2b"))
    path = tmp_path / "part.seg"
    path.write_text(fig2a)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    first = corpus.refined_graph("part")
    assert first.vertex_count == 22
    assert corpus.refined_graph("part") is first  # realize shares refines by id
    path.write_text(fig2b)
    assert corpus.load_graph("part").vertex_count == 30
    assert corpus.refined_graph("part").vertex_count == 30


@pytest.mark.parametrize("turned", [False, True], ids=["as-built", "turned"])
def test_build_graph_memory_is_linear_on_a_long_chain(long_chain, turned):
    # a dense v x v centroid check over these 995 vertices peaks above 20 MB
    drawn = turned_upright(long_chain) if turned else long_chain
    tracemalloc.start()
    try:
        g = graph_from_text(emit_segments(drawn))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.vertex_count, g.edge_count) == (long_chain.vertex_count, long_chain.edge_count)
    assert peak < 8e6
