"""Segment file parsing, endpoint merging, and the bundled corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsticks import corpus
from matchsticks.ingest import (
    AmbiguousMergeError,
    DegenerateSegmentError,
    MergePolicy,
    SegmentFileError,
    build_graph,
    emit_segments,
    estimate_unit,
    graph_from_text,
    max_unit_deviation,
    parse_segment_file,
)
from matchsticks.model import EmbeddedGraph, degree_profile

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
    assert sf.name == "square"
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
    assert degree_profile(g).counts == {2: 4}


def test_build_graph_merges_jittered_endpoints():
    rng = np.random.default_rng(7)
    sf = parse_segment_file(GOOD)
    noisy = sf.segments + rng.uniform(-2e-3, 2e-3, size=sf.segments.shape)
    sf2 = parse_segment_file(
        "! name noisy\n" + "\n".join(" ".join(f"{x:.7f}" for x in row) for row in noisy)
    )
    g = build_graph(sf2, MergePolicy(epsilon_merge=1e-2))
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
        build_graph(parse_segment_file(text), MergePolicy(epsilon_merge=1e-2))


def test_ambiguous_merge_when_unit_close_to_epsilon():
    text = "! name tiny\n0 0 0.05 0\n0.05 0 0.05 0.05\n"
    with pytest.raises(AmbiguousMergeError):
        build_graph(parse_segment_file(text), MergePolicy(epsilon_merge=1e-2))


def test_degenerate_segment_rejected():
    text = "! name degenerate\n0 0 1 0\n2 2 2.001 2\n"
    with pytest.raises(DegenerateSegmentError):
        build_graph(parse_segment_file(text), MergePolicy(epsilon_merge=1e-2))


def test_duplicate_segments_collapse_to_one_edge():
    text = "! name doubled\n0 0 1 0\n0.001 0 1.001 0\n"
    g = build_graph(parse_segment_file(text), MergePolicy(epsilon_merge=1e-2))
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_estimate_unit_is_median_length():
    segments = np.array([[0, 0, 1, 0], [0, 0, 0, 2], [0, 0, 3, 0]], dtype=float)
    assert estimate_unit(segments) == pytest.approx(2.0)
    # relative to the unit: lengths (1, 2, 3) deviate by at most half a unit
    assert max_unit_deviation(segments, 2.0) == pytest.approx(0.5)


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
    return EmbeddedGraph(coords, tuple(sorted(edges)), 1.0, "roundtrip")


@given(spread_graphs())
@settings(max_examples=60)
def test_emit_then_build_round_trips(g):
    rebuilt = graph_from_text(emit_segments(g))
    assert rebuilt.vertex_count == g.vertex_count
    assert rebuilt.edge_count == g.edge_count
    assert degree_profile(rebuilt).counts == degree_profile(g).counts


def test_emit_records_name():
    g = graph_from_text(GOOD)
    assert "! name square" in emit_segments(g)


# -- bundled corpus -----------------------------------------------------------


def test_corpus_has_twenty_one_graphs():
    assert len(corpus.corpus_names()) == 21


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_matches_claimed_metadata(name):
    sf = corpus.load_segments(name)
    g = corpus.load_graph(name)
    assert g.vertex_count == sf.metadata["claimed_vertices"]
    profile = degree_profile(g)
    if sf.metadata["claimed_profile"] == "4-regular":
        assert profile.is_4_regular()
    else:
        assert profile.is_24_regular()
        assert not profile.is_4_regular()


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_drawings_are_unit_accurate_to_1e3(name):
    sf = corpus.load_segments(name)
    unit = estimate_unit(sf.segments)
    assert max_unit_deviation(sf.segments, unit) <= 1e-3


def test_fig1a_drawing_unit():
    # median of the 104 segment lengths in the fig1a drawing
    unit = estimate_unit(corpus.load_segments("fig1a").segments)
    assert unit == pytest.approx(43.77, rel=1e-3)


def test_unknown_corpus_name():
    with pytest.raises(corpus.CorpusError):
        corpus.load_segments("fig9z")


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
