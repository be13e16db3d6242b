"""The certification pipeline: refine, verify, and rigidity on demand."""

import numpy as np

from conftest import unit_rhombus
from matchsticks import Certificate, certify, corpus, pipeline
from matchsticks.model import EmbeddedGraph, edge_lengths


def test_certify_refines_then_verifies_a_drawing():
    cert = certify(corpus.load_graph("fig2a"))
    assert isinstance(cert, Certificate)
    assert cert.certified
    assert cert.graph is cert.refinement.graph
    assert np.abs(edge_lengths(cert.graph) - 1.0).max() <= 1e-12
    assert cert.verification.is_matchstick


def test_rigidity_is_computed_once_and_only_on_request(monkeypatch):
    calls = []
    real = pipeline.analyze_rigidity

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(pipeline, "analyze_rigidity", counting)
    cert = certify(unit_rhombus())
    assert calls == []
    assert cert.rigidity.internal_flexes == 1
    assert cert.rigidity is cert.rigidity
    assert calls == [cert.graph]


def test_unsatisfiable_lengths_are_not_certified():
    # K4 has no unit-distance drawing in the plane
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    edges = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))
    cert = certify(EmbeddedGraph(square, edges, name="K4"))
    assert not cert.refinement.converged
    assert not cert.certified


def test_a_crossing_drawing_converges_but_is_not_certified():
    # two unit bars crossing at their midpoints: unit lengths, not a matchstick graph
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.5], [0.5, 0.5]])
    cert = certify(EmbeddedGraph(coords, ((0, 1), (2, 3)), name="cross"))
    assert cert.refinement.converged
    assert not cert.verification.is_matchstick
    assert not cert.certified
