#!/usr/bin/env python3
"""Per-graph numerical report over the bundled corpus.

For every corpus graph: raw drawing accuracy, refinement iteration count and
residual, minimum clearances of the refined embedding, and the first-order
rigidity verdict next to the recorded claim.  This is the source of the
numbers quoted in the README.

Usage: python scripts/corpus_report.py
"""

from __future__ import annotations

import numpy as np

from matchsticks import corpus
from matchsticks.ingest import build_graph, estimate_unit, max_unit_deviation
from matchsticks.model import degree_profile
from matchsticks.pipeline import certify
from matchsticks.verify import min_clearances


def main() -> None:
    header = (
        f"{'name':8s} {'v':>4s} {'e':>4s} {'profile':16s} {'raw dev':>9s} "
        f"{'it':>3s} {'residual':>9s} {'ee':>7s} {'vv':>7s} {'ve':>7s} "
        f"{'claimed':9s} {'flexes':>6s} {'sigma4':>9s}"
    )
    print(header)
    print("-" * len(header))
    worst = ("", np.inf)
    for name in corpus.corpus_names():
        sf = corpus.load_segments(name)
        raw = build_graph(sf)
        segments = sf.segments
        unit = estimate_unit(segments)
        raw_dev = max_unit_deviation(segments, unit) / unit

        cert = certify(raw)
        g, result = cert.graph, cert.refinement
        assert cert.certified, f"{name} failed verification"

        ee, vv, ve = min_clearances(g)
        smallest = min(ee, vv, ve)
        if smallest < worst[1]:
            worst = (name, smallest)

        rig = cert.rigidity
        sigma4 = rig.singular_tail(4)[-1] if g.vertex_count > 3 else float("nan")
        print(
            f"{name:8s} {g.vertex_count:4d} {g.edge_count:4d} "
            f"{str(degree_profile(g)):16s} {raw_dev:9.2e} "
            f"{result.iterations:3d} {result.final_residual:9.2e} "
            f"{ee:7.4f} {vv:7.4f} {ve:7.4f} "
            f"{sf.metadata.get('claimed_rigidity', 'unknown'):9s} "
            f"{rig.internal_flexes:6d} {sigma4:9.2e}"
        )
    print("-" * len(header))
    print(f"tightest clearance: {worst[1]:.4f} units ({worst[0]})")
    print(
        "columns: raw dev = worst relative edge-length deviation of the drawing; "
        "ee/vv/ve = min edge-edge, vertex-vertex, vertex-edge clearance after "
        "refinement; sigma4 = 4th-smallest singular value of the rigidity matrix"
    )


if __name__ == "__main__":
    main()
