#!/usr/bin/env python3
"""Build and certify the constructions behind the coverage argument.

Runs every constructive family once: the five mirror doubles, the smallest
and largest three-part rings, the ring of four, the two-part chains at 94,
95, and 96 vertices, and spacer chains for the first few members of each
stride-3 family.  Each result goes through ``certify`` (refine, then
verify) and its vertex count and degrees are checked; the script fails
loudly if any construction does not certify.

Usage: python scripts/run_constructions.py [--out DIR]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from matchsticks import corpus
from matchsticks.construct import (
    ChainSpec,
    PartSpec,
    chain_extend,
    degree2_vertices,
    mirror_double,
    realize,
    ring_plan,
)
from matchsticks.ingest import emit_segments
from matchsticks.model import EmbeddedGraph, degree_profile
from matchsticks.pipeline import Certificate, certify


def summary(cert: Certificate, expected_vertices: int) -> str:
    """One report line for a certified 4-regular graph; exits on any failure."""
    g, result = cert.graph, cert.refinement
    if not (cert.certified and g.vertex_count == expected_vertices
            and set(degree_profile(g)) == {4}):
        raise SystemExit(
            f"FAILED: {g.name}: v={g.vertex_count} (want {expected_vertices}), "
            f"converged={result.converged}, "
            f"classification={cert.verification.classification}"
        )
    return f"{g.vertex_count:4d} vertices  residual {result.final_residual:.2e}  ok"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", help="directory to write the built segment files")
    args = parser.parse_args()
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    start = time.time()
    built: list[tuple[str, EmbeddedGraph, int]] = []

    def add(tag: str, g: EmbeddedGraph, expected: int) -> None:
        built.append((tag, g, expected))

    # mirror doubles of the five symmetric two-port parts
    for name, expected in [("fig2d", 66), ("fig2e", 68), ("fig2f", 70),
                           ("fig2g", 78), ("fig2h", 80)]:
        part = corpus.refined_graph(name)
        a, b = degree2_vertices(part)
        mode = "point" if name == "fig2f" else "line"
        add(f"mirror {name} ({mode})", mirror_double(part, a, b, mode), expected)

    # rings of three: smallest and largest table rows
    g22 = corpus.refined_graph("fig2a")
    g41 = corpus.refined_graph("fig2h")
    add("ring 22+22+22", realize(ring_plan([PartSpec(g22)] * 3)), 63)
    add("ring 41+41+41", realize(ring_plan([PartSpec(g41)] * 3)), 120)

    # ring of four
    g30 = corpus.refined_graph("fig2b")
    add("ring of four fig2b", realize(ring_plan([PartSpec(g30)] * 4)), 116)

    # two-part chains (n = 0) at 94, 95, 96
    g5a = corpus.refined_graph("fig5a")
    g5c = corpus.refined_graph("fig5c")
    add("pair fig5a+fig5a", realize(ring_plan([PartSpec(g5a), PartSpec(g5a)])), 94)
    add("pair fig5a+fig5c", realize(ring_plan([PartSpec(g5a), PartSpec(g5c)])), 95)
    add("pair fig5c+fig5c", realize(ring_plan([PartSpec(g5c), PartSpec(g5c)])), 96)

    # spacer chains: first members of the three stride-3 families
    for n in (1, 2, 3):
        for left, right, base in ((g5a, g5a, 94), (g5a, g5c, 95), (g5c, g5c, 96)):
            spec = ChainSpec(PartSpec(left), PartSpec(right), n)
            add(f"chain {base}+3x{n}", chain_extend(spec), base + 3 * n)

    width = max(len(tag) for tag, _g, _e in built)
    for tag, g, expected in built:
        cert = certify(g)
        print(f"{tag:{width}s}  {summary(cert, expected)}")
        if out_dir:
            safe = tag.replace(" ", "_").replace("+", "-")
            (out_dir / f"{safe}.seg").write_text(emit_segments(cert.graph))

    print(f"\n{len(built)} constructions certified in {time.time() - start:.2f}s")


if __name__ == "__main__":
    main()
