#!/usr/bin/env python3
"""One-time extraction of the bundled corpus from TikZ figure sources.

Reads a LaTeX/Markdown document whose ``tikzpicture`` environments draw each
graph as a list of ``(x1,y1) -- (x2,y2)`` segments, and writes one segment
file per figure into the corpus directory.  The manifest below names the
figures in document order and records the claims made about each graph
(vertex count, degree profile, rigidity); those claims travel with the data
as metadata and are re-checked by the test suite.

Usage:
    python scripts/extract_corpus.py <source.tex> <output-dir>

Exits 0 once every file is written, 1 when the source holds a different
number of figures than the manifest names, and 2 on a usage error or a
source or output that cannot be read or written.

The committed files under src/matchsticks/corpus/ are the primary artifact;
this script documents how they were produced.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# (name, claimed_vertices, claimed_profile, claimed_rigidity), in the order the
# tikzpicture environments appear in the source document.
FIGURE_MANIFEST = [
    ("fig1a", 52, "4-regular", "rigid"),
    ("fig1b", 54, "4-regular", "rigid"),
    ("fig1c", 57, "4-regular", "rigid"),
    ("fig1d", 60, "4-regular", "flexible"),
    ("fig2a", 22, "(2,4)-regular", "rigid"),
    ("fig2b", 30, "(2,4)-regular", "rigid"),
    ("fig2c", 31, "(2,4)-regular", "rigid"),
    ("fig2d", 34, "(2,4)-regular", "rigid"),
    ("fig2e", 35, "(2,4)-regular", "rigid"),
    ("fig2f", 36, "(2,4)-regular", "rigid"),
    ("fig2g", 40, "(2,4)-regular", "rigid"),
    ("fig2h", 41, "(2,4)-regular", "rigid"),
    ("fig3a", 64, "4-regular", "rigid"),
    ("fig3b", 65, "4-regular", "flexible"),
    ("fig4a", 67, "4-regular", "flexible"),
    ("fig4b", 69, "4-regular", "rigid"),
    ("fig4c", 73, "4-regular", "rigid"),
    ("fig4d", 74, "4-regular", "rigid"),
    ("fig5a", 48, "(2,4)-regular", "flexible"),
    ("fig5b", 5, "(2,4)-regular", "flexible"),
    ("fig5c", 49, "(2,4)-regular", "flexible"),
]

TIKZ_BLOCK = re.compile(r"\\begin\{tikzpicture\}(.*?)\\end\{tikzpicture\}", re.S)
SEGMENT = re.compile(
    r"\(\s*(-?[\d.]+)\s*,\s*(-?[\d.]+)\s*\)\s*--\s*\(\s*(-?[\d.]+)\s*,\s*(-?[\d.]+)\s*\)"
)


def extract(source: str) -> list[list[tuple[str, str, str, str]]]:
    blocks = TIKZ_BLOCK.findall(source)
    return [SEGMENT.findall(block) for block in blocks]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    source_path, out_dir = Path(argv[1]), Path(argv[2])
    try:
        figures = extract(source_path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {source_path}: {exc}", file=sys.stderr)
        return 2
    if len(figures) != len(FIGURE_MANIFEST):
        print(
            f"expected {len(FIGURE_MANIFEST)} tikzpicture blocks, found {len(figures)}",
            file=sys.stderr,
        )
        return 1
    try:
        write_corpus(figures, out_dir)
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2
    return 0


def write_corpus(figures: list[list[tuple[str, str, str, str]]], out_dir: Path) -> None:
    """One segment file per manifest entry, its metadata lines first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for (name, vertices, profile, rigidity), segments in zip(FIGURE_MANIFEST, figures):
        lines = [
            f"# segment data for {name}, extracted from the original figure drawing",
            f"! name {name}",
            f"! claimed_vertices {vertices}",
            f"! claimed_profile {profile}",
            f"! claimed_rigidity {rigidity}",
        ]
        lines += [f"{x1} {y1} {x2} {y2}" for x1, y1, x2, y2 in segments]
        path = out_dir / f"{name}.seg"
        path.write_text("\n".join(lines) + "\n")
        print(f"{path}: {len(segments)} segments")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
