"""Access to the bundled corpus of figure drawings.

Twenty-one segment files ship with the package (fig1a..fig5c), each carrying
the claimed vertex count, degree profile, and rigidity of its graph as
metadata.  Set the environment variable MATCHSTICKS_CORPUS to a directory of
``.seg`` files to substitute a different corpus.
"""

from __future__ import annotations

import os
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .ingest import SegmentFile, build_graph, parse_segment_file
from .model import EmbeddedGraph

CORPUS_ENV = "MATCHSTICKS_CORPUS"

#: bundled figure names, in figure order
CORPUS_NAMES = (
    "fig1a", "fig1b", "fig1c", "fig1d",
    "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig2g", "fig2h",
    "fig3a", "fig3b",
    "fig4a", "fig4b", "fig4c", "fig4d",
    "fig5a", "fig5b", "fig5c",
)


class CorpusError(ValueError):
    """Unknown corpus graph name, or a corpus override that is not a directory."""


def _override_dir() -> Path | None:
    path = os.environ.get(CORPUS_ENV)
    if path and not Path(path).is_dir():
        raise CorpusError(f"{CORPUS_ENV}={path} is not a directory")
    return Path(path) if path else None


def corpus_names() -> tuple[str, ...]:
    """Names available in the active corpus (env override or bundled)."""
    override = _override_dir()
    if override is not None:
        return tuple(sorted(p.stem for p in override.glob("*.seg")))
    return CORPUS_NAMES


def load_segments(name: str) -> SegmentFile:
    """The raw segment file for a corpus graph."""
    return parse_segment_file(_read_text(_override_dir(), name))


def _read_text(override: Path | None, name: str) -> str:
    if override is not None:
        path = override / f"{name}.seg"
        if not path.exists():
            raise CorpusError(f"no corpus file {path}")
        return path.read_text()
    if name not in CORPUS_NAMES:
        raise CorpusError(f"unknown corpus graph {name!r}")
    return resources.files(__package__).joinpath(f"corpus/{name}.seg").read_text()


def load_graph(name: str) -> EmbeddedGraph:
    """The unrefined embedded graph for a corpus entry, in matchstick units."""
    return build_graph(load_segments(name))


def refined_graph(name: str) -> EmbeddedGraph:
    """The corpus graph refined to unit edge lengths, cached.

    The cache is keyed on the file's text as well as the name, so neither a
    change of MATCHSTICKS_CORPUS nor a rewritten file serves a stale graph,
    and an unchanged file gives back the same object every time.
    Raises RuntimeError if the corpus data does not converge, which would mean
    the bundled files are corrupt.
    """
    return _refined_graph(name, _read_text(_override_dir(), name))


@lru_cache(maxsize=None)
def _refined_graph(name: str, text: str) -> EmbeddedGraph:
    from .refine import refine  # deferred to keep imports acyclic

    result = refine(build_graph(parse_segment_file(text)))
    if not result.converged:
        raise RuntimeError(
            f"corpus graph {name} did not refine "
            f"(final residual {result.final_residual:.3e})"
        )
    return result.graph
