"""Access to the corpus of figure drawings: one directory of ``.seg`` files.

Twenty-one segment files ship with the package (fig1a..fig5c), each carrying
the claimed vertex count, degree profile, and rigidity of its graph as
metadata.  They are the corpus unless the environment variable
MATCHSTICKS_CORPUS names another directory of ``.seg`` files, which is then
read in their place by the same code.
"""

from __future__ import annotations

import os
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .ingest import SegmentFile, build_graph, parse_segment_file
from .model import EmbeddedGraph
from .refine import refine

CORPUS_ENV = "MATCHSTICKS_CORPUS"


class CorpusError(ValueError):
    """Unknown graph name, override that is not a directory, or drawing that does not load."""


def _directory() -> resources.abc.Traversable:
    """MATCHSTICKS_CORPUS when set, else the bundled drawings."""
    path = os.environ.get(CORPUS_ENV)
    if not path:
        return resources.files(__package__) / "corpus"
    if not Path(path).is_dir():
        raise CorpusError(f"{CORPUS_ENV}={path} is not a directory")
    return Path(path)


def corpus_names() -> tuple[str, ...]:
    """Names of the corpus's ``.seg`` files, sorted (figure order for the bundled ones)."""
    files = (p.name for p in _directory().iterdir() if p.is_file())
    return tuple(sorted(f.removesuffix(".seg") for f in files if f.endswith(".seg")))


def load_segments(name: str) -> SegmentFile:
    """The raw segment file for a corpus graph."""
    return parse_segment_file(_read_text(name))


def _read_text(name: str) -> str:
    """The text of ``<directory>/<name>.seg``; a name with a directory part is refused."""
    path = _directory() / f"{name}.seg"
    if Path(name).name != name or not path.is_file():
        raise CorpusError(f"unknown corpus graph {name!r}")
    return path.read_text()


def load_graph(name: str) -> EmbeddedGraph:
    """The unrefined embedded graph for a corpus entry, in matchstick units."""
    return build_graph(load_segments(name))


def refined_graph(name: str) -> EmbeddedGraph:
    """The corpus graph refined to unit edge lengths, cached.

    The cache is keyed on the file's text as well as the name, so neither a
    change of MATCHSTICKS_CORPUS nor a rewritten file serves a stale graph,
    and an unchanged file gives back the same object every time.
    Raises CorpusError naming the drawing if it cannot be decoded, parsed,
    built or refined.
    """
    try:
        text = _read_text(name)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus graph {name}: {exc}") from exc
    return _refined_graph(name, text)


@lru_cache(maxsize=None)
def _refined_graph(name: str, text: str) -> EmbeddedGraph:
    try:
        result = refine(build_graph(parse_segment_file(text)))
    except ValueError as exc:
        raise CorpusError(f"corpus graph {name}: {exc}") from exc
    if not result.converged:
        residual = result.final_residual
        raise CorpusError(f"corpus graph {name} did not refine (final residual {residual:.3e})")
    return result.graph
