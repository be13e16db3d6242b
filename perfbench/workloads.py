"""The benchmark's four workloads: inputs from a seed, program calls, checks.

Each workload is a list of items.  An item's ``run`` makes the calls a user
of the package would make, through the public API, and is what the benchmark
times; its ``check`` judges the output against a reference that does not
come from the code under test (the metadata lines of the bundled drawings,
arithmetic on part sizes, and the output's own coordinates) and is not
timed.  The seed changes only the order of work, never its size.

Calls go through module attributes looked up at call time (``ingest.build_graph``
and so on) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
from dataclasses import dataclass
from importlib import resources
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from matchsticks import cli, construct, corpus, ingest, rigidity, verify

# The package re-exports the function ``refine`` over its submodule's name.
refine_module = importlib.import_module("matchsticks.refine")

#: the 8-part ring inventory, and the parts in it that are first-order rigid
RING_PARTS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig2g", "fig2h")
RIGID_RING_PARTS = RING_PARTS[:6]
CHAIN_ENDS = (("fig5a", "fig5a"), ("fig5a", "fig5c"), ("fig5c", "fig5c"))
CHAIN_SPACER = "fig5b"
CHAIN_LENGTHS = (50, 150)
COVERAGE_MAX = 50_000  # a pass short enough to fit inside a fast stretch of a shared host
MAX_LENGTH_ERROR = 1e-9


@dataclass(frozen=True)
class Item:
    """One output: ``run`` is the program's work, ``check`` returns a problem or None."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def setup(workload: str, seed: int) -> list[Item]:
    """Read the bundled drawings, refine the parts the workload glues, build its items."""
    rng = random.Random(seed)
    drawings = _bundled_drawings()
    return _SETUPS[workload](rng, drawings)


# -- reference data -------------------------------------------------------------


def _bundled_drawings() -> dict[str, tuple[str, dict[str, str]]]:
    """name -> (segment text, metadata) for every bundled drawing."""
    folder = resources.files("matchsticks").joinpath("corpus")
    drawings = {}
    for entry in folder.iterdir():
        if entry.name.endswith(".seg"):
            text = entry.read_text()
            drawings[entry.name[: -len(".seg")]] = (text, _metadata(text))
    return drawings


def _metadata(text: str) -> dict[str, str]:
    """The ``! key value`` lines of a segment file, read without the ingest module."""
    meta = {}
    for line in text.splitlines():
        if line.startswith("!"):
            key, _, value = line[1:].strip().partition(" ")
            meta[key] = value.strip()
    return meta


def _sizes(drawings: dict[str, tuple[str, dict[str, str]]]) -> dict[str, int]:
    return {name: int(meta["claimed_vertices"]) for name, (_text, meta) in drawings.items()}


def _check_graph(
    g,
    vertices: int,
    profile: str,
    report,
    rig,
    must_flex: bool = False,
    must_be_rigid: bool = False,
) -> str | None:
    """Check a verdict and the output's own coordinates against the expectation."""
    if g.vertex_count != vertices:
        return f"{g.vertex_count} vertices, expected {vertices}"
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2)
    degrees = np.bincount(edges.ravel(), minlength=g.vertex_count)
    if profile == "4-regular":
        degrees_ok = bool((degrees == 4).all())
    elif profile == "(2,4)-regular":
        degrees_ok = bool(np.isin(degrees, (2, 4)).all() and (degrees == 2).any())
    else:
        return f"unknown degree profile {profile!r}"
    if not degrees_ok:
        return f"degrees {sorted(set(degrees.tolist()))} do not match {profile}"
    coords = np.asarray(g.vertices, dtype=float) / g.unit
    diff = coords[edges[:, 0]] - coords[edges[:, 1]]
    worst = float(np.max(np.abs(np.hypot(diff[:, 0], diff[:, 1]) - 1.0)))
    if not worst <= MAX_LENGTH_ERROR:
        return f"edge length off by {worst:.3e}"
    if not report.is_matchstick:
        return f"verify_matchstick says {report.classification}"
    if must_flex and rig.internal_flexes < 1:
        return "flexible graph reports no flex"
    if must_be_rigid and rig.internal_flexes != 0:
        return f"ring of rigid parts reports {rig.internal_flexes} flex(es)"
    return None


def _verdicts(g) -> tuple[object, object]:
    return verify.verify_matchstick(g), rigidity.analyze_rigidity(g)


# -- corpus: every bundled drawing, as `matchsticks catalog` processes it ----------


def _corpus(rng: random.Random, drawings) -> list[Item]:
    names = sorted(drawings)
    rng.shuffle(names)
    return [_corpus_item(name, *drawings[name]) for name in names]


def _corpus_item(name: str, text: str, meta: dict[str, str]) -> Item:
    def run():
        result = refine_module.refine(ingest.build_graph(ingest.parse_segment_file(text)))
        return result, *_verdicts(result.graph)

    def check(output) -> str | None:
        result, report, rig = output
        if not result.converged:
            return f"refine did not converge (residual {result.final_residual:.3e})"
        return _check_graph(
            result.graph,
            int(meta["claimed_vertices"]),
            meta["claimed_profile"],
            report,
            rig,
            must_flex=meta["claimed_rigidity"] == "flexible",
        )

    return Item(name, run, check)


# -- rings: one three-part ring per vertex count the inventory reaches -------------


def _rings(rng: random.Random, drawings) -> list[Item]:
    sizes = _sizes(drawings)
    parts = {name: corpus.refined_graph(name) for name in RING_PARTS}
    # The first part multiset in inventory order for each count (47 counts in
    # 63..120), as theorem1_coverage picks its ring witnesses.  All 120 rings
    # leave too few passes in a run for steady best-of-pass times.
    witnesses: dict[int, tuple[str, ...]] = {}
    for combo in combinations_with_replacement(RING_PARTS, 3):
        witnesses.setdefault(sum(sizes[name] for name in combo) - 3, combo)
    combos = list(witnesses.values())
    rng.shuffle(combos)
    items = []
    for combo in combos:
        order = list(combo)
        rng.shuffle(order)
        items.append(_ring_item(order, parts, sizes))
    return items


def _ring_item(order: list[str], parts, sizes: dict[str, int]) -> Item:
    def run():
        plan = construct.ring_plan([construct.PartSpec(parts[name]) for name in order])
        g = construct.realize(plan)
        return g, *_verdicts(g)

    def check(output) -> str | None:
        g, report, rig = output
        return _check_graph(
            g,
            sum(sizes[name] for name in order) - len(order),
            "4-regular",
            report,
            rig,
            must_be_rigid=all(name in RIGID_RING_PARTS for name in order),
        )

    return Item("ring(" + "+".join(order) + ")", run, check)


# -- chains: the three stride-3 families at two lengths ----------------------------


def _chains(rng: random.Random, drawings) -> list[Item]:
    sizes = _sizes(drawings)
    names = sorted({name for pair in CHAIN_ENDS for name in pair} | {CHAIN_SPACER})
    parts = {name: corpus.refined_graph(name) for name in names}
    specs = [(left, right, n) for n in CHAIN_LENGTHS for left, right in CHAIN_ENDS]
    rng.shuffle(specs)
    return [_chain_item(left, right, n, parts, sizes) for left, right, n in specs]


def _chain_item(left: str, right: str, n: int, parts, sizes: dict[str, int]) -> Item:
    def run():
        spec = construct.ChainSpec(
            construct.PartSpec(parts[left]), construct.PartSpec(parts[right]), n
        )
        g = construct.chain_extend(spec)
        return g, *_verdicts(g)

    def check(output) -> str | None:
        g, report, rig = output
        # each spacer glues two vertices to each neighbour; the chain has n + 1 joints
        expected = sizes[left] + sizes[right] + n * sizes[CHAIN_SPACER] - 2 * (n + 1)
        return _check_graph(g, expected, "4-regular", report, rig)

    return Item(f"chain({left},{n},{right})", run, check)


# -- coverage: the arithmetic certificate through the command line ------------------

_RING3 = re.compile(r"ring of 3 parts \((\d+)\+(\d+)\+(\d+) vertices\)")
_MIRROR = re.compile(r"mirror double of (\w+)")
_CORPUS_GRAPH = re.compile(r"corpus graph (\w+)")
_RING4 = re.compile(r"ring of four (\w+) parts")
_FAMILY = re.compile(r"family (\d+)\+(\d+)n at n=(\d+): .*")


def _coverage(rng: random.Random, drawings) -> list[Item]:
    sizes = _sizes(drawings)
    ring_sizes = {sizes[name] for name in RING_PARTS}
    four_regular = {
        name for name, (_text, meta) in drawings.items()
        if meta["claimed_profile"] == "4-regular"
    }
    spacer_gain = sizes[CHAIN_SPACER] - 2
    families = {(sizes[a] + sizes[b] - 2, spacer_gain) for a, b in CHAIN_ENDS}

    def witness_count(witness: str) -> int | None:
        """The vertex count the witness builds, or None if it names no known construction."""
        if m := _FAMILY.fullmatch(witness):
            offset, stride, n = (int(x) for x in m.groups())
            return offset + stride * n if (offset, stride) in families else None
        if m := _RING3.fullmatch(witness):
            part_sizes = [int(x) for x in m.groups()]
            return sum(part_sizes) - 3 if ring_sizes.issuperset(part_sizes) else None
        if (m := _MIRROR.fullmatch(witness)) and m[1] in RING_PARTS:
            return 2 * sizes[m[1]] - 2
        if (m := _CORPUS_GRAPH.fullmatch(witness)) and m[1] in four_regular:
            return sizes[m[1]]
        if (m := _RING4.fullmatch(witness)) and m[1] in RING_PARTS:
            return 4 * sizes[m[1]] - 4
        return None

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["coverage", "--max", str(COVERAGE_MAX), "--json"])
        return code, out.getvalue()

    verified: set[bytes] = set()  # digests of outputs that passed; the CLI is deterministic

    def check(output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(text.encode()).digest()
        if digest in verified:
            return None
        payload = json.loads(text)
        if payload["complete"] is not True or payload["missing"]:
            return f"coverage incomplete, missing {payload['missing'][:5]}"
        witnesses = payload["witnesses"]
        if len(witnesses) != COVERAGE_MAX - 62:
            return f"{len(witnesses)} witnesses for {COVERAGE_MAX - 62} counts"
        for v in range(63, COVERAGE_MAX + 1):
            witness = witnesses.get(str(v))
            if witness is None or witness_count(witness) != v:
                return f"witness for {v} does not build {v} vertices: {witness!r}"
        verified.add(digest)
        return None

    return [Item(f"coverage(63..{COVERAGE_MAX})", run, check)]


_SETUPS = {"corpus": _corpus, "rings": _rings, "chains": _chains, "coverage": _coverage}
