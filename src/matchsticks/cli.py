"""Command-line front end: verify, refine, rigidity, construct, enumerate,
coverage, and catalog subcommands over segment files and the bundled corpus.

``catalog`` and the ``construct`` subcommands certify through ``pipeline.certify``.
Every graph command's ``--json`` prints sections of ``Certificate.to_json_dict``.

Output is deterministic (no timestamps, floats at 12 significant digits) so
runs are reproducible and diffable.  Exit codes: 0 success, 1 domain failure
(verification or coverage failed), 2 usage or input parse error, 3 numerical
failure (a solver did not converge).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import corpus
from .construct import (
    ChainSpec,
    PartSpec,
    RealizationFailedError,
    chain_extend,
    degree2_vertices,
    mirror_double,
    plan_from_json,
    realize,
    ring_plan,
)
from .counting import PART_INVENTORY, Inventory, combinations_table, theorem1_coverage
from .ingest import build_graph, emit_segments, graph_from_text, max_unit_deviation
from .model import EmbeddedGraph
from .pipeline import _graph_json, certify
from .refine import RefineOptions, RefineResult, refine
from .rigidity import DEFAULT_RANK_TOL, analyze_rigidity
from .verify import Tolerances, min_clearances, verify_matchstick

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    """Bad input outside argparse's reach (missing file, parse failure, ...)."""


class _NumericalError(Exception):
    """A solver failed on otherwise well-formed input."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_text(path: str) -> str:
    """A file's text; a file that cannot be read or decoded is a usage error naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: {exc}")


def _load_graph(ref: str) -> EmbeddedGraph:
    """Load a graph from a segment file path or a corpus name; errors name ``ref``."""
    is_path = Path(ref).exists()
    if not is_path and ref not in corpus.corpus_names():
        raise _UsageError(f"{ref}: no such file or corpus graph")
    try:
        return graph_from_text(_read_text(ref)) if is_path else corpus.load_graph(ref)
    except ValueError as exc:
        raise _UsageError(f"{ref}: {exc}")


def _converged(result: RefineResult) -> EmbeddedGraph:
    """The refined graph, or exit 3 if the refinement did not converge."""
    if not result.converged:
        raise _NumericalError(
            f"refinement did not converge (residual {_fmt(result.final_residual)})"
        )
    return result.graph


def _print_json(payload: dict[str, object]) -> None:
    print(json.dumps(payload, indent=2))


def _json_escape(text: str) -> str:
    """``text`` as inside a JSON string, through the escaper ``json.dumps`` uses."""
    return encode_basestring_ascii(text)[1:-1]


# -- subcommands --------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if not args.raw:
        g = _converged(refine(g))
    base = Tolerances.raw() if args.raw else Tolerances()
    tol = Tolerances(
        base.eps_length if args.eps_length is None else args.eps_length,
        base.eps_separation if args.eps_separation is None else args.eps_separation,
    )
    report = verify_matchstick(g, tol)
    label = f"{report.classification}, {g.vertex_count} vertices"
    if args.json:
        _print_json({"graph": _graph_json(g), "verification": report.to_json_dict()})
    else:
        print(f"graph: {g.name or '(unnamed)'} "
              f"({g.vertex_count} vertices, {g.edge_count} edges)")
        print(f"unit length: worst deviation {_fmt(report.worst_deviation)} "
              f"(eps {_fmt(tol.eps_length)}) -> "
              f"{'ok' if report.unit_length_ok else 'FAIL'}")
        if report.crossing_ok:
            print(f"separation: ok (eps {_fmt(tol.eps_separation)})")
        else:
            print(f"separation: {len(report.crossing_violations)} edge pair(s) "
                  f"conflict (eps {_fmt(tol.eps_separation)})")
            for i, j, d in report.crossing_violations[:10]:
                print(f"  edges {i} and {j}: distance {_fmt(d)}")
        if report.vertex_clearance_ok:
            print("clearance: ok")
        else:
            print(f"clearance: {len(report.clearance_violations)} violation(s)")
            for kind, a, b, d in report.clearance_violations[:10]:
                print(f"  {kind} {a} and {b}: distance {_fmt(d)}")
        print(f"classification: {label}")
    return EXIT_OK if report.is_matchstick else EXIT_DOMAIN


def _cmd_refine(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    opts = RefineOptions(
        max_iterations=args.max_iterations, target_residual=args.target_residual
    )
    result = refine(g, opts)
    if args.json:
        _print_json({"graph": _graph_json(g), "refinement": result.to_json_dict()})
    else:
        print(f"graph: {g.name or '(unnamed)'} ({g.vertex_count} vertices)")
        print(f"iterations: {result.iterations}")
        print(f"residual: {_fmt(result.initial_residual)} -> "
              f"{_fmt(result.final_residual)}")
        print(f"converged: {'yes' if result.converged else 'NO'}")
    if args.output:
        _write_segments(args.output, result.graph)
        if not args.json:
            print(f"wrote {args.output}")
    _converged(result)
    return EXIT_OK


def _cmd_rigidity(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if not args.raw:
        g = _converged(refine(g))
    report = analyze_rigidity(g, args.rank_tol)
    if args.json:
        _print_json({"graph": _graph_json(g), "rigidity": report.to_json_dict()})
    else:
        print(f"graph: {g.name or '(unnamed)'} "
              f"({g.vertex_count} vertices, {g.edge_count} edges)")
        print(f"rank: {report.rank} of {report.dof_bound} "
              f"(2v-3 internal degrees of freedom)")
        print(f"internal flexes: {report.internal_flexes}")
        print(f"classification: {report.classification}")
        tail = ", ".join(_fmt(s) for s in report.singular_tail(6))
        print(f"smallest singular values: {tail}")
    return EXIT_OK


def _write_segments(path: str, g: EmbeddedGraph) -> None:
    try:
        Path(path).write_text(emit_segments(g))
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror}")


def _certify_and_write(g: EmbeddedGraph, output: str | None, as_json: bool) -> int:
    """Certify a built graph, report it, and write it to ``output`` if given."""
    cert = certify(g)
    g, report = _converged(cert.refinement), cert.verification
    if output:
        _write_segments(output, g)
    if as_json:
        document = cert.to_json_dict()
        if output:
            document["output"] = output
        _print_json(document)
    else:
        print(f"built: {g.name or '(unnamed)'} "
              f"({g.vertex_count} vertices, {g.edge_count} edges)")
        print(f"classification: {report.classification}, {g.vertex_count} vertices")
        if output:
            print(f"wrote {output}")
    return EXIT_OK if cert.certified else EXIT_DOMAIN


def _cmd_construct_mirror(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.ports:
        try:
            a, b = (int(x) for x in args.ports.split(","))
        except ValueError:
            raise _UsageError("--ports expects two comma-separated vertex indices")
    else:
        ports = degree2_vertices(g)
        if len(ports) != 2:
            raise _UsageError(
                f"graph has {len(ports)} degree-2 vertices; pass --ports a,b"
            )
        a, b = ports
    doubled = mirror_double(g, a, b, args.mode)
    return _certify_and_write(doubled, args.output, args.json)


def _cmd_construct_ring(args: argparse.Namespace) -> int:
    parts = [PartSpec(_load_graph(ref), label=ref) for ref in args.graphs]
    return _certify_and_write(realize(ring_plan(parts)), args.output, args.json)


def _cmd_construct_chain(args: argparse.Namespace) -> int:
    left = PartSpec(_load_graph(args.left), label=args.left)
    right = PartSpec(_load_graph(args.right), label=args.right)
    spacer = _load_graph(args.spacer) if args.spacer else None
    try:
        chain = chain_extend(ChainSpec(left, right, args.spacers, spacer))
    except MemoryError:
        raise _UsageError(f"--spacers {args.spacers}: too many spacers to build in memory")
    return _certify_and_write(chain, args.output, args.json)


def _cmd_construct_from_plan(args: argparse.Namespace) -> int:
    plan = plan_from_json(_read_text(args.plan), _load_graph)
    return _certify_and_write(realize(plan), args.output, args.json)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(x) for x in args.inventory.split(","))
        inv = Inventory(sizes)
    except ValueError as exc:
        raise _UsageError(f"bad inventory: {exc}")
    table = combinations_table(inv, args.parts)
    if args.json:
        _print_json(table.to_json_dict())
    else:
        print(table.to_text())
    return EXIT_OK


def _cmd_coverage(args: argparse.Namespace) -> int:
    """Write the witness table a window at a time, as ``WitnessTable.rows`` renders it;
    ``--json`` prints the text of ``json.dumps(cert.to_json_dict(), indent=2)``."""
    try:
        cert = theorem1_coverage(args.max)
    except (MemoryError, OverflowError):
        raise _UsageError(f"--max {args.max}: too many counts to check in memory")
    if args.json:
        head = json.dumps(replace(cert, witnesses={}).to_json_dict(), indent=2)
        sys.stdout.write(head.removesuffix("{}\n}") + "{")
        separator = "\n"
        for rows in cert.witnesses.rows('    "', '": "', _json_escape, '"'):
            if rows:
                sys.stdout.write(separator + ",\n".join(rows))
                separator = ",\n"
        print("\n  }\n}" if cert.witnesses else "}\n}")
    else:
        missing = ", ".join(str(v) for v in cert.missing) if cert.missing else "none"
        print(f"range: [63, {cert.max_check}]\nmissing: {missing}")
        if args.witnesses:
            for rows in cert.witnesses.rows("  ", ": "):
                if rows:
                    print("\n".join(rows))
    return EXIT_OK if cert.complete else EXIT_DOMAIN


def _cmd_catalog(args: argparse.Namespace) -> int:
    """The corpus table; with --json, each drawing's certificate document plus its
    claim, status, raw accuracy and clearances (null where a kind is empty)."""
    rows = []
    lines = [f"{'name':8s} {'v':>4s} {'e':>4s} {'profile':18s} "
             f"{'claimed':9s} {'residual':>10s} {'verified':8s} "
             f"{'flexes':>6s} status"]
    certified = True
    for name in corpus.corpus_names():
        try:
            sf = corpus.load_segments(name)
            g = build_graph(sf)
        except ValueError as exc:
            raise _UsageError(f"{name}: {exc}")
        claimed_rigidity = sf.metadata.get("claimed_rigidity", "unknown")
        cert = certify(g)
        rig = cert.rigidity
        deviations = []
        if not cert.certified:
            deviations.append("verification failed")
        if claimed_rigidity == "rigid" and not rig.rigid:
            deviations.append(f"{rig.internal_flexes} flex(es) at first order")
        if claimed_rigidity == "flexible" and rig.rigid:
            deviations.append("no flex found")
        status = "ok" if not deviations else "; ".join(deviations)
        certified &= cert.certified
        if args.json:
            clearances = (c if math.isfinite(c) else None for c in min_clearances(cert.graph))
            rows.append({
                **cert.to_json_dict(),
                "claimed_rigidity": claimed_rigidity,
                "status": status,
                "raw_deviation": max_unit_deviation(sf.segments),
                "clearances": dict(zip(("edge_edge", "vertex_vertex", "vertex_edge"), clearances)),
            })
        else:
            lines.append(f"{name:8s} {g.vertex_count:4d} {g.edge_count:4d} "
                         f"{str(cert.verification.profile):18s} {claimed_rigidity:9s} "
                         f"{cert.refinement.final_residual:10.2e} "
                         f"{'yes' if cert.certified else 'NO':8s} "
                         f"{rig.internal_flexes:6d} {status}")
    if args.json:
        _print_json({"corpus": rows})
    else:
        print("\n".join(lines))
    return EXIT_OK if certified else EXIT_DOMAIN


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchsticks",
        description="Verify, refine, analyze, and build 4-regular matchstick graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    refine_defaults = RefineOptions()

    def add_graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="segment file path or bundled corpus name")

    p = sub.add_parser("verify", help="check the matchstick property")
    add_graph_arg(p)
    p.add_argument("--raw", action="store_true",
                   help="skip refinement; default tolerances loosen to drawing accuracy")
    p.add_argument("--eps-length", type=float, default=None,
                   help="unit-length tolerance override")
    p.add_argument("--eps-separation", type=float, default=None,
                   help="edge separation tolerance override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refine", help="drive edge lengths to the unit value")
    add_graph_arg(p)
    p.add_argument("-o", "--output", help="write the refined graph as a segment file")
    p.add_argument("--max-iterations", type=int, default=refine_defaults.max_iterations)
    p.add_argument("--target-residual", type=float, default=refine_defaults.target_residual)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("rigidity", help="first-order rigidity analysis")
    add_graph_arg(p)
    p.add_argument("--raw", action="store_true", help="analyze without refining first")
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                   help="singular values below this fraction of the largest count as zero")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("construct", help="build a larger graph from parts")
    construct_sub = p.add_subparsers(dest="construct_command", required=True)

    c = construct_sub.add_parser("mirror", help="double a part across its two ports")
    add_graph_arg(c)
    c.add_argument("--mode", choices=("line", "point"), default="line")
    c.add_argument("--ports", help="comma-separated join vertex indices (default: auto)")
    c.add_argument("-o", "--output")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct_mirror)

    c = construct_sub.add_parser("ring", help="join parts in a cycle")
    c.add_argument("graphs", nargs="+", metavar="graph")
    c.add_argument("-o", "--output")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct_ring)

    c = construct_sub.add_parser("chain", help="join two end parts through spacers")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("--spacers", type=int, default=1,
                   help="number of 5-vertex spacers between the ends")
    c.add_argument("--spacer", help="spacer graph override (default: bundled)")
    c.add_argument("-o", "--output")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct_chain)

    c = construct_sub.add_parser("from-plan", help="realize a JSON composition plan")
    c.add_argument("plan", help="plan JSON file")
    c.add_argument("-o", "--output")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct_from_plan)

    p = sub.add_parser("enumerate", help="table of ring-composition vertex counts")
    p.add_argument("--inventory", default=",".join(map(str, PART_INVENTORY.part_sizes)),
                   help="comma-separated part sizes")
    p.add_argument("--parts", type=int, default=3, help="parts per ring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("coverage", help="certify reachable vertex counts from 63 up")
    p.add_argument("--max", type=int, default=10000, help="upper end of the range")
    p.add_argument("--witnesses", action="store_true",
                   help="print one witness construction per count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("catalog", help="list the bundled corpus with check status")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_NumericalError, RealizationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_UsageError, ValueError) as exc:
        # ValueError covers ModelError, PlanError, ZeroLengthEdgeError and
        # DisconnectedGraphError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
