#!/usr/bin/env python3
"""Certification benchmark for the matchsticks package.

Runs one workload through the package's public API for a fixed time, checks
every output against an independent reference, and prints each metric by
name and unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead, and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload, each in its own process.  The
package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("corpus", "rings", "chains", "coverage")
SETUP_PROBES = 8  # set-ups timed in fresh processes, besides this process's own
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_s": "s",
    "graph_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "matchsticks" / "__init__.py").is_file():
        print("error: no package source under src/matchsticks next to perfbench/", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(_timed_setup(args.workload, args.seed)[0]))
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Fix what changes the numbers between runs; must run before numpy loads."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("MATCHSTICKS_CORPUS", None)  # always the bundled drawings


def _timed_setup(workload: str, seed: int):
    """Import the package, read the drawings and refine the glued parts, timed."""
    start = time.perf_counter()
    import workloads  # numpy and matchsticks load here, inside the timed region

    items = workloads.setup(workload, seed)
    return time.perf_counter() - start, items


def _child(args: argparse.Namespace, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def _probe_setup(args: argparse.Namespace) -> float:
    """One set-up in a fresh process, so import time is paid again."""
    done = _child(args, "--workload", args.workload, "--setup-probe")
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# -- one workload -----------------------------------------------------------------


def _run_one(args: argparse.Namespace) -> int:
    setup_s, items = _timed_setup(args.workload, args.seed)
    import matchsticks
    import tracing

    if not Path(matchsticks.__file__).resolve().is_relative_to(SRC):
        print(f"error: matchsticks imported from {matchsticks.__file__}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else functools.partial(_probe_setup, args)
    passes, setups = _measure(items, args.seconds, tracer, probe)
    attempted = len(items) * len(passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    print("env " + json.dumps(_environment(), sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {len(items)} outputs per pass, "
          f"{len(passes)} passes, {attempted} attempted, {len(failures)} failed, "
          f"error_rate {len(failures) / attempted:.6g} ratio")
    for p in passes:
        print(f"  pass {p.kind:9s} {sum(s for s in p.seconds if s is not None):.6g} s")
    best = _best_times(passes, "untraced")
    if not best:
        print("error: no output passed its checks", file=sys.stderr)
        return 1
    if tracer is None:
        setups.append(setup_s)
        graph_ms = [s * 1e3 for s in best]
        values = {
            "setup_s": min(setups),
            "certify_s": sum(best),
            "graph_p50_ms": statistics.median(graph_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"best of {len(setups)} set-ups, median {statistics.median(setups):.6g} s",
            "certify_s": f"sum of {len(best)} best-of-pass output times",
            "graph_p50_ms": f"{len(graph_ms)} outputs, best of {len(passes)} passes each",
        }
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = sum(_best_times(passes, "traced")) - sum(best)
        units = {**tracing.LAYER_METRICS, "trace.overhead_s": "s"}
        notes = {"trace.overhead_s": "traced minus untraced certify_s"}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.span_records()))
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:26s} {value:14.6g} {units[name]}{note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


class _Pass:
    def __init__(self, kind: str) -> None:
        self.kind = kind  # "warm-up", "untraced" or "traced"
        self.seconds: list[float | None] = []  # program time per item; None if it failed
        self.failures: list[str] = []


def _measure(items, seconds: float, tracer, probe) -> tuple[list[_Pass], list[float]]:
    """Run passes until ``seconds`` have passed; return them and the probed set-up times.

    With a tracer, a warm-up pass is checked but not timed, then untraced and
    traced passes alternate as U T T U U T ..., so that neither side gets the
    colder passes.  Without one, ``probe`` times SETUP_PROBES set-ups spread
    evenly over the run, between passes, so that they see the same host load
    as the passes do.
    """
    passes: list[_Pass] = []
    setups: list[float] = []
    start = time.perf_counter()
    if tracer is not None:
        passes.append(_run_pass(items, None, "warm-up"))
    timed = 0
    while True:
        if tracer is not None and timed % 4 in (1, 2):
            passes.append(_run_pass(items, tracer, "traced"))
        else:
            passes.append(_run_pass(items, None, "untraced"))
        timed += 1
        while (probe is not None and len(setups) < SETUP_PROBES
               and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES):
            setups.append(probe())
        if time.perf_counter() - start >= seconds and (tracer is None or timed >= 2):
            break
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(probe())
    return passes, setups


def _run_pass(items, tracer, kind: str) -> _Pass:
    result = _Pass(kind)
    if tracer is not None:
        tracer.start_pass()
    try:
        for item in items:
            if tracer is not None:
                tracer.graph = item.id
            elapsed = None
            try:
                start = time.perf_counter()
                output = item.run()
                elapsed = time.perf_counter() - start
                problem = item.check(output)
            except Exception as exc:  # a failed output is counted, not raised
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                result.failures.append(f"{item.id}: {problem}")
                elapsed = None
            result.seconds.append(elapsed)
    finally:
        if tracer is not None:
            tracer.stop_pass()
    return result


def _best_times(passes: list[_Pass], kind: str) -> list[float]:
    """Each output's fastest time over the passes of one kind (outputs that never passed are left out).

    A shared host can drift between a fast state and one ~1.6x slower for
    seconds at a time; the fastest of several passes is what stays steady.
    """
    per_item = zip(*(p.seconds for p in passes if p.kind == kind))
    return [min(ok) for times in per_item if (ok := [t for t in times if t is not None])]


def _environment() -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "matchsticks").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".seg"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _commit() -> str | None:
    """The checkout's git commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- every workload, one process each ------------------------------------------------


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = _child(args, "--workload", workload)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
