#!/usr/bin/env python3
"""Digests of a fixed sweep of command-line runs, to show two trees print the same.

Runs each command of the sweep in-process through ``matchsticks.cli.main``
over the bundled drawings and prints one line per command, the sha256 of its
stdout, its exit code and its arguments, and a last line with the sha256 of
all those lines.  Two checkouts whose sweep digests agree print identical
stdout and exit codes for every command in the sweep.  The sweep:

- ``catalog --json``;
- ``verify``, ``verify --raw``, ``rigidity`` and ``refine``, each with
  ``--json``, for every bundled drawing;
- ``verify --eps-separation 0.3 --json`` for every bundled drawing; 17 of
  them fail and print edge-edge, vertex-edge and vertex-vertex distances at
  full precision (fig1d, fig3b, fig4a and fig5b keep 0.5 and pass);
- ``refine fig2h --json`` stopped after one iteration, and stalled short of
  an unreachable target, both of which exit 3;
- three-part and four-part rings with ``construct ring --json``;
- three spacer chains with ``construct chain --json``; the 1,000-spacer
  one is a verdict that takes ``rigidity``'s inverse-iteration sweeps;
- ``coverage --json`` at ``--max`` 2000, 63 and 50000, the last the
  benchmark's size;
- ``construct mirror --json`` for the six line doubles, the fig2f point
  double and the fig2a double that fails verification, and a ``--ports``
  pair out of range;
- ``construct from-plan --json`` on a three-part ring plan, written to a
  temporary directory that the printed arguments name as ``TMP``;
- the default text output of ``catalog``, ``coverage --max 2000
  --witnesses``, ``coverage --max 50000 --witnesses``, ``coverage --max
  50000``, ``enumerate``, seven of the commands above and of ``verify``,
  ``verify --raw``, ``rigidity`` and ``refine`` for three drawings.

Usage: PYTHONPATH=src python scripts/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from matchsticks import cli, corpus


RING_PLAN = {
    "name": "ring(fig2a,fig2d,fig2h)",
    "parts": ["fig2a", "fig2d", {"part": "fig2h"}],
    "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]],
}


def sweep(plan_path: str) -> list[list[str]]:
    """The argument lists of the sweep, in the order they run."""
    commands = [["catalog", "--json"]]
    for name in corpus.corpus_names():
        commands += [
            ["verify", name, "--json"],
            ["verify", name, "--raw", "--json"],
            ["rigidity", name, "--json"],
            ["refine", name, "--json"],
            ["verify", name, "--eps-separation", "0.3", "--json"],
        ]
    commands += [  # each exits 3: the refinement stops short
        ["refine", "fig2h", "--max-iterations", "1", "--json"],
        ["refine", "fig2h", "--target-residual", "1e-300", "--json"],
    ]
    for parts in (["fig2a", "fig2d", "fig2h"], ["fig2g"] * 3, ["fig2b"] * 4):
        commands.append(["construct", "ring", *parts, "--json"])
    commands += [
        ["construct", "chain", "fig5a", "fig5c", "--spacers", "20", "--json"],
        ["construct", "chain", "fig5a", "fig5a", "--spacers", "7", "--json"],
        ["construct", "chain", "fig5a", "fig5c", "--spacers", "1000", "--json"],
        ["coverage", "--max", "2000", "--json"],
        ["coverage", "--max", "63", "--json"],
        ["coverage", "--max", "50000", "--json"],
    ]
    for name in ("fig2d", "fig2e", "fig2g", "fig2h", "fig5a", "fig5c"):
        commands.append(["construct", "mirror", name, "--json"])
    commands += [
        ["construct", "mirror", "fig2f", "--mode", "point", "--json"],
        ["construct", "mirror", "fig2a", "--json"],  # exits 1: the double is not a matchstick
        ["construct", "mirror", "fig2a", "--ports", "10,99", "--json"],  # exits 2
        ["construct", "from-plan", plan_path, "--json"],
    ]
    commands.append(["catalog"])
    for name in ("fig1d", "fig2g", "fig5b"):
        commands += [["verify", name], ["verify", name, "--raw"], ["rigidity", name], ["refine", name]]
    commands += [
        ["verify", "fig2a", "--eps-separation", "0.3"],  # exits 1
        ["refine", "fig2h", "--max-iterations", "1"],  # exits 3
        ["construct", "ring", "fig2a", "fig2d", "fig2h"],
        ["construct", "chain", "fig5a", "fig5c", "--spacers", "20"],
        ["construct", "mirror", "fig2f", "--mode", "point"],
        ["construct", "mirror", "fig2a"],  # exits 1
        ["construct", "from-plan", plan_path],
        ["coverage", "--max", "2000", "--witnesses"],
        ["coverage", "--max", "50000", "--witnesses"],
        ["coverage", "--max", "50000"],
        ["enumerate"],
    ]
    return commands


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> None:
    os.environ.pop(corpus.CORPUS_ENV, None)  # the bundled drawings
    whole = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = os.path.join(tmp, "ring-plan.json")
        with open(plan_path, "w") as f:
            json.dump(RING_PLAN, f)
        for argv in sweep(plan_path):
            code, stdout = run(argv)
            shown = " ".join(argv).replace(tmp, "TMP")
            line = f"{hashlib.sha256(stdout.encode()).hexdigest()}  {code}  {shown}"
            print(line)
            whole.update(line.encode() + b"\n")
    print(f"{whole.hexdigest()}  sweep")


if __name__ == "__main__":
    main()
