"""The scripts and the benchmark run end to end against the package in src/."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from matchsticks import corpus

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(corpus.CORPUS_ENV, None)  # the bundled drawings
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_constructions_certifies_all_twenty():
    lines = run_script("run_constructions.py")
    assert sum(line.endswith("  ok") for line in lines) == 20
    assert any(line.startswith("20 constructions certified") for line in lines)


def test_cli_digest_prints_the_same_digests_twice():
    first, second = run_script("cli_digest.py"), run_script("cli_digest.py")
    assert first == second
    *commands, sweep = first
    assert len(commands) == 167 and sweep.endswith("  sweep")
    codes = {" ".join(line.split()[2:]): line.split()[1] for line in commands}
    # every command succeeds but the failing fig2a double, the bad port, the
    # verifications at a separation most drawings do not keep and the refines
    # cut short, in JSON and in text
    assert codes.pop("construct mirror fig2a --json") == "1"
    assert codes.pop("construct mirror fig2a") == "1"
    assert codes.pop("verify fig2a --eps-separation 0.3") == "1"
    assert codes.pop("refine fig2h --max-iterations 1") == "3"
    assert codes.pop("construct mirror fig2a --ports 10,99 --json") == "2"
    wide = {"fig1d", "fig3b", "fig4a", "fig5b"}  # every clearance 0.5 or more
    for name in corpus.CORPUS_NAMES:
        code = codes.pop(f"verify {name} --eps-separation 0.3 --json")
        assert code == ("0" if name in wide else "1")
    assert codes.pop("refine fig2h --max-iterations 1 --json") == "3"
    assert codes.pop("refine fig2h --target-residual 1e-300 --json") == "3"
    assert set(codes.values()) == {"0"}


def test_traced_benchmark_pass_binds_the_package(tmp_path):
    # a copy, so that the spans it writes stay out of the checkout; the
    # benchmark checks that the package it imports lies in its own src/
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "chains", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"]
    metrics = result["metrics"]
    assert metrics["construct.realize_s"]["value"] > 0
    assert metrics["refine.glue_iterations"]["value"] > 0
