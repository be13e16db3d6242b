"""The scripts and the benchmark run end to end against the package in src/."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

from matchsticks import corpus
from matchsticks.ingest import parse_segment_file

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    """A script under scripts/ imported as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


extract_corpus = load_script("extract_corpus")


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
    assert len(commands) == 151 and sweep.endswith("  sweep")
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
    for name in corpus.corpus_names():
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


def tikz_source(segment_lists) -> str:
    """A document with one tikzpicture per list of (x1, y1, x2, y2) strings, amid prose."""
    blocks = [
        "\\begin{tikzpicture}[scale=0.5]\n"
        + "".join(f"  \\draw ({a},{b}) -- ( {c} , {d} );\n" for a, b, c, d in segments)
        + "\\end{tikzpicture}"
        for segments in segment_lists
    ]
    return "Some prose (1,2) -- (3,4) outside any picture.\n" + "\ntext\n".join(blocks) + "\n"


def test_extract_reads_segments_from_each_tikzpicture_in_order():
    first = [("0", "0", "1", "0"), ("1", "0", "0.5", "0.866")]
    second = [("-2.5", "1.25", "-1.5", "1.25")]
    assert extract_corpus.extract(tikz_source([first, second])) == [first, second]


def test_extract_corpus_writes_one_file_per_manifest_entry(tmp_path, capsys):
    figures = [[(str(k), "0", str(k + 1), "0")] for k in range(len(extract_corpus.FIGURE_MANIFEST))]
    source = tmp_path / "paper.tex"
    source.write_text(tikz_source(figures))
    assert extract_corpus.main(["extract_corpus.py", str(source), str(tmp_path / "out")]) == 0
    for (name, vertices, *_), [segment] in zip(extract_corpus.FIGURE_MANIFEST, figures):
        written = parse_segment_file((tmp_path / "out" / f"{name}.seg").read_text())
        assert written.metadata["name"] == name
        assert written.metadata["claimed_vertices"] == vertices
        assert written.segments.tolist() == [[float(x) for x in segment]]
    assert len(capsys.readouterr().out.splitlines()) == len(figures)


def test_extract_corpus_refuses_a_source_with_another_figure_count(tmp_path, capsys):
    source = tmp_path / "paper.tex"
    source.write_text(tikz_source([[("0", "0", "1", "0")]] * 2))
    out = tmp_path / "out"
    assert extract_corpus.main(["extract_corpus.py", str(source), str(out)]) == 1
    assert "found 2" in capsys.readouterr().err
    assert not out.exists()


def test_extract_corpus_exits_2_on_a_source_it_cannot_read(tmp_path, capsys):
    undecodable = tmp_path / "binary.tex"
    undecodable.write_bytes(b"\xff\xfe\x00")
    for source in (tmp_path / "missing.tex", tmp_path, undecodable):
        assert extract_corpus.main(["extract_corpus.py", str(source), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")
    assert not (tmp_path / "out").exists()


def test_extract_corpus_exits_2_on_an_output_it_cannot_write(tmp_path, capsys):
    figures = [[("0", "0", "1", "0")]] * len(extract_corpus.FIGURE_MANIFEST)
    source = tmp_path / "paper.tex"
    source.write_text(tikz_source(figures))
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert extract_corpus.main(["extract_corpus.py", str(source), str(blocked)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_figure_manifest_matches_the_bundled_drawings():
    folder = resources.files("matchsticks").joinpath("corpus")
    bundled = {
        entry.name[: -len(".seg")]: parse_segment_file(entry.read_text()).metadata
        for entry in folder.iterdir()
        if entry.name.endswith(".seg")
    }
    assert len(bundled) == 21
    manifest = {
        name: {
            "name": name,
            "claimed_vertices": vertices,
            "claimed_profile": profile,
            "claimed_rigidity": rigidity,
        }
        for name, vertices, profile, rigidity in extract_corpus.FIGURE_MANIFEST
    }
    assert manifest == bundled
    # each drawing once, in figure order
    assert [name for name, *_ in extract_corpus.FIGURE_MANIFEST] == sorted(bundled)
