"""Command-line interface: exit codes, output formats, determinism."""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from conftest import triangle_strip, unit_triangle
from matchsticks import cli, construct, corpus, pipeline
from matchsticks.cli import main
from matchsticks.construct import (
    ChainSpec,
    PartSpec,
    chain_extend,
    degree2_vertices,
    mirror_double,
    plan_from_json,
    realize,
    ring_plan,
)
from matchsticks.counting import (
    DEFAULT_COVERAGE,
    WINDOW,
    ArithmeticFamily,
    CoverageSources,
    Inventory,
    theorem1_coverage,
)
from matchsticks.ingest import emit_segments
from matchsticks.refine import refine
from matchsticks.rigidity import analyze_rigidity
from matchsticks.verify import Tolerances, verify_matchstick

TRIANGLE = """\
! name tri
0 0  1 0
1 0  0.5 0.8660254037844386
0.5 0.8660254037844386  0 0
"""

# unit triangle with an extra unit bar whose near endpoint sits on a side
TOUCHING_BAR = TRIANGLE + """\
0.5 0  0.5 -1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------


def test_verify_corpus_name(capsys):
    code, out, err = run(capsys, "verify", "fig1a")
    assert code == 0 and err == ""
    assert "classification: 4-regular matchstick, 52 vertices" in out
    assert "unit length: worst deviation" in out


def test_verify_two_port_part(capsys):
    code, out, _ = run(capsys, "verify", "fig2a")
    assert code == 0
    assert "(2,4)-regular matchstick with 2 degree-2 vertices" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "fig1a")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["is_matchstick"] is True
    assert payload["graph"] == {"name": "fig1a", "vertices": 52, "edges": 104}


def test_verify_raw_uses_drawing_tolerances(capsys):
    code, out, _ = run(capsys, "verify", "--raw", "fig1a")
    assert code == 0
    assert "classification: 4-regular matchstick" in out


def test_verify_file(tmp_path, capsys):
    path = tmp_path / "tri.seg"
    path.write_text(TRIANGLE)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "(2,4)-regular matchstick with 3 degree-2 vertices" in out


def test_verify_detects_clearance_violation(tmp_path, capsys):
    path = tmp_path / "touch.seg"
    path.write_text(TOUCHING_BAR)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "violation" in out
    assert "not-a-matchstick-graph" in out


def test_verify_missing_input(capsys):
    code, _, err = run(capsys, "verify", "no-such-thing")
    assert code == 2
    assert "no such file or corpus graph" in err


def test_verify_unparseable_file(tmp_path, capsys):
    path = tmp_path / "bad.seg"
    path.write_text("! name bad\n0 0 1\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err


def test_verify_file_whose_merged_coordinates_overflow(tmp_path):
    # every coordinate is finite, but the median length and the centroid sums are not
    path = tmp_path / "huge.seg"
    path.write_text("! name x\n0 0 1e308 0\n1e308 0 1e308 1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "matchsticks.cli", "verify", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {path}: the drawing's coordinates overflow float64 when merged or scaled\n"
    )


def _plan_file(tmp_path, text):
    path = tmp_path / "plan.json"
    path.write_text(text)
    return str(path)


def _binary_file(path):
    path.write_bytes(b"\xff\xfe\x00garbage")
    return str(path)


def _segment_file(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv,corpus_dir,message",
    [
        (lambda tmp: ["construct", "from-plan",
                      _plan_file(tmp, '{"parts": [1, 2], "identifications": []}')], None,
         "each part must be a name or an object with a string 'part'"),
        (lambda tmp: ["construct", "from-plan",
                      _plan_file(tmp, '{"parts": [{"reflect": true}], "identifications": []}')],
         None, "each part must be a name or an object with a string 'part'"),
        (lambda tmp: ["construct", "from-plan",
                      _plan_file(tmp, '{"parts": ["fig2a"], "identifications": 5}')], None,
         "plan document needs the list fields"),
        (lambda tmp: ["construct", "from-plan",
                      _plan_file(tmp, '{"parts": ["no-such-part"], "identifications": []}')],
         None, "no-such-part: no such file or corpus graph"),
        (lambda tmp: ["verify", str(tmp)], None, "Is a directory"),
        (lambda tmp: ["catalog"], "no-such-dir", "is not a directory"),
        (lambda tmp: ["refine", "fig2a", "-o", str(tmp / "no-such-dir" / "x.seg")], None,
         "No such file or directory"),
        (lambda tmp: ["construct", "ring", "fig2a", "fig2a", "fig2a",
                      "-o", str(tmp / "no-such-dir" / "x.seg")], None,
         "No such file or directory"),
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, "[" * 200000)], None,
         "plan document is nested too deeply"),
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, "! name fig2a\n")], None,
         "plan document is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (lambda tmp: ["construct", "from-plan", _binary_file(tmp / "bin.json")], None,
         "bin.json: 'utf-8' codec can't decode byte 0xff in position 0"),
        (lambda tmp: ["verify", _binary_file(tmp / "bin.seg")], None,
         "bin.seg: 'utf-8' codec can't decode byte 0xff in position 0"),
        # plans whose parts and joints form no path or cycle that realize can lay out
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, json.dumps(
            {"parts": ["fig2a"] * 3, "identifications": [[0, 1, 1, 0], [1, 1, 2, 0]]}))],
         None, "error: chain neighbors must share exactly two joints"),
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, json.dumps(
            {"parts": ["fig5b"] + ["fig2a"] * 3,
             "identifications": [[0, 0, 1, 0], [0, 1, 2, 0], [0, 2, 3, 0], [1, 1, 2, 1]]}))],
         None, "error: unsupported plan topology (a part has more than two neighbors)"),
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, json.dumps(
            {"parts": ["fig5b"] * 3,
             "identifications": [[i, a, (i + 1) % 3, b] for i in range(3)
                                 for a, b in ((2, 0), (3, 1))]}))],
         None, "error: cycle neighbors must share exactly one joint"),
        # spacer slots 0 and 2 are the ports of one triangle
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, json.dumps(
            {"parts": ["fig5a", "fig5b", "fig5a"],
             "identifications": [[0, 0, 1, 0], [0, 1, 1, 2], [1, 1, 2, 0], [1, 3, 2, 1]]}))],
         None, "error: chain joints do not respect spacer port pairs"),
        # fig1a is 4-regular: no ports to glue the chain's first spacer to
        (lambda tmp: ["construct", "chain", "fig1a", "fig5a"], None,
         "error: chain end fig1a has 0 ports (degree-2 vertices); "
         "it needs 2, or the spacer's shape"),
        # a mark per count is 1e15 bytes, beyond the address space, so the allocation fails at once
        (lambda tmp: ["coverage", "--max", "1000000000000000"], None,
         "--max 1000000000000000: too many counts to check in memory"),
        # 1e20 marks do not fit a machine-sized length at all
        (lambda tmp: ["coverage", "--max", "100000000000000000000"], None,
         "--max 100000000000000000000: too many counts to check in memory"),
        # the 3.47 EiB tiling exceeds the address space, so it too fails at once
        (lambda tmp: ["construct", "chain", "fig5a", "fig5c", "--spacers", "1000000000000000000"],
         None, "--spacers 1000000000000000000: too many spacers to build in memory"),
        # below 2v eps the rigid motions' rounding would count towards the rank
        (lambda tmp: ["rigidity", "fig3a", "--rank-tol", "1e-16"], None,
         "error: rank tolerance 1e-16 is below the rounding floor 2.8e-14"),
        (lambda tmp: ["construct", "ring", "fig2a"], None,
         "error: a ring needs at least 2 parts\n"),
        (lambda tmp: ["construct", "mirror", "fig5b"], None,
         "error: graph has 4 degree-2 vertices; pass --ports a,b\n"),
        (lambda tmp: ["construct", "from-plan",
                      _plan_file(tmp, '{"parts": [], "identifications": []}')], None,
         "error: plan has no parts\n"),
        (lambda tmp: ["construct", "from-plan", _plan_file(tmp, json.dumps(
            {"parts": ["fig2a", "fig2a"], "identifications": [[0, 1, 5, 0]]}))],
         None, "error: part index 5 out of range\n"),
        (lambda tmp: ["verify", _segment_file(tmp / "bare.seg",
                                              "! name x\n! claimed_vertices\n0 0 1 0\n")],
         None, "bare.seg: line 2: metadata line needs a key and a value\n"),
        (lambda tmp: ["verify", _segment_file(tmp / "empty.seg", "! name x\n")], None,
         "empty.seg: no data lines\n"),
        (lambda tmp: ["verify", _segment_file(tmp / "nan.seg", "! name x\n0 0 nan 0\n")], None,
         "nan.seg: non-finite coordinate\n"),
    ],
    ids=["parts-not-objects", "part-without-name", "identifications-not-a-list", "unknown-part",
         "directory-as-graph", "missing-corpus-directory", "unwritable-refine-output",
         "unwritable-construct-output", "deeply-nested-plan", "plan-not-json",
         "plan-not-utf8", "graph-not-utf8", "plan-chain-one-joint", "plan-part-three-neighbors",
         "plan-cycle-two-joints", "plan-spacer-entered-one-side", "chain-end-without-ports",
         "coverage-max-beyond-memory", "coverage-max-beyond-index-size",
         "chain-spacers-beyond-memory", "rank-tolerance-below-rounding", "ring-of-one",
         "mirror-without-ports", "plan-without-parts", "plan-part-out-of-range",
         "bare-metadata-key", "no-data-lines", "nan-coordinate"],
)
def test_hostile_input_is_a_usage_error(
    argv, corpus_dir, message, tmp_path, monkeypatch, capsys
):
    if corpus_dir is not None:
        monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path / corpus_dir))
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "content, message",
    [
        (b"0 0 1 0\n1 0 1 1\n1 1 0\n", "bad: line 3: expected 4 coordinates, got 3"),
        (b"\xff\xfe\x00garbage", "bad: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["malformed", "not-utf8"],
)
@pytest.mark.parametrize(
    "argv", [["verify", "bad"], ["catalog"], ["construct", "chain", "bad", "bad"]],
    ids=lambda argv: argv[0],
)
def test_corpus_drawing_errors_name_the_drawing(
    argv, content, message, tmp_path, monkeypatch, capsys
):
    (tmp_path / "bad.seg").write_bytes(content)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_corpus_errors_print_unquoted(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "no-such-dir"
    monkeypatch.setenv(corpus.CORPUS_ENV, str(missing))
    code, _, err = run(capsys, "catalog")
    assert code == 2
    assert err == f"error: {corpus.CORPUS_ENV}={missing} is not a directory\n"


# the six unit edges of K4, which no unit-distance drawing has: it does not refine
K4 = """\
! name fig5b
0 0  1 0
1 0  0.5 0.8660254037844386
0.5 0.8660254037844386  0 0
0 0  0.5 0.2886751345948129
1 0  0.5 0.2886751345948129
0.5 0.8660254037844386  0.5 0.2886751345948129
"""


@pytest.mark.parametrize(
    "content, message",
    [
        (K4.encode(), "error: corpus graph fig5b did not refine (final residual "),
        (b"! name fig5b\n0 0 1 0\n1 0 1\n",
         "error: corpus graph fig5b: line 3: expected 4 coordinates, got 3\n"),
        (b"\xff\xfe\x00garbage",
         "error: corpus graph fig5b: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["does-not-refine", "malformed", "not-utf8"],
)
def test_default_spacer_that_does_not_load_is_named(
    content, message, tmp_path, monkeypatch, capsys
):
    # the chain's default spacer is the corpus's refined fig5b
    for name in ("fig5a", "fig5c"):
        (tmp_path / f"{name}.seg").write_text(
            resources.files("matchsticks").joinpath(f"corpus/{name}.seg").read_text()
        )
    (tmp_path / "fig5b.seg").write_bytes(content)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    code, _, err = run(capsys, "construct", "chain", "fig5a", "fig5c", "--spacers", "2")
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1


# a second unit triangle on vertex (0, 0), turned by 10 degrees: its sticks cross the first's
BOWTIE = TRIANGLE.replace("! name tri", "! name bowtie") + """\
0 0  0.984807753012208 0.17364817766693033
0.984807753012208 0.17364817766693033  0.3420201433256688 0.9396926207859083
0.3420201433256688 0.9396926207859083  0 0
"""


@pytest.mark.parametrize(
    "text, code, status",
    [
        (BOWTIE, 1, "verification failed"),
        (TRIANGLE.replace("! name tri\n", "! name tri\n! claimed_rigidity flexible\n"), 0,
         "no flex found"),
    ],
    ids=["fails-verification", "claimed-flexible-but-rigid"],
)
def test_catalog_reports_the_deviations_of_an_override_corpus(
    text, code, status, tmp_path, monkeypatch, capsys
):
    (tmp_path / "drawing.seg").write_text(text)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    got, out, _ = run(capsys, "catalog")
    assert got == code
    (row,) = out.splitlines()[1:]
    assert row.startswith("drawing ") and row.endswith(f" {status}")


@pytest.mark.parametrize(
    "argv, name, code",
    [
        (["verify", "PATH"], "", errno.EISDIR),
        (["refine", "fig2a", "-o", "PATH"], "no-such-dir/x.seg", errno.ENOENT),
        (["construct", "from-plan", "PATH"], "", errno.EISDIR),
        (["construct", "from-plan", "PATH"], "nope.json", errno.ENOENT),
    ],
    ids=["load-graph", "write-segments", "plan-directory", "plan-missing"],
)
def test_file_errors_name_the_path_once(argv, name, code, tmp_path, capsys):
    path = str(tmp_path / name)
    status, _, err = run(capsys, *[path if arg == "PATH" else arg for arg in argv])
    assert status == 2
    assert err == f"error: {path}: {os.strerror(code)}\n"


def test_unknown_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# -- refine -------------------------------------------------------------------


def test_refine_writes_output(tmp_path, capsys):
    out_path = tmp_path / "refined.seg"
    code, out, _ = run(capsys, "refine", "fig2a", "-o", str(out_path))
    assert code == 0
    assert "converged: yes" in out
    assert f"wrote {out_path}" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0


def test_refine_json(capsys):
    code, out, _ = run(capsys, "refine", "--json", "fig2a")
    assert code == 0
    payload = json.loads(out)
    assert payload["refinement"]["converged"] is True
    assert payload["refinement"]["final_residual"] <= 1e-12
    assert payload["refinement"]["iterations"] >= 1


# -- rigidity -----------------------------------------------------------------


def test_rigidity_text(capsys):
    code, out, _ = run(capsys, "rigidity", "fig2a")
    assert code == 0
    assert "rank: 41 of 41" in out
    assert "internal flexes: 0" in out
    assert "classification: rigid" in out
    assert "smallest singular values:" in out


def test_rigidity_flexible_graph(capsys):
    code, out, _ = run(capsys, "rigidity", "fig5b")
    assert code == 0
    assert "classification: flexible" in out


@pytest.mark.parametrize("tol", ["-1", "0", "1", "nan"])
def test_rigidity_rejects_rank_tolerance_outside_the_unit_interval(tol, capsys):
    code, out, err = run(capsys, "rigidity", "fig2a", "--rank-tol", tol)
    assert code == 2
    assert out == ""
    assert "rank tolerance" in err


def test_rigidity_json(capsys):
    code, out, _ = run(capsys, "rigidity", "--json", "fig2a")
    assert code == 0
    payload = json.loads(out)
    assert payload["rigidity"]["rigid"] is True
    assert payload["rigidity"]["internal_flexes"] == 0
    assert payload["graph"]["vertices"] == 22


# -- construct ----------------------------------------------------------------


def test_construct_mirror(tmp_path, capsys):
    out_path = tmp_path / "m66.seg"
    code, out, _ = run(capsys, "construct", "mirror", "fig2d", "-o", str(out_path))
    assert code == 0
    assert "66 vertices" in out
    assert "classification: 4-regular matchstick" in out
    code, _, _ = run(capsys, "verify", str(out_path))
    assert code == 0


def test_construct_mirror_point_mode(capsys):
    code, out, _ = run(capsys, "construct", "mirror", "fig2f", "--mode", "point")
    assert code == 0
    assert "70 vertices" in out


def test_construct_mirror_bad_ports(capsys):
    code, _, err = run(capsys, "construct", "mirror", "fig2d", "--ports", "1;2")
    assert code == 2
    assert "--ports expects two comma-separated vertex indices" in err


@pytest.mark.parametrize("ports", ["10,99", "10,-1", "0,10", "10,10"])
def test_construct_mirror_ports_out_of_range(capsys, ports):
    # fig2a's degree-2 vertices are 10 and 21; its vertex 0 has degree 4
    code, out, err = run(capsys, "construct", "mirror", "fig2a", "--ports", ports)
    assert code == 2 and out == ""
    expected = {
        "10,99": "join vertex 99 is not one of the degree-2 vertices [10, 21]",
        "10,-1": "join vertex -1 is not one of the degree-2 vertices [10, 21]",
        "0,10": "join vertex 0 is not one of the degree-2 vertices [10, 21]",
        "10,10": "join vertex 10 is passed twice",
    }[ports]
    assert err == f"error: {expected}\n"


def test_construct_ring(capsys):
    code, out, _ = run(capsys, "construct", "ring", "fig2a", "fig2a", "fig2a")
    assert code == 0
    assert "63 vertices" in out
    assert "ring(fig2a,fig2a,fig2a)" in out


def test_construct_never_analyzes_rigidity(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("construct must not analyze rigidity")

    monkeypatch.setattr(pipeline, "analyze_rigidity", refuse)
    code, out, _ = run(capsys, "construct", "ring", "fig2a", "fig2a", "fig2a")
    assert code == 0
    assert "63 vertices" in out


def test_construct_mirror_unconverged_is_numerical_failure(monkeypatch, capsys):
    real_refine = pipeline.refine

    def stalled(g):
        return dataclasses.replace(real_refine(g), converged=False)

    monkeypatch.setattr(pipeline, "refine", stalled)
    code, out, err = run(capsys, "construct", "mirror", "fig2d")
    assert code == 3
    assert out == ""
    assert "refinement did not converge" in err


def test_construct_ring_mismatched_parts_is_numerical_failure(capsys):
    code, _, err = run(capsys, "construct", "ring", "fig2a", "fig2b")
    assert code == 3
    assert "error:" in err


def test_construct_ring_with_a_circumcentre_outside_is_no_matchstick_graph(tmp_path, capsys):
    # the long strip's circumcentre lies outside the ring's polygon: the ring
    # realizes, and its triangles overlap the strip
    strip, tri = tmp_path / "strip.seg", tmp_path / "triangle.seg"
    strip.write_text(emit_segments(triangle_strip(4)))
    tri.write_text(emit_segments(unit_triangle()))
    code, out, err = run(capsys, "construct", "ring", str(strip), str(tri), str(tri), str(tri))
    assert (code, err) == (1, "")
    assert "(11 vertices, 18 edges)" in out
    assert "classification: not-a-matchstick-graph, 11 vertices" in out


def test_construct_chain(capsys):
    code, out, _ = run(capsys, "construct", "chain", "fig5a", "fig5a", "--spacers", "1")
    assert code == 0
    assert "97 vertices" in out


def test_construct_from_plan(tmp_path, capsys):
    plan = {
        "name": "r63",
        "parts": [{"part": "fig2a"}] * 3,
        "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, _ = run(capsys, "construct", "from-plan", str(plan_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["vertices"] == 63
    assert payload["verification"]["is_matchstick"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["mirror", "fig2d"],
        ["mirror", "fig2f", "--mode", "point"],
        ["ring", "fig2a", "fig2a", "fig2a"],
        ["chain", "fig5a", "fig5a"],
        ["chain", "fig5a", "fig5c", "--spacers", "20"],
        ["from-plan", "PLAN"],
    ],
)
def test_construct_makes_one_refine_call_the_glue_solve(argv, tmp_path, monkeypatch, capsys):
    plan = {"parts": ["fig2a"] * 3, "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    argv = [str(tmp_path / "plan.json") if arg == "PLAN" else arg for arg in argv]
    calls = []

    def recording(module):
        real_refine = module.refine

        def recording_refine(g, *args, **kwargs):
            calls.append((module.__name__, len(kwargs.get("coincidences", ()))))
            return real_refine(g, *args, **kwargs)

        monkeypatch.setattr(module, "refine", recording_refine)

    recording(construct)
    recording(cli)
    code, _, _ = run(capsys, "construct", *argv)
    assert code == 0
    # parts go in as loaded; certify's own refine of the result is pipeline's
    assert len(calls) == 1
    (module, glued), = calls
    assert module == "matchsticks.construct" and glued > 0


@pytest.mark.parametrize(
    "argv, vertices",
    [
        (["ring", "fig2a", "fig2d", "fig2h"], 94),
        (["ring", "fig2b", "fig2b", "fig2b", "fig2b"], 116),
        (["chain", "fig5a", "fig5c", "--spacers", "20", "--spacer", "fig5b"], 155),
        (["chain", "fig5b", "fig5a", "--spacers", "2"], 57),  # an end shaped like a spacer
    ],
)
def test_construct_from_raw_drawings_certifies(argv, vertices, capsys):
    code, out, _ = run(capsys, "construct", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["is_matchstick"] is True
    assert payload["graph"]["vertices"] == vertices


def test_construct_mirror_with_a_vertex_on_the_axis_fails_verification(tmp_path, capsys):
    # two unit triangles meeting at (1, 0), on the line through the join vertices
    h = math.sqrt(3) / 2
    path = tmp_path / "bowtie.seg"
    path.write_text(
        f"! name bowtie\n0 0  0.5 {h}\n0 0  1 0\n0.5 {h}  1 0\n1 0  2 0\n1 0  1.5 {h}\n2 0  1.5 {h}\n"
    )
    code, out, err = run(capsys, "construct", "mirror", str(path), "--ports", "0,3")
    assert code == 1 and err == ""
    assert "not-a-matchstick-graph" in out


def test_construct_from_plan_without_a_name_prints_unnamed(tmp_path, capsys):
    plan = {"parts": ["fig2a"] * 3, "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]]}
    code, out, _ = run(capsys, "construct", "from-plan", _plan_file(tmp_path, json.dumps(plan)))
    assert code == 0
    assert out.splitlines()[0] == "built: (unnamed) (63 vertices, 126 edges)"


def test_construct_from_plan_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "from-plan", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


# -- enumerate and coverage ---------------------------------------------------


def test_enumerate_single_size(capsys):
    code, out, _ = run(capsys, "enumerate", "--inventory", "5", "--parts", "3")
    assert code == 0
    assert out == "12 1\ntotal 1\n"


def test_enumerate_default_inventory(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert out.splitlines()[-1] == "total 120"
    assert out.splitlines()[0].split()[:2] == ["63", "1"]


def test_enumerate_bad_inventory(capsys):
    code, _, err = run(capsys, "enumerate", "--inventory", "5,x")
    assert code == 2
    assert "bad inventory" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--inventory", "3,1000000000", "--parts", "3"],
         "3 parts of sizes 3 to 1000000000 need more than a million table entries"),
        (["--parts", "100000"],
         "100000 parts of sizes 22 to 41 need more than a million table entries"),
    ],
)
def test_enumerate_beyond_a_million_entries_is_refused(argv, message, capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "enumerate", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert (out, err) == ("", f"error: {message}\n")
    assert peak < 1e6


def test_coverage(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "200")
    assert code == 0
    assert "range: [63, 200]" in out
    assert "missing: none" in out


def test_coverage_witnesses(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "70", "--witnesses")
    assert code == 0
    assert "  63: ring of 3 parts (22+22+22 vertices)" in out
    assert "  66: mirror double of fig2d" in out


def test_coverage_json(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "100", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True and payload["missing"] == []


def test_coverage_and_enumerate_json_list_counts_in_numeric_order(capsys):
    _, out, _ = run(capsys, "coverage", "--max", "2000", "--json")
    assert list(json.loads(out)["witnesses"]) == [str(v) for v in range(63, 2001)]
    _, out, _ = run(capsys, "enumerate", "--json")
    counts = [int(v) for v in json.loads(out)["rows"]]
    assert counts == sorted(counts) and counts[0] == 63 and counts[-1] > 100


# -- catalog ------------------------------------------------------------------


def test_catalog_lists_whole_corpus(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + len(corpus.corpus_names())
    for name in corpus.corpus_names():
        assert any(line.startswith(name) for line in lines[1:])


def test_catalog_is_deterministic(capsys):
    _, first, _ = run(capsys, "catalog")
    _, second, _ = run(capsys, "catalog")
    assert first == second


@pytest.fixture(scope="module")
def catalog_json():
    """Exit code and rows of one ``catalog --json`` run over the bundled drawings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["catalog", "--json"])
    return code, json.loads(out.getvalue())["corpus"]


def test_catalog_json(catalog_json):
    code, rows = catalog_json
    assert code == 0
    assert len(rows) == len(corpus.corpus_names())
    by_name = {row["graph"]["name"]: row for row in rows}
    assert by_name["fig1a"]["certified"] is True
    assert by_name["fig5b"]["claimed_rigidity"] == "flexible"


def test_catalog_rows_agree_with_certify(catalog_json):
    """Each row is the drawing's certificate document, then the catalog's own keys."""
    _, rows = catalog_json
    assert [row["graph"]["name"] for row in rows] == list(corpus.corpus_names())
    for row in rows:
        name = row["graph"]["name"]
        cert = pipeline.certify(corpus.load_graph(name))
        assert row["refinement"]["final_residual"] == cert.refinement.final_residual
        assert row["certified"] is cert.certified
        assert row["rigidity"]["internal_flexes"] == cert.rigidity.internal_flexes
        expected = _round_trip(cert.to_json_dict())
        assert list(row) == [*expected, "claimed_rigidity", "status", "raw_deviation", "clearances"]
        _check_graph(row, name, cert.graph)
        assert {k: row[k] for k in expected} == expected


def test_catalog_json_has_a_row_per_corpus_graph(catalog_json):
    _, rows = catalog_json
    assert [row["graph"]["name"] for row in rows] == list(corpus.corpus_names())
    for row in rows:
        assert 0 < row["raw_deviation"] < 1e-3
        clearances = row["clearances"]
        assert list(clearances) == ["edge_edge", "vertex_vertex", "vertex_edge"]
        assert all(0 < c < 1.5 for c in clearances.values())


def _drawn_lengths(name):
    """Segment lengths of a bundled drawing, read from its text without the package's parser."""
    text = resources.files("matchsticks").joinpath(f"corpus/{name}.seg").read_text()
    rows = [line.split() for line in text.splitlines()]
    coords = np.array([row for row in rows if row and row[0][0] not in "!#"], dtype=float)
    return np.hypot(coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1])


def test_catalog_raw_deviation_is_relative_to_the_median_length(catalog_json):
    _, rows = catalog_json
    by_name = {row["graph"]["name"]: row for row in rows}
    for name in ("fig1b", "fig2a", "fig5a"):
        lengths = _drawn_lengths(name)
        expected = float(np.max(np.abs(lengths / np.median(lengths) - 1)))
        assert by_name[name]["raw_deviation"] == pytest.approx(expected, rel=1e-12)
    # the largest in the corpus; the drawing's unit is 43.77, which the
    # deviation must not be divided by a second time
    assert by_name["fig1b"]["raw_deviation"] == pytest.approx(1.735e-4, rel=1e-3)
    assert max(row["raw_deviation"] for row in rows) == by_name["fig1b"]["raw_deviation"]


def test_catalog_json_writes_an_empty_clearance_as_null(tmp_path, monkeypatch, capsys):
    (tmp_path / "tri.seg").write_text(TRIANGLE)  # every edge pair shares a vertex
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0 and "Infinity" not in out
    (row,) = json.loads(out)["corpus"]
    assert row["clearances"]["edge_edge"] is None
    assert row["clearances"]["vertex_vertex"] == pytest.approx(1.0)


def test_catalog_skips_a_directory_named_like_a_drawing(tmp_path, monkeypatch, capsys):
    (tmp_path / "fig2a.seg").write_text(
        resources.files("matchsticks").joinpath("corpus/fig2a.seg").read_text()
    )
    (tmp_path / "zz.seg").mkdir()
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    assert corpus.corpus_names() == ("fig2a",)
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    assert [row["graph"]["name"] for row in json.loads(out)["corpus"]] == ["fig2a"]


# -- one JSON shape -----------------------------------------------------------


def _round_trip(document):
    return json.loads(json.dumps(document))


def _part(name):
    return PartSpec(corpus.load_graph(name), label=name)


def _refined(name):
    return refine(corpus.load_graph(name)).graph


RING_PLAN = {"parts": ["fig2a"] * 3, "identifications": [[0, 1, 1, 0], [1, 1, 2, 0], [2, 1, 0, 0]]}

# each command, and the reports its sections must reproduce
REPORT_CASES = {
    "verify": (["verify", "fig2a"], lambda: {"verification": verify_matchstick(_refined("fig2a"))}),
    "verify-raw": (
        ["verify", "fig2a", "--raw"],
        lambda: {"verification": verify_matchstick(corpus.load_graph("fig2a"), Tolerances.raw())},
    ),
    "refine": (["refine", "fig2h"], lambda: {"refinement": refine(corpus.load_graph("fig2h"))}),
    "rigidity": (["rigidity", "fig2g"], lambda: {"rigidity": analyze_rigidity(_refined("fig2g"))}),
}
CONSTRUCT_CASES = {
    "mirror": (
        ["mirror", "fig2f", "--mode", "point"],
        lambda: mirror_double(g := corpus.load_graph("fig2f"), *degree2_vertices(g), "point"),
    ),
    "ring": (["ring", "fig2a", "fig2d", "fig2h"],
             lambda: realize(ring_plan([_part("fig2a"), _part("fig2d"), _part("fig2h")]))),
    "chain": (["chain", "fig5a", "fig5c", "--spacers", "3"],
              lambda: chain_extend(ChainSpec(_part("fig5a"), _part("fig5c"), 3, None))),
    "from-plan": (["from-plan", "PLAN"],
                  lambda: realize(plan_from_json(json.dumps(RING_PLAN), corpus.load_graph))),
}


def _check_graph(document, name, g):
    assert list(document["graph"]) == ["name", "vertices", "edges"]
    assert document["graph"] == {"name": name, "vertices": g.vertex_count, "edges": g.edge_count}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_commands_print_the_one_shape(case, capsys):
    argv, reports = REPORT_CASES[case]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    document, expected = json.loads(out), reports()
    assert list(document) == ["graph", *expected]
    _check_graph(document, argv[1], corpus.load_graph(argv[1]))
    for section, report in expected.items():
        assert document[section] == _round_trip(report.to_json_dict())


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "with-output"])
@pytest.mark.parametrize("case", CONSTRUCT_CASES)
def test_construct_prints_the_certificate_document(case, output, tmp_path, capsys):
    argv, build = CONSTRUCT_CASES[case]
    (tmp_path / "plan.json").write_text(json.dumps(RING_PLAN))
    argv = [str(tmp_path / "plan.json") if arg == "PLAN" else arg for arg in argv]
    extra = ["-o", str(tmp_path / "out.seg")] if output else []
    code, out, _ = run(capsys, "construct", *argv, *extra, "--json")
    assert code == 0
    document, cert = json.loads(out), pipeline.certify(build())
    keys = ["graph", "refinement", "verification", "rigidity", "certified"]
    assert list(document) == keys + (["output"] if output else [])
    _check_graph(document, cert.graph.name, cert.graph)
    expected = _round_trip(cert.to_json_dict())
    assert {k: document[k] for k in keys} == expected
    assert document["certified"] is True
    if output:
        assert document["output"] == str(tmp_path / "out.seg")


# -- the JSON printer ---------------------------------------------------------


def _prints_json_dumps(payload, capsys):
    cli._print_json(payload)
    return capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


ODD_WITNESSES = CoverageSources(
    inventory=Inventory((22,)),
    ring_size=3,
    mirror_doubles={},
    corpus_graphs={},
    extra_rings={64: 'say "ring"', 65: "back\\slash", 66: "bell\x07\ttab\n", 67: "Möbius ∞"},
    families=(ArithmeticFamily(68, 2, 'say "spacer" \\ ∞'),),  # 69 stays missing
)
# the smallest ring has 297 vertices, so at --max 63 the witness table is {}
NO_WITNESSES = dataclasses.replace(ODD_WITNESSES, inventory=Inventory((100,)), extra_rings={}, families=())
# without the 94 family, every third count from 121 up is missing between the other families' members
GAPS = dataclasses.replace(DEFAULT_COVERAGE, families=DEFAULT_COVERAGE.families[1:])

COVERAGE_CASES = pytest.mark.parametrize(
    "max_check, sources",
    [
        *((m, DEFAULT_COVERAGE) for m in (63, 70, 2000, 50_000)),
        (70, ODD_WITNESSES),
        (63, NO_WITNESSES),
        # the table of [63, max] has one count fewer than a rendering window, as many, one more
        *((62 + WINDOW + d, DEFAULT_COVERAGE) for d in (-1, 0, 1)),
        (62 + WINDOW + 1, GAPS),
    ],
    ids=["max-63", "max-70", "max-2000", "max-50000", "escaped-witnesses", "no-witnesses",
         "window-less-one", "window", "window-plus-one", "gaps"],
)


def _coverage_stdout(max_check, sources, flag, monkeypatch, capsys):
    """The coverage certificate of ``sources`` and what ``coverage --max max_check flag`` prints for it."""
    monkeypatch.setattr(cli, "theorem1_coverage", lambda m: theorem1_coverage(m, sources))
    cert = theorem1_coverage(max_check, sources)
    assert main(["coverage", "--max", str(max_check), flag]) == (0 if cert.complete else 1)
    return cert, capsys.readouterr().out


@COVERAGE_CASES
def test_coverage_json_is_json_dumps(max_check, sources, monkeypatch, capsys):
    cert, out = _coverage_stdout(max_check, sources, "--json", monkeypatch, capsys)
    assert out == json.dumps(cert.to_json_dict(), indent=2) + "\n"


@COVERAGE_CASES
def test_coverage_witnesses_lists_each_covered_count(max_check, sources, monkeypatch, capsys):
    cert, out = _coverage_stdout(max_check, sources, "--witnesses", monkeypatch, capsys)
    witnesses = cert.witnesses  # read one count at a time, not through the windowed renderer
    lines = [f"range: [63, {max_check}]", "missing: " + (", ".join(map(str, cert.missing)) or "none")]
    lines += [f"  {v}: {witnesses[v]}" for v in range(63, max_check + 1) if v in witnesses]
    assert out == "\n".join(lines) + "\n"


class _CountingSink:
    """A stdout that keeps only how many characters were written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_coverage_json_never_holds_the_whole_table():
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["coverage", "--max", "50000", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 4e6  # the 49,938 witnesses take about 4.2 MB of text
    assert peak < 6e6


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"table": {1: "a", 20: 'b"'}, "after": [1, {"x": None}], "last": 0.5},
        {"ints": {1: 2}, "bools": {True: "t"}, "mixed": {1: "a", "2": "b"}, "empty": {}},
    ],
    ids=["empty", "table-before-other-keys", "not-int-to-str-tables"],
)
def test_printer_is_json_dumps_on_other_payloads(payload, capsys):
    assert _prints_json_dumps(payload, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fig2a", "--json"],
        ["refine", "fig2h", "--json"],
        ["rigidity", "fig2g", "--json"],
        ["construct", "mirror", "fig2f", "--mode", "point", "--json"],
        ["enumerate", "--json"],
        ["catalog", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_command_prints_json_dumps(argv, tmp_path, monkeypatch, capsys):
    if argv[0] == "catalog":
        (tmp_path / "tri.seg").write_text(TRIANGLE)  # a one-drawing corpus
        monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    payloads = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_print_json", payloads.append)
        main(argv)
    (payload,) = payloads
    assert _prints_json_dumps(payload, capsys)


# -- module entry point -------------------------------------------------------


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "matchsticks.cli", "verify", "fig1a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classification: 4-regular matchstick" in proc.stdout
