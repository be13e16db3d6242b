"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys

import pytest

from matchsticks import cli, construct, corpus, pipeline
from matchsticks.cli import main

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
    assert payload["is_matchstick"] is True
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


def _plan_file(tmp_path, text):
    path = tmp_path / "plan.json"
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
    ],
    ids=["parts-not-objects", "part-without-name", "identifications-not-a-list", "unknown-part",
         "directory-as-graph", "missing-corpus-directory", "unwritable-refine-output",
         "unwritable-construct-output", "deeply-nested-plan", "plan-not-json"],
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
    assert payload["converged"] is True
    assert payload["final_residual"] <= 1e-12
    assert payload["iterations"] >= 1


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
    assert payload["rigid"] is True
    assert payload["internal_flexes"] == 0
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


@pytest.mark.parametrize("ports", ["10,99", "10,-1"])
def test_construct_mirror_ports_out_of_range(capsys, ports):
    code, out, err = run(capsys, "construct", "mirror", "fig2a", "--ports", ports)
    assert code == 2 and out == ""
    bad = ports.split(",")[1]
    assert err == f"error: vertex {bad} out of range for 22 vertices\n"


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
    assert payload["vertices"] == 63
    assert payload["is_matchstick"] is True


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
    ],
)
def test_construct_from_raw_drawings_certifies(argv, vertices, capsys):
    code, out, _ = run(capsys, "construct", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_matchstick"] is True
    assert payload["vertices"] == vertices


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


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["corpus"]) == len(corpus.corpus_names())
    by_name = {row["name"]: row for row in payload["corpus"]}
    assert by_name["fig1a"]["verified"] is True
    assert by_name["fig5b"]["claimed_rigidity"] == "flexible"


def test_catalog_rows_agree_with_certify(capsys):
    _, out, _ = run(capsys, "catalog", "--json")
    rows = json.loads(out)["corpus"]
    assert [row["name"] for row in rows] == list(corpus.corpus_names())
    for row in rows:
        cert = pipeline.certify(corpus.load_graph(row["name"]))
        assert row["residual"] == cert.refinement.final_residual
        assert row["verified"] is cert.certified
        assert row["internal_flexes"] == cert.rigidity.internal_flexes


# -- module entry point -------------------------------------------------------


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "matchsticks.cli", "verify", "fig1a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classification: 4-regular matchstick" in proc.stdout
