import itertools
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import random_cochain, upper_triangular_to_diagonal
from quiltops import cli
from quiltops.cli import _dump_cochain, _load_cochain, main
from quiltops.cochains import Cochain
from quiltops.rings import GF2, QQ


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate(capsys):
    code, out, err = run(["enumerate", "quilt", "--arity", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["12;1(2)", "21;2(1)"]
    code, out, err = run(["enumerate", "word", "--arity", "2", "--degree", "0"], capsys)
    assert code == 0 and out.splitlines() == ["12", "21"]


def test_boundary_word(capsys):
    code, out, _ = run(["boundary", "--word", "123242151"], capsys)
    assert code == 0
    assert "23242151" in out and "- 12324215" in out


def test_boundary_quilt(capsys):
    code, out, _ = run(["boundary", "--quilt", "1232;1(3,2)"], capsys)
    assert code == 0
    assert "123;1(3,2)" in out


def test_compose(capsys):
    code, out, _ = run(["compose", "1232;1(3,2)", "2", "1232;1(3,2)"], capsys)
    assert code == 0
    assert "1252343;1(5,2(4,3))" in out
    code, out, _ = run(["compose", "1232", "2", "1232"], capsys)
    assert "1252343" in out
    code, out, _ = run(["compose", "1(3,2)", "1", "1(3,2)"], capsys)
    assert len(out.strip().split("+")) == 15


@pytest.mark.parametrize("slot", ["0", "9"])
def test_compose_slot_out_of_range_exits_2(capsys, slot):
    code, out, err = run(["compose", "1232;1(3,2)", slot, "1232;1(3,2)"], capsys)
    assert code == 2
    assert out == "" and "outside 1..3" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("left,right,message", [
    ("1232;1(3,2)", "1232", "cannot compose a quilt with a word"),
    ("12x", "12", "cannot parse '12x'"),
    ("1232;1(3,2)", "1(2", "cannot parse '1(2'"),
], ids=["quilt-with-word", "bad-word", "bad-tree"])
def test_compose_bad_operand_exits_2(capsys, left, right, message):
    code, out, err = run(["compose", left, "1", right], capsys)
    assert code == 2
    assert out == "" and message in err and len(err.splitlines()) == 1


def test_homology(capsys):
    code, out, _ = run(["homology", "--arity", "3"], capsys)
    assert code == 0
    assert "acyclic in positive degrees: True" in out
    code, out, err = run(["homology", "--arity", "6"], capsys)
    assert code == 2  # gated behind --deep


@pytest.mark.parametrize("arity", ["0", "-3"])
def test_homology_arity_below_1_exits_2(capsys, arity):
    code, out, err = run(["homology", "--arity", arity], capsys)
    assert code == 2
    assert out == "" and "has no quilts" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["5"], ["6", "--deep"]], ids=["arity-5", "arity-6-deep"])
def test_homology_torsion_above_arity_4_exits_2(capsys, argv):
    # refused before the complex is built: the dense Smith form at arity 5
    # alone would be a 12600 x 22080 matrix of Python ints
    code, out, err = run(["homology", "--torsion", "--arity"] + argv, capsys)
    assert code == 2
    assert out == "" and err == (
        "homology: --torsion stops at arity 4: its dense Smith form at arity %s "
        "needs gigabytes of memory\n" % argv[0])


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "word", "--arity", "0"],
     "enumerate: --arity 0 has no words: arities start at 1"),
    (["enumerate", "quilt", "--arity", "0"],
     "enumerate: --arity 0 has no quilts: arities start at 1"),
    (["enumerate", "tree", "--arity", "-2"],
     "enumerate: --arity -2 has no trees: arities start at 1"),
    (["enumerate", "word", "--arity", "3", "--degree", "-1"],
     "enumerate: --degree -1 has no words: degrees start at 0"),
    (["enumerate", "quilt", "--arity", "2", "--degree", "-3"],
     "enumerate: --degree -3 has no quilts: degrees start at 0"),
    (["enumerate", "tree", "--arity", "2", "--degree", "3"],
     "enumerate: --degree 3 does not apply to trees: trees have no degree"),
    (["boundary"], "boundary: give exactly one of --word and --quilt"),
    (["boundary", "--word", ""], "boundary: cannot parse '': expected a word "
     "of vertex labels such as 1232 or 1,2,3,2"),
    (["boundary", "--quilt", ";1"], "boundary: cannot parse ';1': expected a word "
     "of vertex labels such as 1232 or 1,2,3,2"),
    (["boundary", "--word", "1x2"], "boundary: cannot parse '1x2': expected a word "
     "of vertex labels such as 1232 or 1,2,3,2"),
    (["render", "--quilt", "12x"],
     "render: cannot parse '12x': expected WORD;TREE such as 1232;1(3,2)"),
    (["render", "--quilt", "12;1(2)", "--marks", "3"],
     "render: --marks 3 is outside 0..2, the arity of 12;1(2)"),
    (["homology", "--arity", "2", "--ring", "X"],
     "homology: unknown ring 'X': expected one of Z, Q, F<p>, Fp:<p>"),
    (["homology", "--arity", "2", "--ring", "F4"], "homology: 4 is not prime"),
    (["homology", "--arity", "2", "--ring", "Fp:x"],
     "homology: unknown ring 'Fp:x': expected one of Z, Q, F<p>, Fp:<p>"),
], ids=["enumerate-word", "enumerate-quilt", "enumerate-tree", "enumerate-word-degree",
        "enumerate-quilt-degree", "enumerate-tree-degree", "boundary-nothing", "boundary-empty-word",
        "boundary-empty-quilt-word", "boundary-bad-word", "render-bad-quilt", "render-marks", "homology-ring-X",
        "homology-ring-F4", "homology-ring-Fp-x"])
def test_calculator_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err == message + "\n"


def test_verify_gerstenhaber(capsys):
    code, out, _ = run(["verify", "gerstenhaber"], capsys)
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_verify_linfty_json(capsys):
    code, out, _ = run(["verify", "linfty", "--max-arity", "3",
                        "--target", "quilt", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_seconds_ignore_wall_clock_steps(capsys, monkeypatch, fmt):
    # a wall clock that runs backwards must not give a negative duration
    clock = itertools.count(1e9, -1.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    code, out, _ = run(["verify", "gerstenhaber", "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        seconds = [c["seconds"] for c in json.loads(out)["checks"]]
    else:
        seconds = [float(line.split()[-1].rstrip("s")) for line in out.splitlines()
                   if line.startswith(("PASS", "FAIL"))]
    assert len(seconds) == 6 and min(seconds) >= 0


def test_verify_linfty_coinvariant(capsys):
    code, out, _ = run(["verify", "linfty", "--max-arity", "3",
                        "--target", "coinvariant"], capsys)
    assert code == 0


@pytest.mark.parametrize("target", ["quilt", "coinvariant"])
def test_verify_linfty_quilt_arity6(capsys, target):
    # the quilt routes run at arity 6 without --deep
    code, out, err = run(["verify", "linfty", "--max-arity", "6", "--target", target,
                          "--format", "json"], capsys)
    assert code == 0 and err == ""
    checks = json.loads(out)["checks"]
    assert checks[-1]["check"].endswith("n=6")
    assert all(c["status"] == "PASS" and c["residual"] == "" for c in checks)


@pytest.mark.parametrize("argv,message", [
    (["--max-arity", "1"], "leaves nothing to check"),
    (["--max-arity", "7", "--target", "mquilt"], "needs --deep"),
], ids=["no-relation", "mquilt-arity7-without-deep"])
def test_verify_linfty_refuses_empty_or_partial_suite(capsys, argv, message):
    code, out, err = run(["verify", "linfty"] + argv, capsys)
    assert code == 2
    assert out == "" and message in err and len(err.splitlines()) == 1


def test_verify_linfty_mquilt_arity5_without_deep(capsys):
    # the arity-5 marked relation and its integer route run by default
    code, out, err = run(["verify", "linfty", "--max-arity", "5", "--target", "mquilt",
                          "--format", "json"], capsys)
    assert code == 0 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["check"] for c in checks[-2:]] == ["mquilt relation n=5", "integer route n=5"]
    assert all(c["status"] == "PASS" and c["residual"] == "" for c in checks)


def test_render_text_and_svg(capsys):
    code, out, _ = run(["render", "--quilt", "1232;1(3,2)"], capsys)
    assert code == 0
    assert "1" in out and "3" in out
    code, out, _ = run(["render", "--quilt", "312;3(1,2)", "--marks", "1",
                        "--format", "svg"], capsys)
    assert code == 0 and out.startswith("<svg")


DIAGRAM = """ring F2
object x 2
object y 2
morphism gamma x y
mult x 1 1 1 1
mult x 2 2 2 1
mult y 1 1 1 1
mult y 2 2 2 1
matrix gamma 1 0 0 1
"""


def test_rep_check_diagram(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM)
    code, out, _ = run(["rep", "check-diagram", "--diagram", str(p)], capsys)
    assert code == 0 and "VALID" in out
    p2 = tmp_path / "bad.txt"
    p2.write_text(DIAGRAM.replace("matrix gamma 1 0 0 1",
                                  "matrix gamma 1 1 0 1"))
    code, out, _ = run(["rep", "check-diagram", "--diagram", str(p2)], capsys)
    assert code == 1 and "INVALID" in out


def test_rep_check_diagram_identity_names(tmp_path, capsys):
    # an arrow named id_q is an ordinary arrow; one named for y's identity
    # would replace it, so it is refused on its line
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM.replace("gamma", "id_q"))
    code, out, err = run(["rep", "check-diagram", "--diagram", str(p)], capsys)
    assert code == 0 and out == "VALID\n" and err == ""
    p.write_text(DIAGRAM.replace("gamma", "id_y"))
    code, out, err = run(["rep", "check-diagram", "--diagram", str(p)], capsys)
    assert code == 2
    assert out == "" and "line 4: morphism 'id_y' takes the name of an identity" in err
    assert len(err.splitlines()) == 1


def test_rep_delta_and_mc(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM)
    c = tmp_path / "cochain.txt"
    c.write_text("1 1 gamma : 0 1 1\n")
    code, out, _ = run(["rep", "delta", "--diagram", str(p),
                        "--cochain", str(c)], capsys)
    assert code == 0
    code, out, _ = run(["rep", "mc", "--diagram", str(p),
                        "--cochain", str(c)], capsys)
    assert "maurer-cartan solution" in out
    z = tmp_path / "zero.txt"
    z.write_text("")
    code, out, _ = run(["rep", "mc", "--diagram", str(p),
                        "--cochain", str(z)], capsys)
    assert code == 0 and "True" in out


def test_rep_squaring(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM)
    c = tmp_path / "cochain.txt"
    c.write_text("0 1 x : 0 0 1\n0 1 y : 1 1 1\n")
    code, out, _ = run(["rep", "squaring", "--diagram", str(p),
                        "--cochain", str(c)], capsys)
    assert code == 0


def test_rep_squaring_outside_characteristic_2_exits_2(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM.replace("ring F2", "ring Q"))
    c = tmp_path / "cochain.txt"
    c.write_text("0 1 x : 0 0 1\n")
    code, out, err = run(["rep", "squaring", "--diagram", str(p),
                          "--cochain", str(c)], capsys)
    assert code == 2
    assert out == "" and "characteristic 2" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("ring", [QQ, GF2], ids=["QQ", "GF2"])
def test_cochain_dump_load_roundtrip(tmp_path, ring):
    # what rep prints reloads as the same cochain, the zero cochain too
    dia = upper_triangular_to_diagonal(ring)
    f = Cochain(dia)
    for seed, (p, q) in enumerate(((0, 1), (0, 2), (1, 1), (2, 0))):
        f = f + random_cochain(dia, p, q, seed=seed, density=0.5)
    f = f.scale(Fraction(-2, 3) if ring == QQ else 1)
    assert len(f.bidegrees()) == 4
    path = tmp_path / "cochain.txt"
    for c in (f, Cochain(dia)):
        with open(path, "w") as fh, redirect_stdout(fh):
            _dump_cochain(c)
        assert _load_cochain(dia, str(path)) == c
    assert path.read_text() == "0\n"


@pytest.mark.parametrize("cochain", [
    "0 2 x : 7 7 7 1\n",
    "0 2 nosuch : 0 0 0 1\n",
    "1 1 gamma : 0 1\n",
    "2 1 gamma : 0 1 1\n",
    None,
], ids=["index-out-of-range", "unknown-object", "index-arity", "bidegree", "no-cochain"])
def test_rep_malformed_cochain_exits_2(tmp_path, capsys, cochain):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM)
    argv = ["rep", "mc", "--diagram", str(p)]
    if cochain is not None:
        c = tmp_path / "cochain.txt"
        c.write_text("0 1 x : 0 0 1\n" + cochain)
        argv += ["--cochain", str(c)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "maurer-cartan" not in out
    assert ("line 2:" in err) if cochain else ("--cochain" in err)


def test_rep_short_diagram_line_exits_2(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text("ring F2\nobject x\n")
    c = tmp_path / "cochain.txt"
    c.write_text("")
    code, out, err = run(["rep", "delta", "--diagram", str(p),
                          "--cochain", str(c)], capsys)
    assert code == 2
    assert out == "" and "line 2:" in err and len(err.splitlines()) == 1


def test_rep_nerve_depth_exceeded_exits_2(tmp_path, capsys):
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM)
    c = tmp_path / "cochain.txt"
    c.write_text("4 1 id_x id_x id_x id_x : 0 0 1\n")
    code, out, err = run(["rep", "delta", "--diagram", str(p),
                          "--cochain", str(c)], capsys)
    assert code == 2
    assert out == "" and "nerve depth 5" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("repeat, first", [
    ("object x 1", 2), ("morphism gamma y x", 4), ("matrix gamma 0 0 0 0", 9)],
    ids=["object", "morphism", "matrix"])
def test_rep_check_diagram_repeated_declaration_exits_2(tmp_path, capsys, repeat, first):
    # each of these files used to check VALID, keeping the last declaration
    p = tmp_path / "dia.txt"
    p.write_text(DIAGRAM + repeat + "\n")
    code, out, err = run(["rep", "check-diagram", "--diagram", str(p)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["%s: line 10: %r repeats the %s of line %d"
                                % (p, repeat, repeat.split()[0], first)]


@pytest.mark.parametrize("action", ["check-diagram", "mc"])
@pytest.mark.parametrize("text, line", [
    (DIAGRAM.replace("matrix gamma", "matrix nosuch"), 9),
    (DIAGRAM.replace("morphism gamma x y", "morphism gamma x z"), 4),
    (DIAGRAM + "compose gamma nosuch gamma\n", 10),
], ids=["matrix", "morphism", "compose"])
def test_rep_undeclared_reference_exits_2(tmp_path, capsys, action, text, line):
    p = tmp_path / "dia.txt"
    p.write_text(text)
    c = tmp_path / "cochain.txt"
    c.write_text("")
    code, out, err = run(["rep", action, "--diagram", str(p),
                          "--cochain", str(c)], capsys)
    assert code == 2
    assert out == "" and ("line %d: undeclared" % line) in err
    assert len(err.splitlines()) == 1
