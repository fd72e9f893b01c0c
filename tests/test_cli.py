"""Command-line front-end: subcommands, exit codes, determinism, round-trips."""

import json
import subprocess
import sys

import pytest

from planevar.cli import main


def run_cli(*args):
    result = subprocess.run([sys.executable, "-m", "planevar.cli", *args],
                            capture_output=True, text=True)
    return result.returncode, result.stdout, result.stderr


@pytest.fixture
def zigzag(tmp_path):
    path = tmp_path / "zigzag.json"
    path.write_text(json.dumps({"list": [[0, 0], [1, 0], [0, 0], [1, 0]]}))
    return str(path)


@pytest.fixture
def square_fx(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"points": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                "values": [0, 1, 1, 0]}))
    return str(path)


def test_vf_zigzag(zigzag):
    code = main(["vf", "--list", zigzag])
    assert code == 0


def test_vf_output_matches_example(zigzag, capsys):
    main(["vf", "--list", zigzag])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3"
    assert out[1].startswith("witness:")


def test_cvar(square_fx, zigzag, capsys):
    main(["cvar", "--fn", square_fx, "--list", zigzag])
    assert capsys.readouterr().out.strip() == "3"


def test_var_exact_csv(square_fx, tmp_path, capsys):
    out = tmp_path / "var.csv"
    code = main(["var", "--fn", square_fx, "--mode", "exact", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,exact,method,vf,witness_len,seed"
    assert lines[1].startswith("1,true,exhaustive_small")


def test_var_search_deterministic(square_fx, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["var", "--fn", square_fx, "--mode", "search", "--seed", "9",
          "--out", str(out1)])
    main(["var", "--fn", square_fx, "--mode", "search", "--seed", "9",
          "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_example_var1d_roundtrip(tmp_path, capsys):
    f = tmp_path / "c.json"
    assert main(["example", "--kind", "cantor", "--n", "4", "--out", str(f)]) == 0
    assert main(["var1d", "--fn", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_acmod(tmp_path, capsys):
    f = tmp_path / "c.json"
    main(["example", "--kind", "cantor", "--n", "3", "--out", str(f)])
    assert main(["acmod", "--fn", str(f), "--delta", "8/27"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1"
    assert out[1] == "exact: true"


def test_iota(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"points": [[0, 0], [1, 0]], "values": [0, 1]}))
    out = tmp_path / "ext.json"
    assert main(["iota", "--fn", str(f), "--at", "1/2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert ["1/2", 0] in doc["points"]


def test_ctpp_pipeline(tmp_path, capsys):
    vals = {"points": [], "values": []}
    for j in range(3):
        for i in range(3):
            vals["points"].append([f"{i}/2", f"{j}/2"])
            vals["values"].append(i * j)
    src = tmp_path / "vals.json"
    src.write_text(json.dumps(vals))
    g = tmp_path / "g.json"
    assert main(["ctpp", "interp", "--values", str(src), "--rect", "0,1,0,1",
                 "--n", "2", "--out", str(g)]) == 0
    assert main(["ctpp", "check", str(g)]) == 0
    assert capsys.readouterr().out.strip().endswith("valid")
    assert main(["ctpp", "classify", "--ctpp", str(g), "--point", "1/2,1/2"]) == 0
    assert capsys.readouterr().out.strip() == "vertex 6"

    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps({"vertices": [[-1, -1], [2, -1], [2, 2], [-1, 2]]}))
    ext = tmp_path / "ext.json"
    assert main(["ctpp", "extend", "--ctpp", str(g), "--poly", str(p0),
                 "--out", str(ext)]) == 0

    svg = tmp_path / "g.svg"
    assert main(["plot", "--ctpp", str(g), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polygon") == 8
    assert text.startswith("<svg")
    svg2 = tmp_path / "g2.svg"
    assert main(["plot", "--ctpp", str(g), "--svg", str(svg2)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()  # no timestamps, byte-identical


def test_approx_c2_builtin(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["approx", "c2", "--builtin", "sin_cos", "--degree", "4",
                 "--grid", "17", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps_meas,sup_err,lip_err,bound,pass"
    assert lines[1].endswith("true")


def test_approx_bernstein_poly(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"coeffs": [[0], [1]]}))  # p(x, y) = x
    out = tmp_path / "b.json"
    assert main(["approx", "bernstein", "--poly", str(p), "--degree", "3",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"coeffs": [[0], [1]]}


def test_join_report_csv(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({
        "points": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
        "values": [0, 0, 1, 1, 2, 2]}))
    s1 = tmp_path / "s1.json"
    s1.write_text(json.dumps({"list": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    s2 = tmp_path / "s2.json"
    s2.write_text(json.dumps({"list": [[2, 0], [2, 1], [1, 0], [1, 1]]}))
    assert main(["join", "report", "--fn", str(fn), "--sigma1", str(s1),
                 "--sigma2", str(s2)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "instance,joins_convexly,var1,var2,var_union,lower_ok,upper_ok,exact"
    cells = out[1].split(",")
    assert cells[2] == "1" and cells[3] == "1" and cells[4] == "2"
    assert cells[5] == "true" and cells[6] == "true" and cells[7] == "true"


def test_join_paste(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({
        "points": [[-1, 0], [0, 0], [1, 0], [2, 0], [-1, 1], [2, 1]],
        "values": [-1, 0, 1, 2, 9, 9]}))
    out = tmp_path / "h.json"
    assert main(["join", "paste", "--fn", str(fn), "--band", "0,1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    by_pt = dict(zip(map(tuple, doc["points"]), doc["values"]))
    assert by_pt[(2, 0)] == 1 and by_pt[(-1, 0)] == 0 and by_pt[(2, 1)] == 1


def test_join_graphfill(tmp_path):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({
        "points": [[-1, 1], [0, 0], [1, 1]], "values": [1, 0, 1]}))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"list": [[-1, 1], [0, 0], [1, 1]]}))
    out = tmp_path / "g.json"
    assert main(["join", "graphfill", "--fn", str(fn), "--curve", str(curve),
                 "--rect=-1,1,-1,1", "--n", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) >= 9


def test_suite_subset_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["suite", "paper", "--only", "5,6", "--seed", "0",
                 "--out", str(out1)]) == 0
    assert main(["suite", "paper", "--only", "5,6", "--seed", "0",
                 "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    text = b1.decode()
    assert text.splitlines()[0] == "criterion,name,pass,detail"
    assert ",pass," in text


def test_exit_codes_and_error_lines(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run_cli("var1d", "--fn", str(bad))
    assert code == 2
    assert err.startswith("error:BadInputFile:")

    code, out, err = run_cli("frobnicate")
    assert code == 2
    assert err.startswith("error:BadArguments:")

    code, out, err = run_cli("suite", "nonexistent")
    assert code == 2
    assert err.startswith("error:BadInputFile:")


def test_missing_file_is_exit_2(tmp_path):
    code, out, err = run_cli("var1d", "--fn", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:BadInputFile:")


def assert_single_error(code, err, kind):
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error:{kind}:")
    assert "Traceback" not in err


def test_vf_too_many_points_is_typed_error(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"list": [[i, i * i % 97] for i in range(120)]}))
    code, out, err = run_cli("vf", "--list", str(path))
    assert_single_error(code, err, "InstanceTooLarge")


def test_var_zero_restarts_is_typed_error(square_fx):
    code, out, err = run_cli("var", "--fn", square_fx, "--restarts", "0")
    assert_single_error(code, err, "VariationError")


def test_var_out_into_missing_dir_is_typed_error(square_fx, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("var", "--fn", square_fx, "--mode", "exact", "--out", str(target))
    assert_single_error(code, err, "BadInputFile")


def test_approx_c2_without_source_is_typed_error():
    code, out, err = run_cli("approx", "c2")
    assert_single_error(code, err, "BadInputFile")
