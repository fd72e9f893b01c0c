"""Command-line front-end: subcommands, exit codes, determinism, round-trips."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from planevar import cli, fileio
from planevar.cli import main
from planevar.variation import vf_exact


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


def _vf_pin_list(k: int, offset: int = 0) -> list:
    """k distinct points on a 1/32 lattice: a collinear run of k // 4 in the middle,
    the rest from a fixed congruence, k // 5 repeats; moved by (offset, -offset)."""
    den = 32
    run = [(Fraction(t, den), Fraction(2 * t, den) - 1) for t in range(k // 4)]
    others: list = []
    i = 0
    while len(run) + len(others) < k:
        p = (Fraction((37 * i) % 257 - 128, den), Fraction((13 * i * i + 5 * i) % 263 - 131, den))
        if p not in run and p not in others:
            others.append(p)
        i += 1
    half = len(others) // 2
    lst = others[:half] + run + others[half:]
    for j in range(k // 5):
        lst.insert((7 * j) % len(lst), lst[(11 * j) % len(lst)])
    return [[str(x + offset), str(y - offset)] for x, y in lst]


# Recorded before the candidate normals were built in numpy. The 2^40 offset
# takes the scaled coordinates past the int64 bound, onto Python integers.
@pytest.mark.parametrize("k, offset, out", [
    (20, 0, "11\nwitness: 16x + 64y = -55\n"),
    (45, 0, "25\nwitness: 16x + 80y = -69\n"),
    (100, 0, "60\nwitness: 8x + 16y = -1\n"),
    (20, 2**40, "11\nwitness: 16x + 64y = -52776558133303\n"),
])
def test_vf_output_on_large_lists_is_pinned(tmp_path, capsys, k, offset, out):
    path = tmp_path / "list.json"
    pts = _vf_pin_list(k, offset)
    assert len({tuple(p) for p in pts}) == k and len(pts) == k + k // 5
    path.write_text(json.dumps({"list": pts}))
    assert main(["vf", "--list", str(path)]) == 0
    assert capsys.readouterr().out == out


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


@pytest.mark.parametrize("mode", [["--mode", "exact"],
                                  ["--mode", "search", "--iters", "60", "--restarts", "2"]])
@pytest.mark.parametrize("to_file", [False, True])
def test_var_stats_go_to_stderr_and_change_no_output(square_fx, tmp_path, capsys, mode,
                                                     to_file):
    """``--stats`` adds one sorted JSON line on stderr; stdout and ``--out`` keep their bytes."""
    runs = []
    for extra in ([], ["--stats"]):
        out = tmp_path / f"var{len(runs)}.csv"
        args = ["var", "--fn", square_fx, *mode] + (["--out", str(out)] if to_file else [])
        assert main(args + extra) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, out.read_bytes() if to_file else None, captured.err))
    (out_plain, file_plain, err_plain), (out_stats, file_stats, err_stats) = runs
    assert (out_stats, file_stats) == (out_plain, file_plain)
    assert err_plain == ""
    line, = err_stats.splitlines()
    stats = json.loads(line)
    assert line == json.dumps(stats, sort_keys=True)
    if mode[1] == "exact":
        assert stats["exact_path"] == "rational" and stats["lists"]
    else:
        assert (stats["proposals"], stats["restarts"]) == (120, 2)


def test_var_search_stats_on_one_point_have_the_search_keys(tmp_path, capsys):
    """One point: one list, nothing proposed; stdout as without ``--stats``."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": [[0, 0]], "values": [1]}))
    assert main(["var", "--fn", str(path), "--mode", "search", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0\n0,false,anneal,1,1,0\n"
    assert captured.err.splitlines() == [
        '{"accepted": 0, "attempts": 0, "distinct_rows": 1, "final_temperature": 1.0, '
        '"max_objective_seen": 0.0, "proposals": 0, "restarts": 8, "table_rows": 1}']


def test_repeated_main_calls_keep_no_parser_state(square_fx, capsys):
    """Later calls see defaults again, as a fresh process does."""
    search = ["var", "--fn", square_fx, "--mode", "search", "--restarts", "2",
              "--iters", "30"]
    code, fresh, _ = run_cli(*search)
    assert code == 0
    assert main(search + ["--seed", "5"]) == 0
    seeded = capsys.readouterr().out
    assert seeded != fresh
    assert main(search) == 0
    assert capsys.readouterr().out == fresh
    assert main(search + ["--restarts", "two"]) == 2
    assert capsys.readouterr().err.startswith("error:BadArguments:")
    assert main(search) == 0
    assert capsys.readouterr().out == fresh


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


# sha256 of `approx c2 --builtin` stdout and --out-poly JSON (the --out CSV is
# the stdout text), recorded before the polynomial layer moved onto integer rows
C2_PINS = [
    ("sin_cos", 8, "47a49d082765386330d9569f67de42d2125454d21fdd260cf72500cd4b8e8f63",
     "52e5db788a4dc3a513f349691ff4111e14a8ae51ef930b6b379294fd88777d6b"),
    ("sin_cos", 12, "5ee3da7bd8f53de597ab9610025bcae01cc9609886e0f8af1ec191c7c8ecba1e",
     "122a42f9dd1c1171754adca8a295189744eebc62b2ff56a5031fcc62e15029bd"),
    ("sin_cos", 16, "1a90d810253527c51f9e0aca322975e307baa25e34f2583cfcd93a3732f5f759",
     "a4c1953882b1be7ac3e8520dac421013da7cf792ca46f2cc3247ec1447080487"),
    ("sin_cos", 24, "85c0d90c95fea47d34cf0ca7e0561e7ab1503ddca32076d884584500c905090d",
     "7229c7129f957a193d8570107d02ef9282048be555b09954ce10ff96fee6467e"),
    ("sin_exp", 8, "04d5922b7db269476488cdd517f74119622b6620bddfe1fa14624509aa580e79",
     "7277fa22cc0b1d698e3b37213a85e698b76bfca12a35bf4f9b0948c4760ccd30"),
    ("sin_exp", 12, "8d4b0a195ee52bc07948c686c1327a1cfd49f69d8baa39813f3df4f66b3b2909",
     "498e1975e9d9c8638a5486cf0b9372d0f2ab12899544750cee84144d41f4967d"),
    ("sin_exp", 16, "61df017139d65ada9cf26186a2ab07e893ae4be582ea4427225db9cf1d365710",
     "b65d702165a3e524d08c222bcd3f69d3772ccbe5ef139e21f3d826c9ed61e97e"),
    ("sin_exp", 24, "7a283a5836a4adf550d9b30368d54c2b4ae58209c07f8be2a05a2fb1a79d43a9",
     "699e897486a98f3c5662b9656203531cd55c3e51dadf931edf6851dcf4024f96"),
    ("sin_exp", 64, "079e2e33ad856cdf51db4ab7a85035f7f0aca48d09042202601cbf0ee41cd6ea",
     "d60a37a543597d299188457e1546e1f3046da2a323aacbea5d3eba7b4e4c42c1"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("builtin, degree, out_sha, poly_sha", C2_PINS,
                         ids=[f"{b}-{d}" for b, d, _, _ in C2_PINS])
def test_approx_c2_output_is_pinned(tmp_path, capsys, builtin, degree, out_sha, poly_sha):
    csv, poly = tmp_path / "rep.csv", tmp_path / "p.json"
    assert main(["approx", "c2", "--builtin", builtin, "--degree", str(degree),
                 "--out", str(csv), "--out-poly", str(poly)]) == 0
    out = capsys.readouterr().out.encode()
    assert _sha256(out) == out_sha
    assert csv.read_bytes() == out
    assert _sha256(poly.read_bytes()) == poly_sha


def test_a_builtin_c2_op_samples_each_factor_once_per_grid_line(monkeypatch, tmp_path, capsys):
    """The measurement grid costs 41 calls of each factor, not 41 x 41 of each partial;
    the Bernstein nodes, the spot check and the values at (0, 0) keep their point calls."""
    from collections import Counter

    from planevar import approx
    calls = Counter()
    in_grid = [False]

    def counted(what, axis, g):
        def factor(t):
            calls[what, axis, "grid" if in_grid[0] else "point"] += 1
            return g(t)
        return factor

    real = approx.BUILTIN_ORACLES["sin_exp"]
    oracle = approx.C2Oracle(**{
        what: approx._Product(counted(what, "x", getattr(real, what).gx),
                              counted(what, "y", getattr(real, what).gy))
        for what in ("f", "fx", "fy", "fxx", "fxy", "fyy")})
    grid = approx._Product.grid

    def flagged(self, pts):
        in_grid[0] = True
        try:
            return grid(self, pts)
        finally:
            in_grid[0] = False
    monkeypatch.setattr(approx._Product, "grid", flagged)
    monkeypatch.setitem(approx.BUILTIN_ORACLES, "sin_exp", oracle)
    poly = tmp_path / "p.json"
    assert main(["approx", "c2", "--builtin", "sin_exp", "--degree", "8", "--grid", "41",
                 "--out-poly", str(poly)]) == 0
    (_, _, out_sha, poly_sha), = [pin for pin in C2_PINS if pin[:2] == ("sin_exp", 8)]
    assert _sha256(capsys.readouterr().out.encode()) == out_sha
    assert _sha256(poly.read_bytes()) == poly_sha
    # per point: 81 Bernstein nodes for each second partial; 81 spot-check points,
    # with f four times; one value of f, fx and fy at (0, 0)
    point = {"f": 4 * 81 + 1, "fx": 81 + 1, "fy": 81 + 1, "fxx": 81, "fxy": 81, "fyy": 81}
    assert calls == Counter({(what, axis, kind): 41 if kind == "grid" else point[what]
                             for what in point for axis in "xy" for kind in ("grid", "point")})


# sha256 of `approx bernstein --poly` stdout on PIN_POLY, recorded as C2_PINS
PIN_POLY = {"coeffs": [["1/3", "-5/4", "2/7", "1/2"], ["3/2", "-1/6", "5/8", 0],
                       ["-7/5", "1/9", 0, 0], [0.1, 0, 0, 0]]}
BERNSTEIN_PINS = [
    (8, "e714089a31b61e2cfbc3610183f762aee32de386fe2bc3220383388bc8157684"),
    (12, "729826e82d4637f56159759c0715640f6f12492fbcc234c374f2fc8b06f58c3d"),
    (16, "a00ac5cefeb4e3d367bbf60204b058b7f5626c7038e92150d7b3004f0540db20"),
    (20, "dd0d2dd41b54a8dabf8bd7d4acf9b7973d89cdee48004a8d2e8395b676655eac"),
    (24, "e0a7debfb0a3af2648c718b41e139af80e46132c215e46e7d24eb98bcfa0972a"),
]


@pytest.mark.parametrize("degree, out_sha", BERNSTEIN_PINS)
def test_approx_bernstein_poly_output_is_pinned(tmp_path, capsys, degree, out_sha):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(PIN_POLY))
    assert main(["approx", "bernstein", "--poly", str(path), "--degree", str(degree)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == out_sha


# `approx match` on a 7 x 7 sample of sixths against an exact interpolant on three
# cells per side. At delta 1/3 each bump's square holds sample points strictly
# inside it, on its boundary and outside it. MATCH_FLOAT holds the same values as
# floats, so every bump term off its square is a float zero.
MATCH_GRID = [(i, j) for i in range(7) for j in range(7)]
MATCH_EXACT = [str(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)) for i, j in MATCH_GRID]
MATCH_FLOAT = [float(Fraction(v)) for v in MATCH_EXACT]
MATCH_CENTRES = [[0, 0], ["2/3", "2/3"], [0, 1], [1, 0]]
# sha256 of stdout and of the --sample-out bytes, recorded before bumps skipped
# the points off their squares
MATCH_PINS = [
    (MATCH_EXACT, "dd9febf468e096e9856ee03bfabec256e10c1f152f724f1a5823fa7d43fa22ae",
     "d84479a2b9441a53434deda98e8e07b8d26ed15ea9a71ff3055a6f3fb5e161e5"),
    (MATCH_FLOAT, "61aa3e8d765530847347f8a62973f4fe55a1f58f36291ddce0e2386362bbee35",
     "572f0af6ff09a86e25693e10fe6cb65bb74a7822ee5faa4dc2d62b0f955b3882"),
]


def _approx_match_pin(tmp_path, values) -> tuple[bytes, bytes]:
    """(stdout, --sample-out bytes) of `approx match` on the MATCH_* inputs."""
    from planevar.ctpp import interpolate_grid
    from planevar.geom import Rectangle
    fn, g0, pts, out = (tmp_path / name for name in ("f.json", "g0.json", "pts.json", "s.json"))
    fn.write_text(json.dumps({"points": [[f"{i}/6", f"{j}/6"] for i, j in MATCH_GRID],
                              "values": values}))
    g0.write_text(fileio.ctpp_to_json(interpolate_grid(
        lambda v: v.x * v.y - v.y / 2, Rectangle.of(0, 1, 0, 1), 3)))
    pts.write_text(json.dumps({"list": MATCH_CENTRES}))
    code, stdout, err = run_cli("approx", "match", "--fn", str(fn), "--ctpp", str(g0),
                                "--points", str(pts), "--delta", "1/3",
                                "--sample-out", str(out))
    assert (code, err) == (0, "")
    return stdout.encode(), out.read_bytes()


@pytest.mark.parametrize("values, out_sha, sample_sha", MATCH_PINS, ids=["exact", "float"])
def test_approx_match_output_is_pinned(tmp_path, values, out_sha, sample_sha):
    out, sample = _approx_match_pin(tmp_path, values)
    assert (_sha256(out), _sha256(sample)) == (out_sha, sample_sha)


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
    assert out == ""


_ONE_GB = 1 << 30


def _run_cli_within(limit: int, *args):
    """run_cli in a child whose address space ``resource.RLIMIT_AS`` caps at ``limit``
    bytes, with one BLAS thread so that the numpy import reserves little of it."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-m", "planevar.cli", *args], capture_output=True,
                            text=True, env=env, preexec_fn=cap)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("entries", [200, 20_000])
def test_vf_on_a_long_list_runs_in_bounded_memory(tmp_path, entries):
    """A list cycling through 40 distinct points: the sweep gathers the ranks of one
    block of entries at a time, so 20,000 entries fit in 1 GB of address space
    (an (N directions, m entries) rank array alone would take about 200 MB here)."""
    cycle = [[f"{(i * 37) % 101}/16", f"{(i * i * 7 + 3 * i) % 89}/16"] for i in range(40)]
    doc = {"list": [cycle[i % 40] for i in range(entries)]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_cli_within(_ONE_GB, "vf", "--list", str(path))
    assert (code, err) == (0, "")
    res = vf_exact(fileio.point_list_from_json(path.read_text()))
    assert out == f"{res.vf}\nwitness: {res.witness}\n"


def test_acmod_refuses_a_greedy_family_past_the_pair_cap(tmp_path, capsys):
    # 1000 points of 1/n within delta = 1 of one another: 499,500 pairs
    fn = tmp_path / "oon.json"
    assert main(["example", "--kind", "one-over-n", "--n", "1000", "--out", str(fn)]) == 0
    capsys.readouterr()
    code = main(["acmod", "--fn", str(fn), "--delta", "1"])
    captured = capsys.readouterr()
    assert_single_error(code, captured.err, "InstanceTooLarge")
    assert captured.out == ""


def test_var_zero_restarts_is_typed_error(square_fx):
    code, out, err = run_cli("var", "--fn", square_fx, "--restarts", "0")
    assert_single_error(code, err, "VariationError")


def test_var_huge_restart_count_is_refused_before_the_search(square_fx, monkeypatch, capsys):
    """The count is refused when SearchConfig is built: no seed is spawned, no search runs."""
    def never(*args, **kwargs):
        raise AssertionError("var_search ran")

    monkeypatch.setattr(cli, "var_search", never)
    code = main(["var", "--fn", square_fx, "--mode", "search",
                 "--restarts", "99999999999999999999"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error:VariationError:restarts must be <= 100000, "
                            "got 99999999999999999999\n")


def test_var_iters_past_the_cap_is_refused_before_the_search(square_fx, monkeypatch, capsys):
    """One past variation.MAX_ITERS is refused when SearchConfig is built."""
    def never(*args, **kwargs):
        raise AssertionError("var_search ran")

    monkeypatch.setattr(cli, "var_search", never)
    code = main(["var", "--fn", square_fx, "--mode", "search", "--iters", "10000001"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error:VariationError:iters must be <= 10000000, got 10000001\n"


@pytest.mark.parametrize("cmd", [["approx", "bernstein"], ["approx", "c2"]])
def test_approx_degree_past_the_cap_is_typed_error(cmd, capsys):
    # one past approx.MAX_DEGREE; a degree of 2^63 once ran with no end in sight
    code = main(cmd + ["--builtin", "sin_exp", "--degree", "65"])
    captured = capsys.readouterr()
    assert_single_error(code, captured.err, "ApproxError")
    assert captured.err == "error:ApproxError:degree must be <= 64, got 65\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", ['{"coeffs": []}', '{"coeffs": [[]]}'])
def test_approx_bernstein_empty_poly_is_typed_error(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, out, err = run_cli("approx", "bernstein", "--poly", str(path), "--degree", "3")
    assert_single_error(code, err, "BadInputFile")
    assert (out, err) == ("", "error:BadInputFile:field 'coeffs': empty coefficient array or row\n")


@pytest.mark.parametrize("command", [["cvar", "--list", None], ["var", "--mode", "exact"],
                                     ["var", "--mode", "search", "--iters", "10"]])
def test_huge_integer_among_complex_values_is_typed_error(tmp_path, zigzag, command):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 0]], "values": [[1.5, 2], 10**400]}))
    args = [zigzag if a is None else a for a in command]
    code, out, err = run_cli(*args, "--fn", str(fn))
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", "error:VariationError:values overflow floating point: "
                              "int too large to convert to float\n")


# 1e308 - (-1e308) is past the float range. 1e308 - (-5e307) is not, but a list of
# three points can sum two such jumps. Both estimators refuse before any level or
# proposal, and numpy's overflow warning stays off stderr.
@pytest.mark.parametrize("values, jump", [([1e308, -1e308, "1/3"], "inf"),
                                          ([1e308, -5e307, 0], "1.5e+308")])
@pytest.mark.parametrize("command, max_len", [
    (["var", "--mode", "exact", "--max-len", "3"], 3),
    (["var", "--mode", "search", "--iters", "10"], 12),
    (["join", "report", "--mode", "exact", "--max-len", "3"], 3),
], ids=["exact", "search", "join-exact"])
def test_jump_sums_past_the_float_range_are_typed_error(tmp_path, values, jump, command, max_len):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]], "values": values}))
    args = [*command, "--fn", str(fn)]
    if command[0] == "join":
        for name, pts in (("sigma1", [[0, 0], [1, 0], [0, 1]]), ("sigma2", [[1, 0], [0, 1]])):
            (tmp_path / f"{name}.json").write_text(json.dumps({"list": pts}))
            args += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, err = run_cli(*args)
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", "error:VariationError:values overflow floating point: "
                              f"{max_len} jumps of up to {jump}\n")


def test_finite_jump_sums_near_the_float_range_are_estimated(tmp_path):
    """One point per list sums no jump: max-len 1 runs on the same values."""
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]], "values": [1e308, -5e307, 0]}))
    code, out, err = run_cli("var", "--fn", str(fn), "--mode", "exact", "--max-len", "1")
    assert (code, out, err) == (0, "0\n0,true,exhaustive_small,1,1,\n", "")


# the paths that sum a list's jumps without an estimator: one list (cvar), the
# one-dimensional variation (var1d), and a collinear part of a join report
@pytest.mark.parametrize("command", ["cvar", "var1d", "join"])
def test_one_jump_sum_past_the_float_range_is_typed_error(tmp_path, command):
    if command == "cvar":
        points, values = [[0, 0], [1, 0], [0, 1]], [1e308, -1e308, "1/3"]
    else:
        points, values = [[0, 0], [1, 0], [2, 0]], [1e308, -1e308, 0]
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"points": points, "values": values}))
    args = [command, "--fn", str(fn)]
    if command == "cvar":
        (tmp_path / "list.json").write_text(json.dumps({"list": points}))
        args += ["--list", str(tmp_path / "list.json")]
    if command == "join":
        args.insert(1, "report")
        for name, pts in (("sigma1", points[:2]), ("sigma2", points[1:])):
            (tmp_path / f"{name}.json").write_text(json.dumps({"list": pts}))
            args += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, err = run_cli(*args)
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", "error:VariationError:values overflow floating point: "
                              "jump sum inf\n")


@pytest.mark.parametrize("command", [["iota", "--at", "1/2"], ["iota", "--at", "0"],
                                     ["acmod", "--delta", "1"]])
def test_huge_integer_beside_a_complex_value_in_1d_is_typed_error(tmp_path, command):
    # --at 1/2 interpolates across the gap; --at 0 adds no point, and the jump sum refuses
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 0]], "values": [[1.5, 2], 10**400]}))
    code, out, err = run_cli(command[0], "--fn", str(fn), *command[1:])
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", "error:VariationError:values overflow floating point: "
                              "int too large to convert to float\n")


def test_ctpp_check_huge_integer_beside_a_float_piece_is_typed_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
                                "triangles": [[0, 1, 2], [1, 3, 2]],
                                "coeffs": [[10**400, 0, 0], [0.5, 0, 0]]}))
    code, out, err = run_cli("ctpp", "check", str(path))
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", "error:VariationError:values overflow floating point: "
                              "integer division result too large for a float\n")


_HUGE = 10**400
# inputs in which a float meets the exact integer 10^400 (the "exact" piece meets fn's 0.5)
_HUGE_BESIDE_A_FLOAT = {
    "g": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "triangles": [[0, 1, 2], [1, 3, 2]],
          "coeffs": [[1.5, 0, _HUGE], [1.5, 0, _HUGE]]},
    "piece": {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]],
              "coeffs": [[1.5, 0, _HUGE]]},
    "exact": {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]],
              "coeffs": [[0, 0, _HUGE]]},
    "poly": {"vertices": [[0, 0], [2, 0], [0, 2]]},
    "values": {"points": [[0, 0], [1, 0], [0, 1], [1, 1]], "values": [1.5, 2, _HUGE, 3]},
    "fn": {"points": [[0.25, 0.25], [1, 0]], "values": [_HUGE, 0.5]},
    "pts": {"list": [[0.25, 0.25]]},
}
_INT_TO_FLOAT = "int too large to convert to float"


@pytest.mark.parametrize("command, reason", [
    (["ctpp", "check", "g"], _INT_TO_FLOAT),                                # PlanarCoeffs.eval
    (["ctpp", "extend", "--ctpp", "g", "--poly", "poly"], _INT_TO_FLOAT),   # PlanarCoeffs.eval
    (["ctpp", "interp", "--values", "values", "--rect", "0,1,0,1", "--n", "1"],
     _INT_TO_FLOAT),                                                        # solve_plane
    (["approx", "match", "--fn", "fn", "--ctpp", "exact", "--points", "pts", "--delta", "1/8"],
     "integer division result too large for a float"),       # the interpolation error
    (["plot", "--ctpp", "piece", "--svg", "out.svg"], _INT_TO_FLOAT),       # svg.ctpp_svg
])
def test_huge_integer_beside_a_float_outside_the_value_rule_is_typed_error(tmp_path, command,
                                                                           reason):
    """Paths that meet the float range without ``variation._on_floats`` give its error too."""
    args = []
    for arg in command:
        if arg in _HUGE_BESIDE_A_FLOAT:
            (tmp_path / f"{arg}.json").write_text(json.dumps(_HUGE_BESIDE_A_FLOAT[arg]))
            arg = str(tmp_path / f"{arg}.json")
        elif arg.endswith(".svg"):
            arg = str(tmp_path / arg)
        args.append(arg)
    code, out, err = run_cli(*args)
    assert_single_error(code, err, "VariationError")
    assert (out, err) == ("", f"error:VariationError:values overflow floating point: {reason}\n")


def test_var_out_into_missing_dir_is_typed_error(square_fx, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("var", "--fn", square_fx, "--mode", "exact", "--out", str(target))
    assert_single_error(code, err, "BadInputFile")


def test_approx_c2_without_source_is_typed_error():
    code, out, err = run_cli("approx", "c2")
    assert_single_error(code, err, "BadInputFile")


def test_var_failed_out_prints_nothing(square_fx, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("var", "--fn", square_fx, "--mode", "exact", "--out", str(target))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""


def test_approx_match_failed_sample_out_prints_nothing(tmp_path):
    from planevar import fileio
    from planevar.ctpp import interpolate_grid
    from planevar.geom import Rectangle
    g0 = tmp_path / "g0.json"
    g0.write_text(fileio.ctpp_to_json(
        interpolate_grid(lambda v: v.x, Rectangle.of(0, 1, 0, 1), 2)))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 1]], "values": [1, 2]}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"list": [[0, 0]]}))
    args = ["approx", "match", "--fn", str(fn), "--ctpp", str(g0), "--points", str(pts),
            "--delta", "1/4", "--sample-out"]
    code, out, err = run_cli(*args, str(tmp_path / "s.json"))
    assert code == 0 and out.startswith("matched: 1")
    code, out, err = run_cli(*args, str(tmp_path / "missing" / "s.json"))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""


COMPLEX_POLY = {"coeffs": [[1, [0.5, 2]], [3, 0]]}   # 1 + (0.5+2i) y + 3x


def test_approx_c2_complex_coefficient_is_typed_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(COMPLEX_POLY))
    code, out, err = run_cli("approx", "c2", "--poly", str(path), "--degree", "3")
    assert_single_error(code, err, "ApproxError")
    assert out == ""


def test_approx_bernstein_complex_coefficient_output_is_pinned(tmp_path):
    # real and imaginary parts are converted exactly, so a polynomial of
    # degree <= 1 in each variable comes back unchanged, every coefficient complex
    path = tmp_path / "p.json"
    path.write_text(json.dumps(COMPLEX_POLY))
    for degree in ("3", "5"):
        code, out, err = run_cli("approx", "bernstein", "--poly", str(path), "--degree", degree)
        assert code == 0 and err == ""
        assert json.loads(out) == {"coeffs": [[[1.0, 0.0], [0.5, 2.0]],
                                              [[3.0, 0.0], [0.0, 0.0]]]}


def test_approx_trimmed_complex_zero_is_a_real_polynomial(tmp_path):
    # [0, 0] reads as 0j; in a trailing column it is trimmed and the polynomial is real
    path, real = tmp_path / "p.json", tmp_path / "r.json"
    path.write_text(json.dumps({"coeffs": [[1, [0, 0]]]}))
    real.write_text(json.dumps({"coeffs": [[1]]}))
    code, out, err = run_cli("approx", "bernstein", "--poly", str(path), "--degree", "3")
    assert code == 0 and err == "" and json.loads(out) == {"coeffs": [[1]]}
    code, out, err = run_cli("approx", "c2", "--poly", str(path), "--degree", "3")
    assert code == 0 and err == ""
    assert out == "eps_meas,sup_err,lip_err,bound,pass\n0,0,0,2e-06,true\n"
    assert run_cli("approx", "c2", "--poly", str(real), "--degree", "3") == (code, out, err)


@pytest.mark.parametrize("grid", ["0", "1"])
def test_approx_c2_degenerate_grid_is_typed_error(grid):
    code, out, err = run_cli("approx", "c2", "--builtin", "sin_exp", "--grid", grid)
    assert_single_error(code, err, "ApproxError")
    assert out == ""


def test_approx_c2_grid_past_the_cap_is_typed_error():
    # one past approx.MAX_GRID_N; a grid of 2^63 once ended in an IndexError traceback
    code, out, err = run_cli("approx", "c2", "--builtin", "sin_exp", "--grid", "129")
    assert_single_error(code, err, "ApproxError")
    assert err.splitlines() == ["error:ApproxError:measurement grid takes at most 128 "
                                "points per side, got 129"]
    assert out == ""


def test_join_fills_refuse_zero_subdivision(tmp_path):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[-1, 1], [0, 0], [1, 1]], "values": [1, 0, 1]}))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"list": [[-1, 1], [0, 0], [1, 1]]}))
    code, out, err = run_cli("join", "graphfill", "--fn", str(fn), "--curve", str(curve),
                             "--rect=-1,1,-1,1", "--n", "0")
    assert_single_error(code, err, "JoinsError")
    assert out == ""
    sector = tmp_path / "s.json"
    sector.write_text(json.dumps({"points": [[1, 0], [0, 0], [0, 1]], "values": [1, 0, 1]}))
    code, out, err = run_cli("join", "sector", "--fn", str(sector), "--rect=-1,1,-1,1",
                             "--ray1", "1,0", "--ray2", "0,1", "--n", "0")
    assert_single_error(code, err, "JoinsError")
    assert out == ""


@pytest.mark.parametrize("command, name, text", [
    (["vf", "--list"], "list.json", '{"list": [[0, 0], [Infinity, 1], [2, 0]]}'),
    (["vf", "--list"], "list.json", '{"list": [[0, 0], [NaN, 1], [2, 0]]}'),
    (["var", "--mode", "exact", "--fn"], "fn.json",
     '{"points": [[0, 0], [1, 0], [0, 1]], "values": [0, NaN, 1]}'),
    (["approx", "bernstein", "--degree", "2", "--poly"], "poly.json",
     '{"coeffs": [[1, NaN]]}'),
])
def test_non_finite_json_is_typed_error(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(*command, str(path))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""


@pytest.mark.parametrize("command, text", [
    (["var", "--fn"], '{"points": 5, "values": []}'),
    (["ctpp", "check"],
     '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1]], "coeffs": [[0, 0, 0]]}'),
    (["ctpp", "check"],
     '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 9]], "coeffs": [[0, 0, 0]]}'),
])
def test_json_shape_errors_are_typed(tmp_path, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run_cli(*command, str(path))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""


def test_argument_shape_errors_are_typed(tmp_path, zigzag):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[0, 0], [1, 1]], "values": [1, 2]}))
    for args in (["vf", "--list", zigzag, "--line", "1,2"],
                 ["join", "paste", "--fn", str(fn), "--band", "0"],
                 ["suite", "paper", "--only", "99"],
                 ["suite", "paper", "--only", "five"]):
        code, out, err = run_cli(*args)
        assert_single_error(code, err, "BadInputFile")
        assert out == ""


def test_suite_failed_out_prints_nothing(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("suite", "paper", "--only", "12", "--out", str(target))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""


def test_example_kind_error_lists_the_kinds_in_order(capsys):
    assert main(["example", "--kind", "nope", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error:BadArguments:argument --kind: invalid choice: 'nope' (choose from "
        "'reciprocal-alternating', 'reciprocal-odd', 'reciprocal-even', 'cantor', "
        "'one-over-n')\n")


def test_negative_seeds_are_typed_errors(square_fx, tmp_path):
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    s1.write_text(json.dumps({"list": [[0, 0], [1, 0], [1, 1]]}))
    s2.write_text(json.dumps({"list": [[1, 1], [0, 1], [0, 0]]}))
    code, _, err = run_cli("var", "--fn", square_fx, "--seed", "-1")
    assert_single_error(code, err, "VariationError")
    code, _, err = run_cli("join", "report", "--fn", square_fx, "--sigma1", str(s1),
                           "--sigma2", str(s2), "--mode", "search", "--seed", "-1")
    assert_single_error(code, err, "VariationError")


def test_suite_negative_seed_runs_nothing(tmp_path):
    target = tmp_path / "x.csv"
    code, out, err = run_cli("suite", "paper", "--seed", "-1", "--only", "8",
                             "--out", str(target))
    assert_single_error(code, err, "BadInputFile")
    assert out == ""
    assert not target.exists()


# a 2 x 2 grid on a rectangle with mixed denominators; INTERP_FLOAT replaces the
# centre value by 0.25, so only the two triangles without the centre stay exact
INTERP_POINTS = [[x, y] for y in ["1/3", "7/6", 2] for x in ["-1/2", "1/2", "3/2"]]
INTERP_EXACT = [3, "-5/7", 0, "1/2", -2, "11/3", 4, "2/9", -1]
INTERP_FLOAT = INTERP_EXACT[:4] + [0.25] + INTERP_EXACT[5:]
INTERP_DOC = {
    "vertices": [["-1/2", "1/3"], ["1/2", "1/3"], ["3/2", "1/3"], ["-1/2", "7/6"],
                 ["1/2", "7/6"], ["3/2", "7/6"], ["-1/2", 2], ["1/2", 2], ["3/2", 2]],
    "triangles": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                  [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]],
}
INTERP_EXACT_COEFFS = [
    ["-26/7", "-54/35", "58/35"], ["-5/2", -3, "11/4"], ["5/7", "22/5", "-533/210"],
    ["17/3", "-54/35", "-91/30"], ["-5/2", "8/3", "-139/36"], ["-34/9", "21/5", "-283/45"],
    ["17/3", "-28/5", "17/10"], ["-11/9", "8/3", "-9/2"]]
INTERP_FLOAT_COEFFS = [
    [-3.7142857142857144, 1.1571428571428573, 0.7571428571428571],
    [-0.25000000000000017, -3.0, 3.875],
    ["5/7", "22/5", "-533/210"],
    [3.4166666666666665, 1.157142857142857, -2.808333333333333],
    [-0.25, -0.03333333333333335, 0.4138888888888889],
    ["-34/9", "21/5", "-283/45"],
    [3.4166666666666665, -5.599999999999999, 5.074999999999999],
    [-1.2222222222222223, -0.03333333333333335, 0.9]]


@pytest.mark.parametrize("values, coeffs", [(INTERP_EXACT, INTERP_EXACT_COEFFS),
                                            (INTERP_FLOAT, INTERP_FLOAT_COEFFS)],
                         ids=["exact", "float"])
def test_ctpp_interp_output_is_pinned(tmp_path, capsys, values, coeffs):
    src = tmp_path / "vals.json"
    src.write_text(json.dumps({"points": INTERP_POINTS, "values": values}))
    out = tmp_path / "g.json"
    assert main(["ctpp", "interp", "--values", str(src), "--rect=-1/2,3/2,1/3,2",
                 "--n", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "triangles: 8\n"
    assert out.read_text() == json.dumps({**INTERP_DOC, "coeffs": coeffs}, indent=1)


def test_ctpp_extend_refuses_a_carrier_of_two_rings(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]],
                             "triangles": [[0, 1, 2], [3, 4, 5]],
                             "coeffs": [[0, 0, 0], [0, 0, 0]]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[-1, -1], [8, -1], [8, 8], [-1, 8]]}))
    ext = tmp_path / "ext.json"
    code, out, err = run_cli("ctpp", "extend", "--ctpp", str(g), "--poly", str(poly),
                             "--out", str(ext))
    assert_single_error(code, err, "CtppError")
    assert err == "error:CtppError:boundary is not a single closed ring\n"
    assert out == "" and not ext.exists()


@pytest.mark.parametrize("point", ["1/4,1/4", "5,5"])
def test_ctpp_classify_degenerate_triangle_is_typed_error(tmp_path, point):
    # the point lies in triangle 0 or in none; the scan reaches triangle 1 either way
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [2, 2], [3, 3], [4, 4]],
                                "triangles": [[0, 1, 2], [3, 4, 5]],
                                "coeffs": [[0, 0, 0], [0, 0, 0]]}))
    code, out, err = run_cli("ctpp", "classify", "--ctpp", str(path), "--point", point)
    assert_single_error(code, err, "DegenerateTriangle")
    assert err == "error:DegenerateTriangle:collinear vertices P(2, 2), P(3, 3), P(4, 4)\n"
    assert out == ""


def test_approx_c2_non_finite_oracle_is_typed_error(monkeypatch, capsys):
    from planevar import approx

    def f(x, y):
        return math.nan if (x, y) == (0.25, 0.25) else 2.0 * x

    zero = lambda x, y: 0.0  # noqa: E731
    nan_oracle = approx.C2Oracle(f=f, fx=lambda x, y: 2.0, fy=zero,
                                 fxx=zero, fxy=zero, fyy=zero)
    monkeypatch.setitem(approx.BUILTIN_ORACLES, "sin_cos", nan_oracle)
    assert main(["approx", "c2", "--builtin", "sin_cos", "--degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error:ApproxError:oracle f is not finite at (0.25, 0.25)\n"


# --- byte pins for the 1-D extension, the fills and the float tolerance -----

def test_iota_output_is_pinned(tmp_path, capsys):
    # float, complex and exact values; 1/3 and 1/2 fall in the gap (1/4, 1)
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[0, 0], ["1/4", 0], [1, 0], [2, 0]],
                              "values": [0.1, [1.5, -0.25], 2, "-1/3"]}))
    assert main(["iota", "--fn", str(fn), "--at", "1/3,1/2"]) == 0
    captured = capsys.readouterr()
    doc = {"points": [[0, 0], ["1/4", 0], ["1/3", 0], ["1/2", 0], [1, 0], [2, 0]],
           "values": [0.1, [1.5, -0.25], [1.5555555555555556, -0.2222222222222222],
                      [1.6666666666666667, -0.16666666666666669], 2, "-1/3"]}
    assert captured.out == json.dumps(doc, indent=1) + "\n"
    assert captured.err == "var: 4.31449659304\n"


ACMOD_GREEDY = ("77521/212520\nexact: false\n"
                "witness: (1/24,1/23);(1/23,1/22);(1/22,1/21);(1/21,1/20)\n")


@pytest.mark.parametrize("mode, code, out, err", [
    ("auto", 0, ACMOD_GREEDY, ""),
    ("exact", 2, "", "error:InstanceTooLarge:25 points > 24 for exact mode\n"),
    ("greedy", 0, ACMOD_GREEDY, ""),
])
def test_acmod_output_is_pinned(tmp_path, capsys, mode, code, out, err):
    # 25 points: one past the exact cap, so auto takes the greedy family
    fn = tmp_path / "r.json"
    assert main(["example", "--kind", "reciprocal-alternating", "--n", "24",
                 "--out", str(fn)]) == 0
    assert main(["acmod", "--fn", str(fn), "--delta", "1/100", "--mode", mode]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_join_graphfill_output_is_pinned(tmp_path, capsys):
    # x = -2 and 3 are clamped, -1/3 and 4/3 interpolated across the knot gaps
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"points": [[-1, 1], [0, 0], [2, 4]],
                              "values": [0.3, [1, 2], "5/3"]}))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"list": [[-1, 1], [0, 0], [2, 4]]}))
    out = tmp_path / "g.json"
    assert main(["join", "graphfill", "--fn", str(fn), "--curve", str(curve),
                 "--rect=-2,3,-1,5", "--n", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "sampled: 19\n"
    ys = [-1, 1, 3, 5]
    mid1, mid2 = [0.7666666666666666, 1.3333333333333333], [1.4444444444444444, 0.6666666666666667]
    doc = {"points": [[-2, y] for y in ys] + [[-1, 1]] + [["-1/3", y] for y in ys] + [[0, 0]]
           + [["4/3", y] for y in ys] + [[2, 4]] + [[3, y] for y in ys],
           "values": [0.3] * 5 + [mid1] * 4 + [[1.0, 2.0]] + [mid2] * 4 + ["5/3"] * 5}
    assert out.read_text() == json.dumps(doc, indent=1)


def test_join_paste_output_is_pinned(tmp_path):
    # 1/3 and 3/4 are interpolated on the band [0, 1]; -1 and 2 take its edge values
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({
        "points": [[-1, 0], [0, 0], ["1/2", 0], [1, 0], [2, 0], ["1/3", 1], ["3/4", -1],
                   [-1, 1], [2, 1]],
        "values": [-1, 0.25, [0.5, -1], "7/3", 2, 9, 9, 9, 9]}))
    out = tmp_path / "h.json"
    assert main(["join", "paste", "--fn", str(fn), "--band", "0,1", "--out", str(out)]) == 0
    doc = {"points": [[-1, 0], [0, 0], ["1/2", 0], [1, 0], [2, 0], ["1/3", 1], ["3/4", -1],
                      [-1, 1], [2, 1]],
           "values": [0.25, 0.25, [0.5, -1.0], "7/3", "7/3",
                      [0.41666666666666663, -0.6666666666666666], [1.4166666666666667, -0.5],
                      0.25, "7/3"]}
    assert out.read_text() == json.dumps(doc, indent=1)


def _two_piece_ctpp(path, a):
    """Two float pieces on the unit square that differ by (a - 1) * x along the diagonal."""
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
                                "triangles": [[0, 1, 3], [0, 3, 2]],
                                "coeffs": [[1.0, 2.0, 0.5], [a, 2.0, 0.5]]}))
    return str(path)


@pytest.mark.parametrize("a, out", [
    (1.0000000005, "valid\n"),
    (1.000000002, "violations: 1\nedge (0, 3) triangles (0, 1) values 0.5 0.5 3.5 3.500000002\n"),
])
def test_ctpp_check_float_tolerance_is_pinned(tmp_path, capsys, a, out):
    # the pieces agree at (0, 0) and differ by 5e-10 or 2e-9 at (1, 1)
    assert main(["ctpp", "check", _two_piece_ctpp(tmp_path / "g.json", a)]) == 0
    assert capsys.readouterr().out == out


def test_plot_svg_is_pinned(tmp_path):
    svg = tmp_path / "g.svg"
    assert main(["plot", "--ctpp", _two_piece_ctpp(tmp_path / "g.json", 1.000000002),
                 "--svg", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == \
        "87ebfd8ae2f7b8c89e8fa46f7c0cbf7bad2b427dfe54953fd6963e1b774377d2"


@pytest.mark.parametrize("argv, line", [
    (["ctpp", "interp", "--values", "{fn}", "--rect", "0,1,0,1", "--n", "257"],
     "error:GeomError:grid subdivision must be <= 256, got 257"),
    (["join", "graphfill", "--fn", "{fn}", "--curve", "{curve}", "--rect=-1,1,-1,1",
      "--n", "257"], "error:JoinsError:grid subdivision must be <= 256, got 257"),
    (["join", "sector", "--fn", "{sector}", "--rect=-1,1,-1,1", "--ray1", "1,0",
      "--ray2", "0,1", "--n", "257"], "error:JoinsError:grid subdivision must be <= 256, got 257"),
    (["example", "--kind", "reciprocal-alternating", "--n", "100001"],
     "error:OnedimError:example size must be <= 100000, got 100001"),
    (["example", "--kind", "cantor", "--n", "100001"],
     "error:OnedimError:example size must be <= 100000, got 100001"),
])
def test_grid_and_example_sizes_past_the_cap_are_typed_errors(tmp_path, capsys, argv, line):
    # one past geom.MAX_GRID_SUBDIVISION, joins.MAX_FILL_SUBDIVISION and
    # onedim.MAX_EXAMPLE_N; none of the three had an upper bound before
    files = {"fn": [[-1, 1], [0, 0], [1, 1]], "sector": [[1, 0], [0, 0], [0, 1]]}
    for name, pts in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"points": pts, "values": [1, 0, 1]}))
    (tmp_path / "curve.json").write_text(json.dumps({"list": files["fn"]}))
    code = main([arg.format(**{n: str(tmp_path / f"{n}.json") for n in ("fn", "curve", "sector")})
                 for arg in argv])
    captured = capsys.readouterr()
    assert_single_error(code, captured.err, line.split(":")[1])
    assert captured.err.splitlines() == [line]
    assert captured.out == ""
