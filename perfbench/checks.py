"""Output checks for benchmark operations.

Each check reads the operation's own input files back, recomputes what it
can through an independent route (the suite's pattern oracle, a witness
recount, the planar max-min formula, the known kind of a constructed point)
and returns a failure message, or None when the output is right. Checks run
outside the timed region.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

from planevar import fileio
from planevar.ctpp import validate_ctpp
from planevar.geom import Line
from planevar.suite import vf_pattern_oracle
from planevar.variation import (
    MismatchedEstimate,
    SearchConfig,
    var_exact_small,
    var_search,
    verify_estimate,
    vf_exact,
    vf_line,
)

from workloads import resolve

_WITNESS = re.compile(r"witness: (-?\d+)x \+ (-?\d+)y = (-?\d+)")


class Output:
    """What one execution of an operation produced."""

    def __init__(self, rc, stdout: str, stderr: str, files: dict[str, bytes | None]):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.files = files

    def text(self, key: str) -> str:
        data = self.files.get(key)
        if data is None:
            raise CheckFailed(f"{key} was not written")
        return data.decode()


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_vf(spec, out: Output, read) -> None:
    pts = fileio.point_list_from_json(read(spec["list"]))
    lines = out.stdout.splitlines()
    _expect(len(lines) == 2, f"expected two lines, got {out.stdout!r}")
    vf = int(lines[0])
    m = _WITNESS.fullmatch(lines[1])
    _expect(m is not None, f"unparsable witness {lines[1]!r}")
    count, _ = vf_line(pts, Line.from_coeffs(*(int(g) for g in m.groups())))
    _expect(count == vf, f"witness line crosses {count} segments, vf printed {vf}")
    if spec["oracle"]:
        want = vf_pattern_oracle(pts)
        _expect(want == vf, f"pattern oracle gives {want}, vf printed {vf}")


def _check_estimate(f, est, out: Output, key: str) -> None:
    _expect(out.stdout == fileio.fmt_number(est.value) + "\n",
            f"printed {out.stdout!r}, estimate is {est.value}")
    row = fileio.VAR_CSV_HEADER + "\n" + fileio.var_estimate_csv_row(est) + "\n"
    _expect(out.text(key) == row, f"csv {out.text(key)!r} != {row!r}")
    try:
        verify_estimate(f, est)
    except MismatchedEstimate as exc:
        raise CheckFailed(f"verify_estimate: {exc}") from exc
    vf = vf_exact(est.witness).vf
    _expect(vf == est.witness_vf, f"vf_exact(witness) = {vf} != witness_vf {est.witness_vf}")


def _check_var_search(spec, out: Output, read) -> None:
    f = fileio.sampled_function_from_json(read(spec["fn"]))
    est = var_search(f, SearchConfig(iters=spec["iters"], restarts=spec["restarts"],
                                     seed=spec["seed"], max_len=spec["max_len"]))
    _check_estimate(f, est, out, spec["out"])


def _check_var_exact(spec, out: Output, read) -> None:
    f = fileio.sampled_function_from_json(read(spec["fn"]))
    est = var_exact_small(f, max_len=spec["max_len"])
    _check_estimate(f, est, out, spec["out"])
    if spec["planar"] is not None:
        a, b, c = (Fraction(v) for v in spec["planar"])
        vals = [a * p.x + b * p.y + c for p in f.points]
        _expect(est.value == max(vals) - min(vals),
                f"planar data: {est.value} != max-min {max(vals) - min(vals)}")


def _check_join(spec, out: Output, read) -> None:
    text = out.text(spec["out"])
    _expect(out.stdout == text, "stdout differs from the csv file")
    header, row = text.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for key in ("joins_convexly", "lower_ok", "upper_ok", "exact"):
        _expect(cells.get(key) == "true", f"{key} is {cells.get(key)!r}")


def _check_stdout(spec, out: Output, read) -> None:
    _expect(out.stdout == spec["expect"], f"printed {out.stdout!r}, want {spec['expect']!r}")


def _check_interp(spec, out: Output, read) -> None:
    f = fileio.sampled_function_from_json(read(spec["values"]))
    g = fileio.ctpp_from_json(out.text(spec["out"]))
    n = spec["n"]
    _expect(out.stdout == f"triangles: {2 * n * n}\n", f"printed {out.stdout!r}")
    _expect(len(g.tri.triangles) == 2 * n * n, "wrong triangle count")
    for t, ids in enumerate(g.tri.triangles):
        for vid in ids:
            v = g.tri.vertices[vid]
            _expect(g.coeffs[t].eval(v) == f.value(v), f"triangle {t} misses vertex {v}")
    _expect(not validate_ctpp(g), "interpolant is not continuous")


def _check_match(spec, out: Output, read) -> None:
    f = fileio.sampled_function_from_json(read(spec["fn"]))
    pts = fileio.point_list_from_json(read(spec["points"]))
    want = f"matched: {len(pts)}\ninterp_max_err: 0.000e+00\nbound_ok: true\n"
    _expect(out.stdout == want, f"printed {out.stdout!r}")
    g = fileio.sampled_function_from_json(out.text(spec["out"]))
    _expect(g.points == f.points, "sample-out points differ from the sample")
    for p in pts:
        _expect(g.value(p) == f.value(p), f"matched point {p} not interpolated")


def _check_graphfill(spec, out: Output, read) -> None:
    f = fileio.sampled_function_from_json(read(spec["fn"]))
    g = fileio.sampled_function_from_json(out.text(spec["out"]))
    _expect(out.stdout == f"sampled: {len(g.points)}\n", f"printed {out.stdout!r}")
    n = spec["n"]
    _expect(len(g.points) >= (n + 1) ** 2, "fill grid incomplete")
    for p in f.points:
        _expect(g.value(p) == f.value(p), f"fill disagrees with f on the graph at {p}")


def _check_c2(spec, out: Output, read) -> None:
    text = out.text(spec["out"])
    _expect(out.stdout == text, "stdout differs from the csv file")
    row = text.splitlines()[-1].split(",")
    _expect(row[-1] == "true", f"c2 row does not pass: {row}")
    _expect(all(math.isfinite(float(v)) for v in row[:-1]), f"non-finite cell in {row}")


def _check_bernstein(spec, out: Output, read) -> None:
    target = fileio.poly2_from_json(read(spec["poly"]))
    b = fileio.poly2_from_json(out.text(spec["out"]))
    if spec["affine"]:
        _expect(b == target, "affine target not reproduced exactly")
    for x in (0, 1):
        for y in (0, 1):
            _expect(b.eval(x, y) == target.eval(x, y), f"corner ({x}, {y}) not interpolated")


CHECKS = {
    "vf": _check_vf,
    "var_search": _check_var_search,
    "var_exact": _check_var_exact,
    "join": _check_join,
    "stdout": _check_stdout,
    "interp": _check_interp,
    "match": _check_match,
    "graphfill": _check_graphfill,
    "c2": _check_c2,
    "bernstein": _check_bernstein,
}


def check(op: dict, out: Output, work: Path) -> str | None:
    """Failure message for one operation's output, or None when it is right."""
    if out.rc != 0:
        return f"exit {out.rc}: {out.stderr.strip()[-300:]}"

    def read(arg: str) -> str:
        return Path(resolve(arg, work)).read_text()

    try:
        CHECKS[op["check"]["kind"]](op["check"], out, read)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a check that crashes counts as a failed output, never aborts
        return f"check raised {type(exc).__name__}: {exc}"
    return None
