"""Seeded operation pools for the four benchmark workloads.

A workload turns a seed into a pool of ``planevar`` CLI operations and the
input files they read. The sizes in a pool are the same for every seed; the
seed picks coordinates, values and search seeds only, so every seed costs
about the same while the inputs differ. An operation is a plain dict: its
argv, with ``{w}`` standing for the work directory, the files it writes, and
what its output check needs. The pool therefore round-trips through JSON, and
the input digest covers everything the program is given.

The pools are sized so that a pass over one takes one to five seconds and
so that the median and the 90th percentile of a pass's latencies fall inside
groups of operations of similar cost, not on the step between two groups.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from planevar import fileio
from planevar.ctpp import interpolate_grid
from planevar.geom import Point2, Rectangle

# var --mode search: enough proposals per operation that the proposal loop,
# not the sign-table build, sets the cost.
SEARCH_ITERS = 400
SEARCH_RESTARTS = 2
SEARCH_MAX_LEN = 12


def enc(v) -> int | str:
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _q(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), den)


def _pt(rng: random.Random, span: int, den: int) -> tuple[Fraction, Fraction]:
    return _q(rng, span, den), _q(rng, span, den)


def _distinct_pts(rng: random.Random, k: int, span: int, den: int) -> list:
    pts: list = []
    while len(pts) < k:
        p = _pt(rng, span, den)
        if p not in pts:
            pts.append(p)
    return pts


def _values(rng: random.Random, k: int, den: int = 16) -> list:
    return [_q(rng, 4, den) for _ in range(k)]


def _pts_doc(pts) -> list:
    return [[enc(x), enc(y)] for x, y in pts]


def _fn_doc(pts, values) -> dict:
    return {"points": _pts_doc(pts), "values": [enc(v) for v in values]}


class Pool:
    """Collects the operations of one workload and writes their input files."""

    def __init__(self, work: Path):
        self.work = work
        self.ops: list[dict] = []
        (work / "in").mkdir(parents=True, exist_ok=True)
        (work / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc) -> str:
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=1)
        (self.work / "in" / name).write_text(text)
        return "{w}/in/" + name

    @staticmethod
    def out(name: str) -> str:
        return "{w}/out/" + name

    def add(self, name: str, argv: list[str], check: dict, outs=()) -> None:
        self.ops.append({"name": name, "argv": list(argv), "outs": list(outs),
                         "check": check})


# --- vf_lists -------------------------------------------------------------------

# Distinct-point counts of the large lists: a ladder, with three lists of
# 40 points where the 90th percentile of a pass falls, so that it averages
# over several inputs of one size.
VF_LARGE = (20, 22, 24, 26, 28, 30, 32, 35, 40, 40, 40, 45)
VF_ORACLE_MAX_LEN = 16


def _list_with_runs(rng: random.Random, distinct: int, span: int, den: int) -> list:
    """``distinct`` points, a quarter of them consecutive on one line, plus repeats."""
    run = max(2, distinct // 4)
    x0, y0 = _pt(rng, span, den)
    dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
    step = Fraction(1, den)
    line = [(x0 + t * dx * step, y0 + t * dy * step) for t in range(run)]
    others: list = []
    while len(line) + len(others) < distinct:
        p = _pt(rng, span, den)
        if p not in line and p not in others:
            others.append(p)
    pos = rng.randint(0, len(others))
    lst = others[:pos] + line + others[pos:]
    for _ in range(max(1, distinct // 5)):
        lst.insert(rng.randint(0, len(lst)), rng.choice(lst))
    return lst


def _vf_op(pool: Pool, name: str, pts: list) -> None:
    path = pool.write(name + ".json", {"list": _pts_doc(pts)})
    pool.add(name, ["vf", "--list", path],
             {"kind": "vf", "list": path, "oracle": len(pts) <= VF_ORACLE_MAX_LEN})


def vf_lists(rng: random.Random, pool: Pool) -> None:
    for k in range(2, 11):
        # criterion-1 scale: random points on a sixths lattice
        _vf_op(pool, f"vf-small{k:02d}", [_pt(rng, 6, 6) for _ in range(k)])
        _vf_op(pool, f"vf-runs{k:02d}", _list_with_runs(rng, k, 6, 6))
    for i, k in enumerate(VF_LARGE):
        # a fine lattice keeps accidental collinearity, and so the line count, steady
        _vf_op(pool, f"vf-large{i:02d}-k{k}", _list_with_runs(rng, k, 4, 32))


# --- anneal ---------------------------------------------------------------------

ANNEAL_LATTICES = (4, 5, 6, 7)
ANNEAL_RANDOM = (10, 11, 12, 13, 14, 15, 16, 17, 18)


def _search_op(pool: Pool, rng: random.Random, name: str, fn_path: str) -> None:
    seed = rng.randrange(2**31)
    out = pool.out(name + ".csv")
    pool.add(name, ["var", "--fn", fn_path, "--mode", "search",
                    "--iters", str(SEARCH_ITERS), "--restarts", str(SEARCH_RESTARTS),
                    "--max-len-search", str(SEARCH_MAX_LEN), "--seed", str(seed),
                    "--out", out],
             {"kind": "var_search", "fn": fn_path, "iters": SEARCH_ITERS,
              "restarts": SEARCH_RESTARTS, "max_len": SEARCH_MAX_LEN, "seed": seed,
              "out": out}, outs=[out])


def anneal(rng: random.Random, pool: Pool) -> None:
    # criterion 7's pyramid on the 5x5 half-integer grid; the seed varies the search
    grid = [(Fraction(i, 2) - 1, Fraction(j, 2) - 1) for j in range(5) for i in range(5)]
    pyramid = [max(min(1 - abs(x), 1 - abs(y)), Fraction(0)) for x, y in grid]
    path = pool.write("pyramid.json", _fn_doc(grid, pyramid))
    for r in range(4):
        _search_op(pool, rng, f"search-pyramid{r}", path)
    for m in ANNEAL_LATTICES:
        pts = [(Fraction(i), Fraction(j)) for j in range(m) for i in range(m)]
        path = pool.write(f"lattice{m}.json", _fn_doc(pts, _values(rng, len(pts))))
        _search_op(pool, rng, f"search-lattice{m}", path)
    for k in ANNEAL_RANDOM:
        pts = _distinct_pts(rng, k, 4, 8)
        path = pool.write(f"random{k:02d}.json", _fn_doc(pts, _values(rng, k)))
        _search_op(pool, rng, f"search-random{k:02d}", path)


# --- exhaustive -----------------------------------------------------------------

EXACT_POINTS = 7
# (max_len, random-valued count, planar-valued count)
EXACT_MIX = ((5, 8, 4), (6, 2, 2))
JOINS_PER_FAMILY = 3


def _general_position(rng: random.Random, k: int, span: int, den: int) -> list:
    """``k`` points with no three collinear and no two pair directions parallel.

    The candidate-line count, and so the cost of an exhaustive search, is
    then the same for every seed.
    """
    while True:
        pts = _distinct_pts(rng, k, span, den)
        dirs = set()
        for i, (xi, yi) in enumerate(pts):
            for xj, yj in pts[i + 1:]:
                dx, dy = xj - xi, yj - yi
                dirs.add(dy / dx if dx else None)
        if len(dirs) == k * (k - 1) // 2:
            return pts


def _exact_op(pool: Pool, rng: random.Random, name: str, max_len: int,
              planar: bool) -> None:
    pts = _general_position(rng, EXACT_POINTS, 4, 4)
    coeffs = None
    if planar:
        a, b, c = (_q(rng, 8, 8) for _ in range(3))
        values = [a * x + b * y + c for x, y in pts]
        coeffs = [enc(a), enc(b), enc(c)]
    else:
        values = _values(rng, len(pts))
    path = pool.write(name + ".json", _fn_doc(pts, values))
    out = pool.out(name + ".csv")
    pool.add(name, ["var", "--fn", path, "--mode", "exact", "--max-len", str(max_len),
                    "--out", out],
             {"kind": "var_exact", "fn": path, "max_len": max_len, "planar": coeffs,
              "out": out}, outs=[out])


def _join_family(rng: random.Random, family: int):
    """Criterion 4's convexly-joining pairs: collinear split, subset, mirrored lattice."""
    if family == 0:
        d = (Fraction(0), Fraction(0))
        while d == (0, 0):
            d = _pt(rng, 3, 2)
        neg = sorted({Fraction(rng.randint(-8, -1), 4) for _ in range(3)})
        pos = sorted({Fraction(rng.randint(1, 8), 4) for _ in range(3)})
        s1 = [(t * d[0], t * d[1]) for t in neg + [Fraction(0)]]
        s2 = [(t * d[0], t * d[1]) for t in [Fraction(0)] + pos]
    elif family == 1:
        s2 = _distinct_pts(rng, 6, 4, 4)
        s1 = [s2[i] for i in sorted({rng.randint(0, 5) for _ in range(3)})]
    else:
        h, w = Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))
        zero = Fraction(0)
        shared = [(zero, zero), (w, zero), (2 * w, zero)]
        s1 = [(zero, h), (2 * w, h)] + shared
        s2 = [(zero, -h), (2 * w, -h)] + shared
    union = list(dict.fromkeys(s1 + s2))
    return union, s1, s2


def exhaustive(rng: random.Random, pool: Pool) -> None:
    for max_len, n_random, n_planar in EXACT_MIX:
        for i in range(n_random):
            _exact_op(pool, rng, f"exact-l{max_len}-random{i}", max_len, planar=False)
        for i in range(n_planar):
            _exact_op(pool, rng, f"exact-l{max_len}-planar{i}", max_len, planar=True)
    for family in range(3):
        for i in range(JOINS_PER_FAMILY):
            name = f"join-family{family}-{i}"
            union, s1, s2 = _join_family(rng, family)
            fn = pool.write(name + "-f.json", _fn_doc(union, _values(rng, len(union))))
            p1 = pool.write(name + "-s1.json", {"list": _pts_doc(s1)})
            p2 = pool.write(name + "-s2.json", {"list": _pts_doc(s2)})
            out = pool.out(name + ".csv")
            pool.add(name, ["join", "report", "--fn", fn, "--sigma1", p1, "--sigma2", p2,
                            "--mode", "exact", "--max-len", "5", "--name", name,
                            "--out", out],
                     {"kind": "join", "out": out}, outs=[out])


# --- ctpp_approx ----------------------------------------------------------------

INTERP_SIZES = (8, 12, 16, 20, 24)
CHECK_SIZES = (8, 16, 24)
CLASSIFY_SIZES = (8, 16)
MATCH_BASE_SIZES = (2, 2, 4, 4)
GRAPHFILL_SIZES = (8, 12, 16)
C2_DEGREES = (8, 12, 16)
BERNSTEIN_DEGREES = (8, 12, 16, 20, 24)
AFFINE_BERNSTEIN = (8, 16)
UNIT = "0,1,0,1"


def _grid_pts(n: int) -> list:
    return [(Fraction(i, n), Fraction(j, n)) for j in range(n + 1) for i in range(n + 1)]


def _ctpp_file(pool: Pool, rng: random.Random, name: str, n: int, span: int,
               den: int) -> str:
    """A grid interpolant of random vertex values, built by the library under test."""
    values = {Point2(x, y): _q(rng, span, den) for x, y in _grid_pts(n)}
    g = interpolate_grid(values, Rectangle.of(0, 1, 0, 1), n)
    return pool.write(name, fileio.ctpp_to_json(g))


def _point_arg(x: Fraction, y: Fraction) -> str:
    return f"{enc(x)},{enc(y)}"


def _grid_kind(x: Fraction, y: Fraction, n: int) -> str:
    """vertex / edge / planar for a point of the unit square on an n-grid."""
    u, v = x * n, y * n
    if u.denominator == 1 and v.denominator == 1:
        return "vertex"
    if u.denominator == 1 or v.denominator == 1 or u - int(u) == v - int(v):
        return "edge"
    return "planar"


def ctpp_approx(rng: random.Random, pool: Pool) -> None:
    for n in INTERP_SIZES:
        pts = _grid_pts(n)
        path = pool.write(f"interp{n}-values.json", _fn_doc(pts, _values(rng, len(pts))))
        out = pool.out(f"interp{n}.json")
        pool.add(f"interp{n}", ["ctpp", "interp", "--values", path, "--rect", UNIT,
                                "--n", str(n), "--out", out],
                 {"kind": "interp", "values": path, "n": n, "out": out}, outs=[out])

    ctpp_files = {n: _ctpp_file(pool, rng, f"g{n}.json", n, 4, 16)
                  for n in sorted(set(CHECK_SIZES) | set(CLASSIFY_SIZES))}
    for n in CHECK_SIZES:
        pool.add(f"check{n}", ["ctpp", "check", ctpp_files[n]],
                 {"kind": "stdout", "expect": "valid\n"})
    for n in CLASSIFY_SIZES:
        i, j = rng.randint(1, n - 2), rng.randint(1, n - 2)
        points = {
            "vertex 6": (Fraction(i, n), Fraction(j, n)),
            "edge 2": (Fraction(2 * i + 1, 2 * n), Fraction(2 * j + 1, 2 * n)),
            "planar 1": (Fraction(3 * i + 2, 3 * n), Fraction(3 * j + 1, 3 * n)),
        }
        for expect, (x, y) in points.items():
            tag = expect.split()[0]
            pool.add(f"classify{n}-{tag}", ["ctpp", "classify", "--ctpp", ctpp_files[n],
                                            "--point", _point_arg(x, y)],
                     {"kind": "stdout", "expect": expect + "\n"})

    # criterion 11's matching: a 7x7 sample of sixths, one matched point of each kind
    grid7 = _grid_pts(6)
    for r, n in enumerate(MATCH_BASE_SIZES):
        name = f"match{n}-{r}"
        f_path = pool.write(name + "-f.json", _fn_doc(grid7, _values(rng, len(grid7))))
        g0 = _ctpp_file(pool, rng, name + "-g0.json", n, 2, 8)
        chosen = [rng.choice([p for p in grid7 if _grid_kind(*p, n) == kind])
                  for kind in ("vertex", "edge", "planar")]
        p_path = pool.write(name + "-points.json", {"list": _pts_doc(chosen)})
        out = pool.out(name + "-sample.json")
        pool.add(name, ["approx", "match", "--fn", f_path, "--ctpp", g0,
                        "--points", p_path, "--delta", "1/13", "--sample-out", out],
                 {"kind": "match", "fn": f_path, "points": p_path, "out": out},
                 outs=[out])

    for n in GRAPHFILL_SIZES:
        name = f"graphfill{n}"
        a, b, c = Fraction(rng.randint(1, 4), 4), _q(rng, 1, 4) / 2, _q(rng, 1, 4) / 2
        xs = sorted({Fraction(rng.randint(-8, 8), 8) for _ in range(9)})
        knots = [(x, a * x * x + b * x + c) for x in xs]
        f_path = pool.write(name + "-f.json", _fn_doc(knots, _values(rng, len(knots))))
        k_path = pool.write(name + "-knots.json", {"list": _pts_doc(knots)})
        out = pool.out(name + ".json")
        pool.add(name, ["join", "graphfill", "--fn", f_path, "--curve", k_path,
                        "--rect=-1,1,-2,3", "--n", str(n), "--out", out],
                 {"kind": "graphfill", "fn": f_path, "n": n, "out": out}, outs=[out])

    for d in C2_DEGREES:
        out = pool.out(f"c2-{d}.csv")
        builtin = rng.choice(["sin_cos", "sin_exp"])
        pool.add(f"c2-{d}", ["approx", "c2", "--builtin", builtin, "--degree", str(d),
                             "--out", out],
                 {"kind": "c2", "out": out}, outs=[out])

    for d in BERNSTEIN_DEGREES:
        deg = 1 if d in AFFINE_BERNSTEIN else 3
        rows = [[_q(rng, 2, 4) if m + k <= deg else 0 for k in range(deg + 1)]
                for m in range(deg + 1)]
        path = pool.write(f"poly{d}.json", {"coeffs": [[enc(v) for v in row]
                                                       for row in rows]})
        out = pool.out(f"bernstein{d}.json")
        pool.add(f"bernstein{d}", ["approx", "bernstein", "--poly", path,
                                   "--degree", str(d), "--out", out],
                 {"kind": "bernstein", "poly": path, "affine": deg == 1, "out": out},
                 outs=[out])


# The kind of work whose speed tracks each workload's on a shared host, for
# run.SpeedProbe: interpreter-bound Python ("compute") or numpy over
# multi-MB arrays ("memory").
PROBES = {
    "vf_lists": "compute",      # candidate_lines in Python, then the sign table
    "anneal": "compute",        # the proposal loop on small sign matrices
    "exhaustive": "memory",     # vf_batch over 4096-list blocks
    "ctpp_approx": "compute",   # Fraction geometry, Bernstein, JSON
}

WORKLOADS = {
    "vf_lists": vf_lists,
    "anneal": anneal,
    "exhaustive": exhaustive,
    "ctpp_approx": ctpp_approx,
}


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``work``; return its pool."""
    pool = Pool(work)
    WORKLOADS[workload](random.Random(f"{workload}:{seed}"), pool)
    return pool.ops


def inputs_digest(ops: list[dict], work: Path) -> str:
    """SHA-256 over the operation list and every input file."""
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for path in sorted((work / "in").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def resolve(arg: str, work: Path) -> str:
    return arg.replace("{w}", str(work))
