"""The quantitative verification suite.

Thirteen criteria exercise every checkable identity and inequality of the
variation calculus at desk scale: variation-factor monotonicity and oracle
agreement, the planar formula, the two-sided variation-join inequality, the
gap-extension isometry, the convex-graph pullback numbers, bump norms, the
divergent alternating-reciprocal example, first- and second-order
approximation error chains, exact point matching, the Cantor modulus
diagnostic, and the per-triangle gradient bound.

Each criterion is a plain check ``criterion_NN(rng, registry) -> (passed,
detail)``. ``run_suite`` is the one harness: it seeds, names and times every
criterion and wraps its verdict in a ``CriterionResult``. Criterion k gets a
generator on the k-th spawn of the root seed sequence, so criteria are
reproducible individually and as a set. ``registry`` is the run's list of
piecewise-planar functions: criteria 7, 9 and 11 append the functions they
build, and criterion 13 checks all of them (the pyramid alone when the list
is empty, as under ``--only 13``).

The pair-line pattern oracle used by criterion 2 is an independent
implementation: it enumerates achievable sign patterns as pair lines plus
exact perturbation codes (parallel shift, rotation about an on-line point,
rotation plus micro-shift) rather than the production direction/offset
family. Completeness: a line through two or more points is a pair line; a
line through exactly one point q realizes, between consecutive critical
directions, the pattern of a rotation perturbation about q of a pair line
through q; a line through no points realizes a shift perturbation of the
first line met when translating it (and when that line holds a single point,
a rotation-plus-micro-shift pattern of a pair line).
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _vfcore
from .geom import P, Point2, Rectangle, common_denominator
from .variation import (
    PlanarCoeffs,
    SampledFunction,
    SearchConfig,
    var_exact_small,
    var_planar,
    var_search,
    vf_exact,
)
from .onedim import (
    RealFunction1D,
    RealSample,
    ac_modulus,
    cantor_level,
    iota_extend,
    reciprocal_alternating,
    var_1d,
)
from .ctpp import (
    BumpSpec,
    CtppFunction,
    interpolate_grid,
    grid_vertex_matrix,
    grid_interpolant_values,
    make_bumps,
    pyramid_ctpp,
    triangle_lipschitz_report,
)
from .approx import BUILTIN_ORACLES, C2Oracle, Poly2, c2_to_poly, grid_lipschitz, match_points
from .joins import ConvexCurve, best_estimate, joins_convexly_on_sample, psi_pullback
from .onedim import bv_norm_1d


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


def suite_csv(results: list[CriterionResult]) -> str:
    lines = ["criterion,name,pass,detail"]
    for r in results:
        detail = r.detail.replace(",", ";")
        lines.append(f"{r.cid},{r.name},{'pass' if r.passed else 'FAIL'},{detail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared random helpers

def _rand_fraction(rng, span: int = 8, den: int = 8) -> Fraction:
    return Fraction(int(rng.integers(-span * den, span * den + 1)), den)


def _rand_point(rng, span: int, den: int) -> Point2:
    return P(_rand_fraction(rng, span, den), _rand_fraction(rng, span, den))


def _rand_values(rng, k: int) -> tuple:
    return tuple(Fraction(int(rng.integers(-64, 65)), 16) for _ in range(k))


# ---------------------------------------------------------------------------
# criterion 2's independent pattern oracle

def _crossing_count_reference(signs) -> int:
    n = len(signs) - 1
    if n == 0:
        return 1 if signs[0] == 0 else 0
    total = 0
    for j in range(n):
        a, b = signs[j], signs[j + 1]
        if a * b < 0:
            total += 1
        elif a == 0 and (j == 0 or signs[j - 1] != 0):
            total += 1
        elif j == n - 1 and a != 0 and b == 0:
            total += 1
    return total


def vf_pattern_oracle(points) -> int:
    # one lift to integers by the lcm D of every coordinate's denominator:
    # cross and dot then scale by D^2 > 0, which keeps their signs and order
    coords, _ = common_denominator([c for p in points for c in (p.x, p.y)])
    pts = list(zip(coords[::2], coords[1::2]))
    distinct = list(dict.fromkeys(pts))
    if len(distinct) == 1:
        return _crossing_count_reference([0] * len(pts))
    best = 0
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            (px, py), (qx, qy) = distinct[i], distinct[j]
            dx, dy = qx - px, qy - py
            res = [dx * (zy - py) - dy * (zx - px) for zx, zy in pts]      # cross(p, q, z)
            tpos = [dx * (zx - px) + dy * (zy - py) for zx, zy in pts]     # dot(p, q, z)
            sgn = [0 if v == 0 else (1 if v > 0 else -1) for v in res]
            patterns = [sgn]
            for s in (1, -1):
                patterns.append([s if v == 0 else v for v in sgn])
            anchors = sorted({tpos[k] for k in range(len(pts)) if sgn[k] == 0})
            for t0 in anchors:
                for rot in (1, -1):
                    rotated = []
                    for k in range(len(pts)):
                        if sgn[k] != 0:
                            rotated.append(sgn[k])
                        else:
                            d = tpos[k] - t0
                            rotated.append(0 if d == 0 else (rot if d > 0 else -rot))
                    patterns.append(rotated)
                    for ms in (1, -1):
                        patterns.append([ms if v == 0 else v for v in rotated])
            for pat in patterns:
                c = _crossing_count_reference(pat)
                if c > best:
                    best = c
    return max(best, 0)


# ---------------------------------------------------------------------------

def criterion_01(rng, registry) -> tuple[bool, str]:
    """vf monotone under insertion, and 1 <= vf <= n, on 10^4 random instances."""
    trials = 10_000
    violations = 0
    bound_violations = 0
    for _ in range(trials):
        n = int(rng.integers(1, 9))  # segments in S
        pts = tuple(_rand_point(rng, span=6, den=6) for _ in range(n + 1))
        w = _rand_point(rng, span=6, den=6)
        pos = int(rng.integers(n + 2))
        plus = pts[:pos] + (w,) + pts[pos:]
        # the family of plus serves both lists ("Completeness argument" in _vfcore)
        _, _, _, per_dir, rank, idx = _vfcore._dense_ranks(plus)
        vf_s = int(_vfcore._sweep_counts(per_dir, rank, np.delete(idx, pos)).max())
        vf_p = int(_vfcore._sweep_counts(per_dir, rank, idx).max())
        if vf_s > vf_p:
            violations += 1
        if not (1 <= vf_s <= max(n, 1)) or not (1 <= vf_p <= n + 1):
            bound_violations += 1
    ok = violations == 0 and bound_violations == 0
    return ok, (f"trials={trials} violations={violations} "
                f"bound_violations={bound_violations}")


def _float_projections(ints, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, L) float projections a*x + b*y of the m integer points on the L directions.

    Points run along the first axis: with m <= 9 and L = 10^5, the reductions
    and broadcasts then run along the long axis.
    """
    X = np.array(ints, dtype=float)
    proj = np.multiply.outer(X[:, 0], a)
    proj += np.multiply.outer(X[:, 1], b)
    return proj


def _exact_line_signs(ints, proj: np.ndarray, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray) -> np.ndarray:
    """(m, L) int8 exact signs of a*x + b*y - c, each float line at the m integer
    points, given their ``_float_projections``. The float residual decides where
    it clears its rounding bound; the rest are decided in Fractions."""
    resid = proj - c
    bound = 4 * np.finfo(float).eps * (np.abs(proj) + np.abs(c) + 1)
    signs = np.sign(resid).astype(np.int8)
    for pi, li in zip(*np.nonzero(np.abs(resid) <= bound)):
        exact = (Fraction(float(a[li])) * ints[pi][0] + Fraction(float(b[li])) * ints[pi][1]
                 - Fraction(float(c[li])))
        signs[pi, li] = 0 if exact == 0 else (1 if exact > 0 else -1)
    return signs


def criterion_02(rng, registry) -> tuple[bool, str]:
    """vf_exact equals the pattern oracle and dominates 1e5 random lines per list."""
    lists = 500
    lines_per_list = 100_000
    mismatches = 0
    random_line_excess = 0
    for _ in range(lists):
        n = int(rng.integers(1, 9))
        pts = tuple(_rand_point(rng, span=4, den=4) for _ in range(n + 1))
        vf_prod = vf_exact(pts).vf
        if vf_prod != vf_pattern_oracle(pts):
            mismatches += 1
            continue
        # random-line lower bounds (exact signs via float filter + rational fallback)
        ints, _ = _vfcore.scale_to_ints(pts)
        theta = rng.random(lines_per_list) * math.pi
        a = np.cos(theta)
        b = np.sin(theta)
        proj = _float_projections(ints, a, b)
        lo, hi = proj.min(axis=0), proj.max(axis=0)
        c = lo + (hi - lo + 1.0) * rng.random(lines_per_list) - 0.5
        counts = _vfcore._counts_from_matrix(_exact_line_signs(ints, proj, a, b, c).T)
        if int(counts.max()) > vf_prod:
            random_line_excess += 1
    ok = mismatches == 0 and random_line_excess == 0
    return ok, (f"lists={lists} oracle_mismatches={mismatches} "
                f"random_line_excess={random_line_excess}")


def criterion_03(rng, registry) -> tuple[bool, str]:
    """var_exact_small equals max-min for planar data, 100 random instances."""
    bad = 0
    for _ in range(100):
        k = int(rng.integers(2, 8))
        pts = []
        while len(pts) < k:
            p = _rand_point(rng, span=4, den=4)
            if p not in pts:
                pts.append(p)
        coeffs = PlanarCoeffs(_rand_fraction(rng), _rand_fraction(rng),
                              _rand_fraction(rng))
        f = SampledFunction(tuple(pts), tuple(coeffs.eval(p) for p in pts))
        est = var_exact_small(f, max_len=4)
        if est.value != var_planar(coeffs, pts):
            bad += 1
    return bad == 0, f"instances=100 mismatches={bad}"


def _join_instance(rng, family: int):
    """A convexly-joining pair on-sample with random rational values."""
    if family == 0:
        # collinear split through a shared point
        d = _rand_point(rng, span=3, den=2)
        while d.x == 0 and d.y == 0:
            d = _rand_point(rng, span=3, den=2)
        neg = sorted({Fraction(int(rng.integers(-8, 0)), 4) for _ in range(3)})
        pos = sorted({Fraction(int(rng.integers(1, 9)), 4) for _ in range(3)})
        ts1 = neg + [Fraction(0)]
        ts2 = [Fraction(0)] + pos
        s1 = tuple(Point2(t * d.x, t * d.y) for t in ts1)
        s2 = tuple(Point2(t * d.x, t * d.y) for t in ts2)
    elif family == 1:
        # subset pair: sigma1 inside sigma2
        pts = []
        while len(pts) < 6:
            p = _rand_point(rng, span=4, den=4)
            if p not in pts:
                pts.append(p)
        s2 = tuple(pts)
        take = sorted(set(int(v) for v in rng.integers(0, 6, size=3)))
        s1 = tuple(pts[i] for i in take) or (pts[0],)
    else:
        # mirrored lattice: crossings land on sampled half-lattice axis points
        h = Fraction(int(rng.integers(1, 4)))
        w = Fraction(int(rng.integers(1, 4)))
        shared = (P(0, 0), Point2(w, Fraction(0)), Point2(2 * w, Fraction(0)))
        s1 = (Point2(Fraction(0), h), Point2(2 * w, h)) + shared
        s2 = (Point2(Fraction(0), -h), Point2(2 * w, -h)) + shared
    union = tuple(dict.fromkeys(s1 + s2))
    values = _rand_values(rng, len(union))
    f = SampledFunction(union, values)
    return f, s1, s2


def criterion_04(rng, registry) -> tuple[bool, str]:
    """Two-sided variation-join inequality on 200 convexly-joining instances."""
    lower_bad = upper_bad = joins_bad = 0
    for trial in range(200):
        f, s1, s2 = _join_instance(rng, trial % 3)
        if not joins_convexly_on_sample(s1, s2):
            joins_bad += 1
            continue
        v1 = best_estimate(f.restrict(s1), "exact", 5, 0).value
        v2 = best_estimate(f.restrict(s2), "exact", 5, 0).value
        vu = best_estimate(f, "exact", 5, 0).value
        if max(v1, v2) > vu:
            lower_bad += 1
        if vu > v1 + v2:
            upper_bad += 1
    ok = lower_bad == 0 and upper_bad == 0 and joins_bad == 0
    return ok, (f"instances=200 lower_violations={lower_bad} "
                f"upper_violations={upper_bad} non_joining={joins_bad}")


def criterion_05(rng, registry) -> tuple[bool, str]:
    """Gap-extension isometry: var unchanged on 200 random 1-D instances."""
    bad = 0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        xs = sorted({Fraction(int(rng.integers(-32, 33)), 8) for _ in range(k)})
        if len(xs) < 2:
            continue
        f = RealFunction1D(RealSample(tuple(xs)), _rand_values(rng, len(xs)))
        lo, hi = xs[0], xs[-1]
        grid = sorted({lo + (hi - lo) * Fraction(int(rng.integers(0, 17)), 16)
                       for _ in range(5)})
        ext = iota_extend(f, RealSample(tuple(grid)))
        if var_1d(ext) != var_1d(f):
            bad += 1
    return bad == 0, f"instances=200 mismatches={bad}"


def criterion_06(rng, registry) -> tuple[bool, str]:
    """Convex-graph pullback numbers: variation 1 on the graph, 2 after pullback."""
    knots = [(-1, 1), (Fraction(-1, 2), Fraction(1, 2)), (0, 0),
             (Fraction(1, 2), Fraction(1, 2)), (1, 1)]
    curve = ConvexCurve.of(knots)
    pts = curve.graph_points()
    f = SampledFunction(pts, tuple(abs(p.x) for p in pts))
    v_graph = var_exact_small(f, max_len=5).value
    v_pull = var_1d(psi_pullback(f, curve))
    ok = v_graph == 1 and v_pull == 2
    return ok, f"var_graph={v_graph} var_pullback={v_pull}"


def criterion_07(rng, registry) -> tuple[bool, str]:
    """Bump norms: plateau norm 3 exactly; pyramid search in [2, 4] over 1e6 proposals."""
    bumps = make_bumps(BumpSpec.of(Fraction(1, 2), Fraction(1)))
    norm = bv_norm_1d(bumps.g_s_function())
    grid = tuple(P(Fraction(i, 2) - 1, Fraction(j, 2) - 1)
                 for j in range(5) for i in range(5))
    fb = SampledFunction(grid, tuple(bumps.pyramid(p) for p in grid))
    seed = int(rng.integers(2**31))
    est = var_search(fb, SearchConfig(iters=125_000, restarts=8, seed=seed))
    proposals = est.stats["proposals"]
    max_seen = est.stats["max_objective_seen"]
    registry.append(pyramid_ctpp())
    ok = norm == 3 and est.value >= 2 and max_seen <= 4.0 and proposals >= 1_000_000
    return ok, (f"plateau_norm={norm} pyramid_lower={fmt(est.value)} "
                f"max_seen={max_seen:.6g} proposals={proposals}")


def fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{float(v):.6g}"


def criterion_08(rng, registry) -> tuple[bool, str]:
    """Alternating reciprocals diverge: var over first N >= 2 ln N - 2; N=4 exact."""
    ok = True
    details = []
    for n in (10, 100, 1000):
        f = reciprocal_alternating(n)
        pts = tuple(Fraction(1, k) for k in range(1, n + 1))
        sub = RealFunction1D.from_pairs([(x, f.at(x)) for x in pts])
        v = var_1d(sub)
        lb = 2 * math.log(n) - 2
        details.append(f"N={n}:{float(v):.4f}>=~{lb:.4f}")
        ok = ok and v >= Fraction(lb)
    f4 = reciprocal_alternating(4)
    sub4 = RealFunction1D.from_pairs([(Fraction(1, k), f4.at(Fraction(1, k)))
                                      for k in range(1, 5)])
    v4 = var_1d(sub4)
    ok = ok and v4 == Fraction(35, 12)
    details.append(f"N=4:{v4}==35/12")
    return ok, " ".join(details)


def criterion_09(rng, registry) -> tuple[bool, str]:
    """First-order interpolation: sup err <= eps and grid Lipschitz <= sqrt(2) eps."""
    n = 16
    rect = Rectangle.of(0, 1, 0, 1)

    def f(x, y):
        return math.sin(x) * math.cos(y)

    g = interpolate_grid(lambda v: f(float(v.x), float(v.y)), rect, n)
    registry.append(g)

    fine = 128
    xs = np.linspace(0.0, 1.0, fine + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    F = np.sin(X) * np.cos(Y)
    FX = np.cos(X) * np.cos(Y)
    FY = -np.sin(X) * np.sin(Y)

    # modulus of f and grad f at the cell-diameter scale sqrt(2)/n
    diam = math.sqrt(2) / n
    step = 1.0 / fine
    rad = int(math.floor(diam / step))
    mod_f = 0.0
    mod_g = 0.0
    for di in range(0, rad + 1):
        for dj in range(-rad, rad + 1):
            if di == 0 and dj <= 0:
                continue
            if (di * di + dj * dj) * step * step > diam * diam:
                continue
            sl_a = (slice(0, fine + 1 - di),
                    slice(max(0, -dj), fine + 1 - max(0, dj)))
            sl_b = (slice(di, fine + 1),
                    slice(max(0, dj), fine + 1 + min(0, dj)))
            mod_f = max(mod_f, float(np.max(np.abs(F[sl_a] - F[sl_b]))))
            gdiff = np.sqrt((FX[sl_a] - FX[sl_b]) ** 2 + (FY[sl_a] - FY[sl_b]) ** 2)
            mod_g = max(mod_g, float(np.max(gdiff)))
    eps = max(mod_f, mod_g)

    vert = grid_vertex_matrix(g, n)
    G = grid_interpolant_values(rect, n, vert, X, Y)
    sup_err = float(np.max(np.abs(F - G)))

    coarse = slice(0, fine + 1, 2)  # 65x65 subgrid for the pairwise Lipschitz scan
    lip = grid_lipschitz((F - G)[coarse, coarse], X[coarse, coarse], Y[coarse, coarse])

    ok = sup_err <= eps and lip <= math.sqrt(2) * eps * 1.01
    return ok, (f"eps_meas={eps:.6g} sup_err={sup_err:.6g} "
                f"lip={lip:.6g} bound={math.sqrt(2) * eps * 1.01:.6g}")


def criterion_10(rng, registry) -> tuple[bool, str]:
    """Second-order pipeline: Lipschitz-norm chain at degree 12; exact cubics."""
    _, rep = c2_to_poly(BUILTIN_ORACLES["sin_exp"], degree=12, grid_n=41)
    chain_ok = rep.lip_norm_err <= (4 + math.sqrt(13)) * rep.eps_meas * 1.01

    exact_ok = True
    for _ in range(10):
        rows = [[_rand_fraction(rng, span=3, den=4) for _ in range(4)]
                for _ in range(4)]
        for m in range(4):
            for nn in range(4):
                if m + nn > 3:
                    rows[m][nn] = Fraction(0)
        fpoly = Poly2.from_rows(rows)
        p, _ = c2_to_poly(C2Oracle.from_poly(fpoly), degree=2)
        if p != fpoly:
            exact_ok = False
    fixed = Poly2.from_rows([[0, 0, 1], [0, 0, 0], [0, 1, 0]])  # x^2 y + y^2
    p_fixed, _ = c2_to_poly(C2Oracle.from_poly(fixed), degree=2)
    exact_ok = exact_ok and p_fixed == fixed

    ok = rep.passed and chain_ok and exact_ok
    return ok, (f"eps={rep.eps_meas:.6g} lipnorm={rep.lip_norm_err:.6g} "
                f"bound={(4 + math.sqrt(13)) * rep.eps_meas * 1.01:.6g} "
                f"cubic_exact={exact_ok}")


def criterion_11(rng, registry) -> tuple[bool, str]:
    """Point matching: exact interpolation and the (4n+1)/(4n+2) bookkeeping, 50x."""
    rect = Rectangle.of(0, 1, 0, 1)
    bad_interp = bad_book = 0
    for _ in range(50):
        vals = {}
        g0 = interpolate_grid(
            lambda v: vals.setdefault(v, _rand_fraction(rng, span=2, den=8)), rect, 2)
        registry.append(g0)
        grid7 = tuple(P(Fraction(i, 6), Fraction(j, 6))
                      for j in range(7) for i in range(7))
        f = SampledFunction(grid7, _rand_values(rng, len(grid7)))
        n_pts = int(rng.integers(1, 4))
        chosen: list[Point2] = []
        delta = Fraction(1, 13)
        attempts = 0
        while len(chosen) < n_pts and attempts < 100:
            attempts += 1
            cand = grid7[int(rng.integers(len(grid7)))]
            if all(max(abs(cand.x - q.x), abs(cand.y - q.y)) >= 2 * delta
                   for q in chosen):
                chosen.append(cand)
        g, rep = match_points(f, g0, tuple(chosen), delta)
        for p in chosen:
            if g.eval(p) != f.value(p):
                bad_interp += 1
        if not rep.bound_ok:
            bad_book += 1
    ok = bad_interp == 0 and bad_book == 0
    return ok, (f"instances=50 interp_failures={bad_interp} "
                f"bookkeeping_failures={bad_book}")


def criterion_12(rng, registry) -> tuple[bool, str]:
    """Cantor diagnostic: variation 1 at every level; modulus stays >= 1/2."""
    ok = True
    details = []
    for k in range(1, 7):
        ck = cantor_level(k)
        v = var_1d(ck)
        ok = ok and v == 1
    details.append("var=1 for k<=6")
    for k in range(2, 7):
        ck = cantor_level(k)
        budget = Fraction(2, 3) ** k
        r = ac_modulus(ck, budget)
        ok = ok and r.value >= Fraction(1, 2)
        details.append(f"k={k}:delta={fmt(budget)}:mod={fmt(r.value)}")
    return ok, " ".join(details)


def criterion_13(rng, registry) -> tuple[bool, str]:
    """Gradient bound |grad| <= (2/r) sup|F| for every piece built in the suite."""
    pieces = 0
    violations = 0
    funcs = list(registry)
    if not funcs:
        funcs = [pyramid_ctpp()]
    for g in funcs:
        rep = triangle_lipschitz_report(g)
        pieces += len(rep)
        violations += sum(0 if r.ok else 1 for r in rep)
    ok = violations == 0 and pieces > 0
    return ok, f"functions={len(funcs)} pieces={pieces} violations={violations}"


CRITERIA = {
    1: ("vf_insertion_monotonicity", criterion_01),
    2: ("vf_oracle_agreement", criterion_02),
    3: ("planar_formula", criterion_03),
    4: ("variation_join", criterion_04),
    5: ("iota_isometry", criterion_05),
    6: ("graph_pullback_factor_two", criterion_06),
    7: ("bump_norms", criterion_07),
    8: ("reciprocal_divergence", criterion_08),
    9: ("c1_grid_interpolation", criterion_09),
    10: ("c2_pipeline", criterion_10),
    11: ("point_matching", criterion_11),
    12: ("cantor_modulus_diagnostic", criterion_12),
    13: ("triangle_gradient_bound", criterion_13),
}


def run_suite(seed: int = 0, only: list[int] | None = None) -> Iterator[CriterionResult]:
    """Run the criteria (all by default) in id order, yielding each result when it is done."""
    spawns = np.random.SeedSequence(seed).spawn(len(CRITERIA))
    registry: list[CtppFunction] = []
    for cid in sorted(set(only)) if only else sorted(CRITERIA):
        name, fn = CRITERIA[cid]
        t0 = time.perf_counter()
        passed, detail = fn(np.random.default_rng(spawns[cid - 1]), registry)
        yield CriterionResult(cid, name, passed, detail, time.perf_counter() - t0)
