"""Bernstein approximants, the second-derivative pipeline, matching corrections."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planevar import approx
from planevar.geom import P, Rectangle, to_fraction
from planevar.variation import SampledFunction, SearchConfig, var_search
from planevar.ctpp import interpolate_grid, solve_plane
from planevar.approx import (
    MAX_DEGREE,
    BUILTIN_ORACLES,
    MAX_GRID_N,
    ApproxError,
    C2Oracle,
    InconsistentOracle,
    OverlappingSquares,
    PointNotInDomain,
    Poly2,
    bernstein2,
    bernstein2_of_poly,
    c2_to_poly,
    grid_lipschitz,
    match_points,
)

RECT01 = Rectangle.of(0, 1, 0, 1)


class TestPoly2:
    def test_eval_and_trim(self):
        p = Poly2.from_rows([[1, 2], [3, 0], [0, 0]])
        assert p.deg_x == 1 and p.deg_y == 1
        assert p.eval(Fraction(1, 2), Fraction(1, 3)) == \
            1 + 2 * Fraction(1, 3) + 3 * Fraction(1, 2)

    def test_derivatives(self):
        x2y = Poly2.from_rows([[0, 0], [0, 0], [0, 1]])
        assert x2y.dx() == Poly2.from_rows([[0, 0], [0, 2]])  # 2xy
        assert x2y.dy() == Poly2.from_rows([[0], [0], [1]])   # x^2

    def test_antiderivatives(self):
        xy = Poly2.from_rows([[0, 0], [0, 1]])
        assert xy.int_x() == Poly2.from_rows([[0, 0], [0, 0], [0, Fraction(1, 2)]])
        assert xy.int_y() == Poly2.from_rows([[0, 0, 0], [0, 0, Fraction(1, 2)]])

    def test_float_lift_is_exact(self):
        p = Poly2.from_rows([[0.5]])
        assert p.coeffs[0][0] == Fraction(1, 2)

    @pytest.mark.parametrize("rows", [[], [[]], [[], []]])
    def test_empty_rows_are_refused(self, rows):
        with pytest.raises(ApproxError, match="^Poly2 needs at least one coefficient$"):
            Poly2.from_rows(rows)


class TestBernstein:
    def test_constant(self):
        assert bernstein2(lambda x, y: Fraction(7), 2) == Poly2.constant(7)

    def test_affine_reproduced(self):
        for d in (1, 2, 5):
            assert bernstein2(lambda x, y: x, d) == Poly2.from_rows([[0], [1]])
            assert bernstein2(lambda x, y: 2 * x - 3 * y + 1, d) == \
                Poly2.from_rows([[1, -3], [2, 0]])

    def test_x_squared_closed_form(self):
        # B_d(x^2) = x^2 + x(1-x)/d
        for d in (1, 2, 4):
            expect = Poly2.from_rows([[0], [Fraction(1, d)],
                                      [1 - Fraction(1, d)]])
            assert bernstein2(lambda x, y: x * x, d) == expect
        b1 = bernstein2(lambda x, y: x * x, 1)
        worst = max(abs(b1.eval(Fraction(k, 16), 0) - Fraction(k, 16) ** 2)
                    for k in range(17))
        assert worst == Fraction(1, 4)  # at x = 1/2

    def test_monotone_convergence_for_convex(self):
        xs = np.linspace(0, 1, 21)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        for target, F in ((lambda x, y: float(x) ** 2, X ** 2),
                          (lambda x, y: math.exp(float(x) + float(y)),
                           np.exp(X + Y))):
            prev = None
            for d in (2, 4, 8):
                b = bernstein2(target, d)
                err = float(np.max(np.abs(b.eval_float_grid(X, Y) - F)))
                if prev is not None:
                    assert err <= prev + 1e-12
                prev = err


class TestC2Pipeline:
    def test_exact_quadratic_cubic(self):
        f = Poly2.from_rows([[0, 0, 1], [0, 0, 0], [0, 1, 0]])  # x^2 y + y^2
        p, rep = c2_to_poly(C2Oracle.from_poly(f), 2)
        assert p == f
        assert rep.eps_meas == 0

    def test_constant(self):
        p, _ = c2_to_poly(C2Oracle.from_poly(Poly2.constant(Fraction(5))), 1)
        assert p == Poly2.constant(5)

    def test_internal_chain_small_degree(self):
        oracle = C2Oracle(
            f=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
            fx=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
            fy=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
            fxx=lambda x, y: -math.sin(float(x)) * math.exp(float(y)),
            fxy=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
            fyy=lambda x, y: math.sin(float(x)) * math.exp(float(y)))
        p, rep = c2_to_poly(oracle, 6, grid_n=21)
        assert rep.passed, rep.checks
        assert rep.hx_err <= 2 * rep.eps_meas + rep.tol
        assert rep.dpx_err <= 3 * rep.eps_meas + rep.tol
        assert rep.dpy_err <= 2 * rep.eps_meas + rep.tol
        assert rep.lip_norm_err <= (4 + math.sqrt(13)) * rep.eps_meas + rep.tol

    @pytest.mark.parametrize("name", ["sin_exp", "sin_cos", "cubic"])
    @pytest.mark.parametrize("degree", [1, 2, 5, 12])
    def test_partials_of_p_are_the_first_partial_approximants(self, name, degree):
        """p.dx() == h_x and p.dy() == h_y, so the report's dpx_err and dpy_err,
        measured on h_x and h_y, are those of p's own partials bit for bit."""
        oracle = BUILTIN_ORACLES.get(name) or C2Oracle.from_poly(
            Poly2.from_rows([[Fraction(1, 3), 2, 0, -1], [-1, Fraction(5, 4), 3], [0, 1], [2]]))
        p, rep = c2_to_poly(oracle, degree, grid_n=21)
        g_xx, g_xy, g_yy = (bernstein2(g, degree) for g in (oracle.fxx, oracle.fxy, oracle.fyy))
        zero = Fraction(0)
        assert p.dx() == (Poly2.constant(oracle.fx(zero, zero)) + g_xx.at_y(0).int_x()
                          + g_xy.int_y())
        assert p.dy() == (Poly2.constant(oracle.fy(zero, zero)) + g_xy.int_x()
                          + g_yy.at_x(0).int_y())
        xs = np.linspace(0.0, 1.0, 21)
        X, Y = xs[:, None], xs[None, :]
        for err, partial, want in ((rep.dpx_err, p.dx(), oracle.fx),
                                   (rep.dpy_err, p.dy(), oracle.fy)):
            sampled = np.array([[float(want(a, b)) for b in xs.tolist()] for a in xs.tolist()])
            assert err == float(np.max(np.abs(sampled - partial.eval_float_grid(X, Y))))
        assert rep.dpx_err == rep.hx_err

    def test_inconsistent_oracle(self):
        bad = C2Oracle(
            f=lambda x, y: float(x) ** 2,
            fx=lambda x, y: 0.0,  # wrong
            fy=lambda x, y: 0.0,
            fxx=lambda x, y: 2.0,
            fxy=lambda x, y: 0.0,
            fyy=lambda x, y: 0.0)
        with pytest.raises(InconsistentOracle):
            c2_to_poly(bad, 2)


def _match_triangle(v0, v1, v2, f_vals, g0_vals):
    """The plane h matching f - g0 at three vertices, with the paper's
    variation-norm bookkeeping for it: (h, sup |h| + spread, 3 sup |h|)."""
    deltas = [a - b for a, b in zip(f_vals, g0_vals)]
    sup = max(abs(d) for d in deltas)
    return solve_plane(v0, v1, v2, *deltas), sup + max(deltas) - min(deltas), 3 * sup


class TestMatchTriangle:
    def test_zero_difference(self):
        h, bv_bound, _ = _match_triangle(P(0, 0), P(1, 0), P(0, 1),
                                         (Fraction(1), Fraction(2), Fraction(3)),
                                         (Fraction(1), Fraction(2), Fraction(3)))
        assert (h.a, h.b, h.c) == (0, 0, 0)
        assert bv_bound == 0

    def test_unit_corner(self):
        h, bv_bound, bound_3sup = _match_triangle(P(0, 0), P(1, 0), P(0, 1),
                                                  (Fraction(1), Fraction(0), Fraction(0)),
                                                  (Fraction(0), Fraction(0), Fraction(0)))
        assert (h.a, h.b, h.c) == (-1, -1, 1)  # 1 - x - y
        assert bound_3sup == 3
        assert bv_bound == 2  # sup 1 + spread 1

    def test_bound_tightness_window(self):
        rng = random.Random(7)
        for _ in range(60):
            fv = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(3))
            gv = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(3))
            if fv == gv:
                continue
            _, bv_bound, bound_3sup = _match_triangle(P(0, 0), P(1, 0), P(0, 1), fv, gv)
            assert bv_bound <= bound_3sup
            assert bound_3sup <= 3 * bv_bound


class TestMatchPoints:
    def _setup(self):
        g0 = interpolate_grid(lambda v: v.x * v.y, RECT01, 2)
        grid7 = tuple(P(Fraction(i, 6), Fraction(j, 6))
                      for j in range(7) for i in range(7))
        rng = random.Random(3)
        f = SampledFunction(grid7, tuple(Fraction(rng.randint(-12, 12), 8)
                                         for _ in grid7))
        return g0, f, grid7

    def test_empty_points_is_identity(self):
        g0, f, _ = self._setup()
        g, rep = match_points(f, g0, (), Fraction(1, 8))
        assert rep.n_points == 0 and rep.bound_ok
        assert g.eval(P(Fraction(1, 3), Fraction(1, 2))) == \
            g0.eval(P(Fraction(1, 3), Fraction(1, 2)))

    def test_single_point_bound(self):
        g0, f, grid7 = self._setup()
        target = grid7[10]
        g, rep = match_points(f, g0, (target,), Fraction(1, 8))
        assert g.eval(target) == f.value(target)
        c = abs(rep.coefs[0])
        assert rep.var_h_bound == 4 * c
        h_sample = SampledFunction(
            grid7, tuple(g.eval(p) - g0.eval(p) for p in grid7))
        est = var_search(h_sample, SearchConfig(iters=1500, restarts=4, seed=0))
        assert est.value <= 4 * c

    def test_three_points_exact(self):
        g0, f, grid7 = self._setup()
        pts = (P(Fraction(1, 6), Fraction(1, 6)),
               P(Fraction(5, 6), Fraction(1, 6)),
               P(Fraction(1, 2), Fraction(5, 6)))
        g, rep = match_points(f, g0, pts, Fraction(1, 8))
        for p in pts:
            assert g.eval(p) == f.value(p)
        assert rep.bound_ok and rep.interp_max_err == 0

    def test_overlapping_squares(self):
        g0, f, grid7 = self._setup()
        with pytest.raises(OverlappingSquares):
            match_points(f, g0, (grid7[0], grid7[1]), Fraction(1, 8))

    def test_point_not_in_domain(self):
        g0, f, _ = self._setup()
        with pytest.raises(PointNotInDomain):
            match_points(f, g0, (P(5, 5),), Fraction(1, 8))


def test_grid_lipschitz_linear():
    xs = np.linspace(0, 1, 9)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert grid_lipschitz(2 * X, X, Y) == pytest.approx(2.0)


def test_high_degree_eval_is_stable():
    # monomial Horner would lose ~3^d of precision; the Bernstein-basis path
    # must agree with exact rational evaluation
    b = bernstein2(lambda x, y: math.exp(float(x)) * math.cos(float(y)), 24)
    xs = np.linspace(0.0, 1.0, 9)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = b.eval_float_grid(X, Y)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            exact = float(b.eval(Fraction(i, 8), Fraction(j, 8)))
            assert abs(V[i, j] - exact) < 1e-12


# ---------------------------------------------------------------------------
# the integer kernels against their Fraction-arithmetic originals

def _bernstein_to_monomial(d: int) -> list[list[int]]:
    """T[k][m] with b_{k,d}(x) = sum_m T[k][m] x^m (exact integers)."""
    T = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        for m in range(k, d + 1):
            T[k][m] = (-1) ** (m - k) * math.comb(d, m) * math.comb(m, k)
    return T


def _bernstein2_fraction(g, d):
    G = [[to_fraction(g(Fraction(i, d), Fraction(j, d))) for j in range(d + 1)]
         for i in range(d + 1)]
    T = _bernstein_to_monomial(d)
    A = [[sum(T[k][m] * G[k][loc] for k in range(d + 1)) for loc in range(d + 1)]
         for m in range(d + 1)]
    C = [[sum(A[m][loc] * T[loc][n] for loc in range(d + 1)) for n in range(d + 1)]
         for m in range(d + 1)]
    return Poly2.from_rows(C)


def _eval_fraction(p, x, y):
    x = to_fraction(x)
    y = to_fraction(y)
    total = 0
    for row in reversed(p.coeffs):
        inner = 0
        for c in reversed(row):
            inner = inner * y + c
        total = total * x + inner
    return total


# ints, Fractions with unrelated denominators and finite floats (subnormals
# included), each with negative and zero values
exact_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.just(0), st.just(Fraction(0)), st.just(-0.0),
)
points = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 48)),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def polys(draw, lo=0, hi=24):
    dx = draw(st.integers(lo, hi))
    dy = draw(st.integers(lo, hi))
    cells = draw(st.lists(exact_values, min_size=(dx + 1) * (dy + 1),
                          max_size=(dx + 1) * (dy + 1)))
    return Poly2.from_rows([cells[m * (dy + 1):(m + 1) * (dy + 1)] for m in range(dx + 1)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.data())
def test_bernstein2_equals_fraction_oracle(d, data):
    samples = data.draw(st.lists(exact_values, min_size=(d + 1) ** 2,
                                 max_size=(d + 1) ** 2))
    table = {(Fraction(i, d), Fraction(j, d)): samples[i * (d + 1) + j]
             for i in range(d + 1) for j in range(d + 1)}

    def g(x, y):
        return table[(x, y)]

    assert bernstein2(g, d).coeffs == _bernstein2_fraction(g, d).coeffs


@settings(max_examples=100, deadline=None)
@given(polys(), points, points)
def test_poly_eval_equals_fraction_oracle(p, x, y):
    got = p.eval(x, y)
    want = _eval_fraction(p, x, y)
    assert type(got) is Fraction and got == want
    assert float(got) == float(want)


COMPLEX = complex(0.5, 2)


def test_complex_poly2_arithmetic_is_refused_naming_the_coefficient():
    q = Poly2.from_rows([[0, 1], [2, 0]])
    xs = np.linspace(0.0, 1.0, 5)
    for c in (Poly2.constant(COMPLEX), Poly2.from_rows([[1, COMPLEX], [3, 0]])):
        calls = [lambda: c.eval(Fraction(1, 3), 0.25), lambda: c + q, lambda: q + c,
                 c.dx, c.dy, c.int_x, c.int_y, lambda: c.at_x(Fraction(1, 2)),
                 lambda: c.at_y(0), lambda: c.eval_float_grid(xs[:, None], xs[None, :])]
        for call in calls:
            with pytest.raises(ApproxError, match=r"complex coefficient \(0\.5\+2j\)"):
                call()
    p = Poly2.from_rows([[1, COMPLEX], [3, 0]])
    # still a value: read, compared, hashed and printed
    assert p.coeffs == ((1, COMPLEX), (3, 0)) and (p.deg_x, p.deg_y) == (1, 1)
    assert p == Poly2.from_rows([[1.0, COMPLEX, 0], [3, 0, 0], [0, 0, 0]]) and p != q
    assert hash(p) == hash(Poly2.from_rows([[Fraction(1), COMPLEX], [3]]))
    assert "(0.5+2j)" in repr(p)


def test_a_trimmed_complex_zero_leaves_a_real_polynomial():
    # the complex test runs on the trimmed rows, so 0j in a trailing column is no complex coefficient
    p = Poly2.from_rows([[1, 0j]])
    assert p == Poly2.from_rows([[1]]) and hash(p) == hash(Poly2.constant(1))
    assert p.dx() == Poly2.zero() and p + p == Poly2.constant(2) and p.eval(0.5, 3) == 1
    assert Poly2.from_rows([[1, 2], [0j, 0]]) == Poly2.from_rows([[1, 2]])
    # a complex zero that survives the trim keeps the polynomial complex
    q = Poly2.from_rows([[0j, 1]])
    assert q.coeffs == ((0j, 1),) and type(q.coeffs[0][0]) is complex
    with pytest.raises(ApproxError, match=r"complex coefficient 0j"):
        q.dx()


def _complex_oracle(x, y):
    """Complex values of two scales at most nodes, exact reals on a third of them."""
    if (x.numerator + y.numerator) % 3 == 0:
        return x * x - y / 7
    return complex(math.sin(3 * float(x)), math.exp(float(y)) * (1e-9 if x < y else -1.0))


@pytest.mark.parametrize("g", [_complex_oracle, lambda x, y: 1 + COMPLEX * y + 3 * x])
@pytest.mark.parametrize("d", [1, 3, 5, 12])
def test_complex_bernstein2_is_the_real_part_plus_i_times_the_imaginary_part(g, d):
    re, im = (bernstein2(lambda x, y, part=part: getattr(g(x, y), part), d)
              for part in ("real", "imag"))
    for q, part in ((re, "real"), (im, "imag")):
        assert q.coeffs == _bernstein2_fraction(lambda x, y: getattr(g(x, y), part), d).coeffs
    got = bernstein2(g, d)
    # every coefficient complex, each part the correctly rounded exact value
    want = [[complex(re.coeffs[m][n] if m <= re.deg_x and n <= re.deg_y else 0,
                     im.coeffs[m][n] if m <= im.deg_x and n <= im.deg_y else 0)
             for n in range(max(re.deg_y, im.deg_y) + 1)]
            for m in range(max(re.deg_x, im.deg_x) + 1)]
    assert got.coeffs == tuple(tuple(row) for row in want)
    assert all(type(v) is complex for row in got.coeffs for v in row)


def test_from_poly_refuses_complex_coefficients():
    with pytest.raises(ApproxError, match="complex"):
        C2Oracle.from_poly(Poly2.from_rows([[1, complex(0.5, 2)], [3, 0]]))


def _trimmed(rows):
    """Fraction rows without trailing zero rows and columns, as ``Poly2.coeffs`` holds them."""
    rows = [[Fraction(v) for v in row] for row in rows if row] or [[Fraction(0)]]
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    while len(rows[0]) > 1 and not any(row[-1] for row in rows):
        rows = [row[:-1] for row in rows]
    return tuple(tuple(row) for row in rows)


def _assert_fractions(p, rows):
    assert p.coeffs == _trimmed(rows)
    assert all(type(c) is Fraction for row in p.coeffs for c in row)


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), points)
def test_arithmetic_equals_fraction_oracle(p, q, t):
    c, w = p.coeffs, len(p.coeffs[0])
    t = to_fraction(t)
    _assert_fractions(p.dx(), [[v * m for v in row] for m, row in enumerate(c) if m > 0])
    _assert_fractions(p.dy(), [[v * n for n, v in enumerate(row) if n > 0] for row in c])
    _assert_fractions(p.int_x(), [[0] * w] + [[v / (m + 1) for v in row]
                                              for m, row in enumerate(c)])
    _assert_fractions(p.int_y(), [[0] + [v / (n + 1) for n, v in enumerate(row)] for row in c])
    _assert_fractions(p.at_y(t), [[sum(v * t ** n for n, v in enumerate(row))] for row in c])
    _assert_fractions(p.at_x(t), [[sum(row[n] * t ** m for m, row in enumerate(c))
                                   for n in range(w)]])
    total = [[Fraction(0)] * max(w, len(q.coeffs[0])) for _ in range(max(len(c), len(q.coeffs)))]
    for src in (c, q.coeffs):
        for m, row in enumerate(src):
            for n, v in enumerate(row):
                total[m][n] += v
    _assert_fractions(p + q, total)
    assert (p == q) == (c == q.coeffs)
    # the same polynomial from other rows: floats where exact, a zero row and column more
    again = Poly2.from_rows([[float(v) if float(v) == v else v for v in row] + [0] for row in c]
                            + [[0] * (w + 1)])
    assert again == p and hash(again) == hash(p)
    assert (Poly2.from_rows([[v / 2 for v in row] for row in c]) == p) == (p == Poly2.zero())
    assert p + Poly2.from_rows([[-v for v in row] for row in c]) == Poly2.zero()


def _high_degree_oracle(x, y):
    """Exact values on a third of the nodes, floats of two scales on the rest."""
    if (x.numerator + y.numerator) % 3 == 0:
        return x * x - y / 7
    return math.sin(3 * float(x)) * math.exp(float(y)) * (1e-9 if x < y else 1.0)


@pytest.mark.parametrize("d", [37, MAX_DEGREE])
def test_bernstein2_at_high_degree_equals_fraction_oracle(d):
    assert bernstein2(_high_degree_oracle, d).coeffs == \
        _bernstein2_fraction(_high_degree_oracle, d).coeffs


@settings(max_examples=30, deadline=None)
@given(polys(hi=4), st.integers(1, MAX_DEGREE))
def test_bernstein2_of_poly_equals_the_nodes_of_the_fraction_evaluation(p, d):
    # the tensor-product node values against Horner in Fractions; the conversion
    # itself is bernstein2's, checked against _bernstein2_fraction above
    assert bernstein2_of_poly(p, d) == bernstein2(lambda x, y: _eval_fraction(p, x, y), d)


@settings(max_examples=25, deadline=None)
@given(polys())
def test_monomial_to_bernstein_equals_the_float_of_the_fraction_expansion(p):
    dx, dy = p.deg_x, p.deg_y
    # b_k = sum_{m<=k} C(k,m)/C(d,m) c_m per variable, in Fractions
    ux = [[Fraction(math.comb(k, m), math.comb(dx, m)) for m in range(dx + 1)]
          for k in range(dx + 1)]
    uy = [[Fraction(math.comb(k, m), math.comb(dy, m)) for m in range(dy + 1)]
          for k in range(dy + 1)]
    mid = [[sum(ux[k][m] * p.coeffs[m][n] for m in range(dx + 1)) for n in range(dy + 1)]
           for k in range(dx + 1)]
    want = np.array([[float(sum(mid[k][n] * uy[j][n] for n in range(dy + 1)))
                      for j in range(dy + 1)] for k in range(dx + 1)])
    assert approx._monomial_to_bernstein(p).tobytes() == want.tobytes()


def _horner_float_dense(p, X, Y):
    """Float Horner on a dense grid, one coefficient at a time."""
    total = np.zeros_like(X, dtype=float)
    for row in reversed(p.coeffs):
        inner = np.zeros_like(Y, dtype=float)
        for c in reversed(row):
            inner = inner * Y + float(c)
        total = total * X + inner
    return total


@settings(max_examples=30, deadline=None)
@given(st.one_of(polys(hi=18), polys(lo=19)), st.integers(2, 41),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_eval_float_grid_is_the_same_on_an_open_and_a_dense_grid(p, n, ys):
    xs, ys = np.linspace(0.0, 1.0, n), np.array(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dense = p.eval_float_grid(X, Y)
    assert p.eval_float_grid(xs[:, None], ys[None, :]).tobytes() == dense.tobytes()
    if max(p.deg_x, p.deg_y) <= 18:
        assert dense.tobytes() == _horner_float_dense(p, X, Y).tobytes()


def test_eval_float_grid_refuses_a_complex_coefficient():
    xs = np.linspace(0.0, 1.0, 5)
    for rows in ([[1, complex(0.5, 2)], [3, 0]], [[0] * 20 + [complex(0.5, 2)]]):
        with pytest.raises(ApproxError, match=r"complex coefficient \(0\.5\+2j\)"):
            Poly2.from_rows(rows).eval_float_grid(xs[:, None], xs[None, :])


def _grid_lipschitz_ordered_pairs(values, X, Y, chunk):
    """Every ordered pair i != j: each chunk of rows against all columns;
    NaN as soon as a chunk's maximum is NaN."""
    v, x, y = values.ravel(), X.ravel(), Y.ravel()
    best = 0.0
    for s in range(0, len(v), chunk):
        rows = slice(s, s + chunk)
        dv = np.abs(v[rows, None] - v[None, :])
        dist = np.sqrt((x[rows, None] - x[None, :]) ** 2 + (y[rows, None] - y[None, :]) ** 2)
        np.fill_diagonal(dist[:, rows], np.inf)
        m = float((dv / np.where(dist == 0, np.inf, dist)).max())
        if math.isnan(m):
            return m
        best = max(best, m)
    return best


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_grid_lipschitz_equals_ordered_pair_scan(chunk, monkeypatch):
    monkeypatch.setattr(approx, "_LIPSCHITZ_CHUNK", chunk)
    xs = np.linspace(0.0, 1.0, 13)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    zero = np.zeros((3, 11))
    grids = [(np.zeros_like(X), X, Y), (zero, zero, zero)]   # all-zero values; one point
    rng = np.random.default_rng(5)
    for _ in range(12):
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        grids.append((rng.normal(size=shape),
                      rng.choice([0.0, 0.25, 0.5, 1.0], size=shape),   # repeated points
                      rng.choice([0.0, 0.1, 0.3], size=shape)))
    # a NaN or an infinity in the values or the points, first, inside and last
    for at in ((0, 0), (6, 3), (12, 12)):
        for bad in (np.nan, np.inf, -np.inf):
            for which in range(3):
                grid = [2 * X, X.copy(), Y.copy()]
                grid[which][at] = bad
                grids.append(tuple(grid))
    big = np.linspace(0.0, 1.0, 30)
    BX, BY = np.meshgrid(big, big, indexing="ij")
    V = 2 * BX
    V[20, 5] = np.nan
    W = 2 * BX
    W[0, 1] = W[29, 3] = np.inf
    grids += [(V, BX, BY), (W, BX, BY)]
    with np.errstate(invalid="ignore"):   # inf - inf
        for V, X, Y in grids:
            got = grid_lipschitz(V, X, Y)
            want = _grid_lipschitz_ordered_pairs(V, X, Y, chunk)
            assert got == want or (math.isnan(got) and math.isnan(want)), (V, X, Y)


@st.composite
def lipschitz_grids(draw):
    """(values, X, Y) on unit-square layouts scaled by 1, 1e-160, 1e-300 or 1e200."""
    layout = draw(st.sampled_from(["grid", "row", "column", "tiny", "repeated", "scattered"]))
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rows, cols = {"row": (1, cols), "column": (rows, 1),
                  "tiny": (min(rows, 2), min(cols, 3))}.get(layout, (rows, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "repeated":
        UX = rng.choice([0.0, 0.25, 0.5, 1.0], size=(rows, cols))
        UY = rng.choice([0.0, 0.1, 0.3], size=(rows, cols))
    elif layout == "scattered":
        UX, UY = rng.random((rows, cols)), rng.random((rows, cols))
    else:
        UX, UY = np.meshgrid(np.linspace(0, 1, rows), np.linspace(0, 1, cols), indexing="ij")
    kind = draw(st.sampled_from(["smooth", "linear", "step", "spike", "random"]))
    if kind == "smooth":
        V = np.sin(3 * UX) * np.cos(2 * UY)
    elif kind == "linear":      # every ratio on a line is the slope: nothing to prune
        V = 2 * UX - UY
    elif kind == "step":        # ties
        V = (UX > 0.5).astype(float)
    elif kind == "spike":
        V = np.zeros((rows, cols))
        V[rng.integers(rows), rng.integers(cols)] = 1.0
    else:
        V = rng.normal(size=(rows, cols))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-300, 1e200]))
    # near 1e300 the ratios overflow to inf
    return V * draw(st.sampled_from([1.0, 1e300])), UX * scale, UY * scale


@settings(max_examples=300, deadline=None)
@given(lipschitz_grids(), st.sampled_from([1, 7, 256]))
def test_grid_lipschitz_equals_the_ordered_pair_scan_on_any_layout(grid, chunk):
    V, X, Y = grid
    with mock.patch.object(approx, "_LIPSCHITZ_CHUNK", chunk), np.errstate(all="ignore"):
        got = grid_lipschitz(V, X, Y)
        want = _grid_lipschitz_ordered_pairs(V, X, Y, chunk)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_grid_lipschitz_settles_non_finite_points_up_front():
    xs = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = 2 * X
    for at, bad, want in (
            ([(0, 0), (4, 4)], [np.inf, np.inf], math.nan),      # inf - inf
            ([(0, 0), (4, 4)], [np.inf, -np.inf], 2.0),          # apart: ratio 0
            ([(2, 2)], [np.nan], math.nan)):
        PX = X.copy()
        for a, b in zip(at, bad):
            PX[a] = b
        got = grid_lipschitz(V, PX, Y)
        assert got == want or (math.isnan(got) and math.isnan(want)), (at, bad)
    # one point, whatever its coordinates, has no pair
    assert grid_lipschitz(np.ones((1, 1)), np.full((1, 1), np.nan), np.zeros((1, 1))) == 0.0
    # a far point is an infinite distance away: NaN only where its value difference overflows
    V = np.array([[1e308, 0.0, -1e308]])
    X, Y = np.array([[np.inf, 0.0, 1.0]]), np.zeros((1, 3))
    assert math.isnan(grid_lipschitz(V, X, Y))
    assert grid_lipschitz(np.array([[1e308, 0.0, 0.0]]), X, Y) == 0.0


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_grid_lipschitz_nan_value_gives_nan(chunk, monkeypatch):
    monkeypatch.setattr(approx, "_LIPSCHITZ_CHUNK", chunk)
    xs = np.linspace(0.0, 1.0, 30)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = 2 * X
    assert grid_lipschitz(V, X, Y) == pytest.approx(2.0)
    V[20, 5] = np.nan
    assert math.isnan(grid_lipschitz(V, X, Y))


def test_c2_to_poly_refuses_non_finite_oracle_samples():
    def zero(x, y):
        return 0.0

    for bad in (math.nan, math.inf):
        def f(x, y):
            return bad if (x, y) == (0.25, 0.5) else 2.0 * x

        oracle = C2Oracle(f=f, fx=lambda x, y: 2.0, fy=zero, fxx=zero, fxy=zero, fyy=zero)
        with pytest.raises(ApproxError, match=r"oracle f is not finite at \(0.25, 0.5\)"):
            c2_to_poly(oracle, 4)
    partial = C2Oracle(f=zero, fx=zero, fy=zero, fxx=zero, fxy=zero,
                       fyy=lambda x, y: math.nan if x == 0.025 else 0.0)   # off the Bernstein nodes
    with pytest.raises(ApproxError, match=r"oracle fyy is not finite at \(0.025, 0.0\)"):
        c2_to_poly(partial, 4)
    at_node = C2Oracle(f=zero, fx=zero, fy=zero, fxx=zero, fxy=zero,
                       fyy=lambda x, y: math.nan if x == 1 else 0.0)    # NaN at the node (1, 0)
    with pytest.raises(ApproxError, match=r"not finite at Bernstein node \(1, 0\)"):
        c2_to_poly(at_node, 4)
    # the refusal at a Bernstein node names the partial
    for what, bad in (("fxx", math.nan), ("fxy", math.inf), ("fyy", math.nan)):
        def partial_at_node(x, y, bad=bad):
            return bad if (x, y) == (1, 0) else 0.0

        oracle = C2Oracle(f=zero, fx=zero, fy=zero,
                          **{**dict(fxx=zero, fxy=zero, fyy=zero), what: partial_at_node})
        with pytest.raises(ApproxError) as info:
            c2_to_poly(oracle, 4)
        assert str(info.value) == f"oracle {what} is not finite at Bernstein node (1, 0): {bad}"
    # f, fx and fy are read exactly at (0, 0), a grid point too
    for what in ("f", "fx", "fy"):
        def at_origin(x, y):
            return math.nan if (x, y) == (0, 0) else 0.0

        oracle = C2Oracle(**{**dict(f=zero, fx=zero, fy=zero), what: at_origin},
                          fxx=zero, fxy=zero, fyy=zero)
        with pytest.raises(ApproxError, match=rf"oracle {what} is not finite at \(0.0, 0.0\)"):
            c2_to_poly(oracle, 4)


def test_c2_to_poly_refuses_a_grid_past_the_cap_before_any_oracle_call():
    def untouched(x, y):
        raise AssertionError("the oracle was called")

    oracle = C2Oracle(f=untouched, fx=untouched, fy=untouched,
                      fxx=untouched, fxy=untouched, fyy=untouched)
    assert MAX_GRID_N == 128
    with pytest.raises(ApproxError, match="at most 128 points per side, got 129"):
        c2_to_poly(oracle, 4, grid_n=MAX_GRID_N + 1)


def test_degree_past_the_cap_is_refused_before_any_oracle_call():
    def untouched(x, y):
        raise AssertionError("the oracle was called")

    oracle = C2Oracle(f=untouched, fx=untouched, fy=untouched,
                      fxx=untouched, fxy=untouched, fyy=untouched)
    assert MAX_DEGREE == 64
    with pytest.raises(ApproxError, match="degree must be <= 64, got 65"):
        bernstein2(untouched, MAX_DEGREE + 1)
    with pytest.raises(ApproxError, match="degree must be <= 64, got 65"):
        c2_to_poly(oracle, MAX_DEGREE + 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0)])
def test_bernstein2_refuses_non_finite_node_values(bad):
    def g(x, y):
        return bad if (x, y) == (1, Fraction(2, 3)) else 1.5

    with pytest.raises(ApproxError, match=r"not finite at Bernstein node \(1, 2/3\)"):
        bernstein2(g, 3)


def test_bernstein2_of_poly_converts_real_and_imaginary_parts_exactly():
    # B_d(x^2) = x^2 + x(1 - x)/d, and B_d reproduces affine functions
    c = complex(0.25, -1.5)
    p = Poly2.from_rows([[1, complex(0.5, 2)], [3, 0], [c, 0]])
    for d in (2, 4, 8):
        got = bernstein2_of_poly(p, d)
        assert got == Poly2.from_rows([[1, complex(0.5, 2)], [3 + c / d, 0], [c * (1 - 1 / d), 0]])
        assert all(isinstance(v, complex) for row in got.coeffs for v in row)
    # a real polynomial takes bernstein2 itself
    x2 = Poly2.from_rows([[0], [0], [1]])
    assert bernstein2_of_poly(x2, 4).coeffs == bernstein2(x2.eval, 4).coeffs


PARTIALS = ("f", "fx", "fy", "fxx", "fxy", "fyy")
# the built-in partials as closed forms, written as the oracles were before they
# became products of one-variable factors
_OLD_BUILTINS = {
    "sin_exp": dict(
        f=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
        fx=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
        fy=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
        fxx=lambda x, y: -math.sin(float(x)) * math.exp(float(y)),
        fxy=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
        fyy=lambda x, y: math.sin(float(x)) * math.exp(float(y))),
    "sin_cos": dict(
        f=lambda x, y: math.sin(float(x)) * math.cos(float(y)),
        fx=lambda x, y: math.cos(float(x)) * math.cos(float(y)),
        fy=lambda x, y: -math.sin(float(x)) * math.sin(float(y)),
        fxx=lambda x, y: -math.sin(float(x)) * math.cos(float(y)),
        fxy=lambda x, y: -math.cos(float(x)) * math.sin(float(y)),
        fyy=lambda x, y: -math.sin(float(x)) * math.cos(float(y))),
}


def _builtin_partials():
    out = [(name, what, getattr(oracle, what))
           for name, oracle in sorted(BUILTIN_ORACLES.items()) for what in PARTIALS]
    assert len(out) == 12 and sorted(BUILTIN_ORACLES) == sorted(_OLD_BUILTINS)
    return out


@pytest.mark.parametrize("grid_n", [2, 41, 128])
def test_builtin_grid_sampling_equals_the_per_point_loop(grid_n):
    pts = np.linspace(0.0, 1.0, grid_n).tolist()
    for name, what, fn in _builtin_partials():
        assert isinstance(fn, approx._Product)
        got = fn.grid(pts)
        loop = np.array([[float(fn(a, b)) for b in pts] for a in pts])
        old = np.array([[_OLD_BUILTINS[name][what](a, b) for b in pts] for a in pts])
        assert got.dtype == np.float64 and got.shape == (grid_n, grid_n)
        assert got.tobytes() == loop.tobytes() == old.tobytes(), (name, what)


def test_builtin_partials_equal_the_closed_forms_at_any_point():
    rng = random.Random(7)
    points = [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(5, 7)), (0.05, 0.95),
              (-2.5, 3.25), (1e-300, -0.0)]
    points += [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
    for name, what, fn in _builtin_partials():
        for x, y in points:
            assert repr(fn(x, y)) == repr(_OLD_BUILTINS[name][what](x, y)), (name, what, x, y)
