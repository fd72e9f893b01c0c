"""Bivariate polynomials, Bernstein approximants, and matching corrections.

The smooth-function pipeline approximates the three second partials by
Bernstein polynomials on the unit square, rebuilds candidate first partials
by antidifferentiation, and integrates once more to obtain a polynomial whose
uniform and Lipschitz errors are controlled by the measured second-derivative
error (constants 2, 3, 4 and sqrt(13), hence 4 + sqrt(13) for the full norm).

Bernstein-to-monomial conversion is performed in exact rational arithmetic
(float samples are lifted exactly) because the conversion matrix amplifies
rounding by roughly 3^degree in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .geom import Point2, to_fraction
from .variation import SampledFunction, is_exact_number
from .ctpp import CtppFunction, CtppSum, ScaledBump, solve_plane


class ApproxError(ValueError):
    pass


class InconsistentOracle(ApproxError):
    pass


class OverlappingSquares(ApproxError):
    pass


class PointNotInDomain(ApproxError):
    pass


def _lift(v):
    """Exact lift of int/float/Fraction to Fraction; complex passes through."""
    if is_exact_number(v):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)
    return v


@dataclass(frozen=True)
class Poly2:
    """Bivariate polynomial sum c[m][n] x^m y^n with exact coefficients.

    Rows index the x power. Trailing zero rows/columns are trimmed so equal
    polynomials compare equal.
    """

    coeffs: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> "Poly2":
        lifted = [[_lift(v) for v in row] for row in rows]
        width = max((len(r) for r in lifted), default=1)
        for r in lifted:
            r.extend([Fraction(0)] * (width - len(r)))
        # trim trailing zero rows/columns
        while len(lifted) > 1 and all(v == 0 for v in lifted[-1]):
            lifted.pop()
        while width > 1 and all(row[-1] == 0 for row in lifted):
            for row in lifted:
                row.pop()
            width -= 1
        return Poly2(tuple(tuple(row) for row in lifted))

    @staticmethod
    def zero() -> "Poly2":
        return Poly2.from_rows([[0]])

    @staticmethod
    def constant(v) -> "Poly2":
        return Poly2.from_rows([[v]])

    @property
    def deg_x(self) -> int:
        return len(self.coeffs) - 1

    @property
    def deg_y(self) -> int:
        return len(self.coeffs[0]) - 1

    def eval(self, x, y):
        x = _lift(x) if not isinstance(x, complex) else x
        y = _lift(y) if not isinstance(y, complex) else y
        total = 0
        for row in reversed(self.coeffs):
            inner = 0
            for c in reversed(row):
                inner = inner * y + c
            total = total * x + inner
        return total

    def eval_float_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Float evaluation on [0,1]^2 grids.

        Monomial Horner amplifies rounding by roughly 3^degree for
        Bernstein-shaped coefficients, so beyond degree 18 the polynomial is
        re-expanded exactly in the Bernstein basis (no cancellation) and
        evaluated by a stable basis recurrence.
        """
        if max(self.deg_x, self.deg_y) > 18:
            return _bernstein_basis_eval(self, X, Y)
        total = np.zeros_like(X, dtype=float)
        for row in reversed(self.coeffs):
            inner = np.zeros_like(Y, dtype=float)
            for c in reversed(row):
                inner = inner * Y + float(c)
            total = total * X + inner
        return total

    def __add__(self, other: "Poly2") -> "Poly2":
        rows = max(len(self.coeffs), len(other.coeffs))
        cols = max(len(self.coeffs[0]), len(other.coeffs[0]))
        out = [[Fraction(0)] * cols for _ in range(rows)]
        for src in (self, other):
            for m, row in enumerate(src.coeffs):
                for n, c in enumerate(row):
                    out[m][n] += c
        return Poly2.from_rows(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1)

    def scale(self, k) -> "Poly2":
        k = _lift(k)
        return Poly2.from_rows([[c * k for c in row] for row in self.coeffs])

    def __mul__(self, other: "Poly2") -> "Poly2":
        rows = len(self.coeffs) + len(other.coeffs) - 1
        cols = len(self.coeffs[0]) + len(other.coeffs[0]) - 1
        out = [[Fraction(0)] * cols for _ in range(rows)]
        for m1, row1 in enumerate(self.coeffs):
            for n1, c1 in enumerate(row1):
                if c1 == 0:
                    continue
                for m2, row2 in enumerate(other.coeffs):
                    for n2, c2 in enumerate(row2):
                        out[m1 + m2][n1 + n2] += c1 * c2
        return Poly2.from_rows(out)

    def dx(self) -> "Poly2":
        if self.deg_x == 0:
            return Poly2.zero()
        out = [[c * m for c in row] for m, row in enumerate(self.coeffs) if m > 0]
        return Poly2.from_rows(out)

    def dy(self) -> "Poly2":
        if self.deg_y == 0:
            return Poly2.zero()
        out = [[c * n for n, c in enumerate(row) if n > 0] for row in self.coeffs]
        return Poly2.from_rows(out)

    def int_x(self) -> "Poly2":
        """Antiderivative from 0 in x: integral_0^x p(t, y) dt."""
        out = [[Fraction(0)] * len(self.coeffs[0])]
        for m, row in enumerate(self.coeffs):
            out.append([c / (m + 1) for c in row])
        return Poly2.from_rows(out)

    def int_y(self) -> "Poly2":
        """Antiderivative from 0 in y: integral_0^y p(x, s) ds."""
        out = []
        for row in self.coeffs:
            out.append([Fraction(0)] + [c / (n + 1) for n, c in enumerate(row)])
        return Poly2.from_rows(out)

    def at_y(self, y0) -> "Poly2":
        """Restriction y = y0, returned as a polynomial in x alone."""
        y0 = _lift(y0)
        return Poly2.from_rows([[sum(c * y0 ** n for n, c in enumerate(row))]
                                for row in self.coeffs])

    def at_x(self, x0) -> "Poly2":
        """Restriction x = x0, returned as a polynomial in y alone."""
        x0 = _lift(x0)
        cols = len(self.coeffs[0])
        out = [Fraction(0)] * cols
        for m, row in enumerate(self.coeffs):
            w = x0 ** m
            for n, c in enumerate(row):
                out[n] += c * w
        return Poly2.from_rows([out])

    def restrict_line(self, p0: Point2, direction: Point2) -> tuple[Fraction, ...]:
        """1-variable coefficients of t |-> p(p0 + t * direction)."""
        one = (Fraction(1),)
        tx = (to_fraction(p0.x), to_fraction(direction.x))
        ty = (to_fraction(p0.y), to_fraction(direction.y))

        def pmul(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return tuple(out)

        x_pows = [one]
        for _ in range(self.deg_x):
            x_pows.append(pmul(x_pows[-1], tx))
        y_pows = [one]
        for _ in range(self.deg_y):
            y_pows.append(pmul(y_pows[-1], ty))
        acc = [Fraction(0)]
        for m, row in enumerate(self.coeffs):
            for n, c in enumerate(row):
                if c == 0:
                    continue
                term = pmul(x_pows[m], y_pows[n])
                if len(term) > len(acc):
                    acc.extend([Fraction(0)] * (len(term) - len(acc)))
                for i, v in enumerate(term):
                    acc[i] += c * v
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        return tuple(acc)


def _monomial_to_bernstein(poly: Poly2) -> np.ndarray:
    """Exact re-expansion in the tensor Bernstein basis of its own degree."""
    dx, dy = poly.deg_x, poly.deg_y
    # b_k = sum_{m<=k} C(k,m)/C(d,m) c_m per variable (exact rationals)
    ux = [[Fraction(comb(k, m), comb(dx, m)) if m <= k else Fraction(0)
           for m in range(dx + 1)] for k in range(dx + 1)]
    uy = [[Fraction(comb(k, m), comb(dy, m)) if m <= k else Fraction(0)
           for m in range(dy + 1)] for k in range(dy + 1)]
    mid = [[sum(ux[k][m] * poly.coeffs[m][n] for m in range(dx + 1))
            for n in range(dy + 1)] for k in range(dx + 1)]
    out = [[float(sum(mid[k][n] * uy[loc][n] for n in range(dy + 1)))
            for loc in range(dy + 1)] for k in range(dx + 1)]
    return np.array(out)


def _bernstein_basis_matrix(d: int, t: np.ndarray) -> np.ndarray:
    """Rows B_k(t) for k = 0..d via the stable ratio recurrence."""
    t = np.asarray(t, dtype=float)
    out = np.empty((d + 1,) + t.shape)
    out[0] = (1.0 - t) ** d
    safe = np.where(t < 1.0, 1.0 - t, 1.0)
    ratio = np.where(t < 1.0, t / safe, 0.0)
    for k in range(d):
        out[k + 1] = out[k] * ratio * ((d - k) / (k + 1))
    at_one = t >= 1.0
    if at_one.any():
        out[:, at_one] = 0.0
        out[d, at_one] = 1.0
    return out


def _bernstein_basis_eval(poly: Poly2, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    B = _monomial_to_bernstein(poly)
    shape = X.shape
    bx = _bernstein_basis_matrix(poly.deg_x, X.ravel())   # (dx+1, N)
    by = _bernstein_basis_matrix(poly.deg_y, Y.ravel())   # (dy+1, N)
    vals = np.einsum("kn,kl,ln->n", bx, B, by)
    return vals.reshape(shape)


def _bernstein_to_monomial(d: int) -> list[list[int]]:
    """T[k][m] with b_{k,d}(x) = sum_m T[k][m] x^m (exact integers)."""
    T = [[0] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        for m in range(k, d + 1):
            T[k][m] = (-1) ** (m - k) * comb(d, m) * comb(m, k)
    return T


def bernstein2(g, degree: int) -> Poly2:
    """Tensor Bernstein approximant of g on the unit square, monomial form.

    Reproduces constants and affine functions exactly at every degree; for
    univariate-convex data the approximant decreases pointwise as the degree
    grows. ``g`` is called at the rational nodes (i/d, j/d).
    """
    if degree < 1:
        raise ApproxError("degree must be >= 1")
    d = degree
    G = [[_lift(g(Fraction(i, d), Fraction(j, d))) for j in range(d + 1)]
         for i in range(d + 1)]
    T = _bernstein_to_monomial(d)
    # two-pass conversion: A[m][l] = sum_k T[k][m] G[k][l]; C[m][n] = sum_l A[m][l] T[l][n]
    A = [[sum(T[k][m] * G[k][loc] for k in range(d + 1)) for loc in range(d + 1)]
         for m in range(d + 1)]
    C = [[sum(A[m][loc] * T[loc][n] for loc in range(d + 1)) for n in range(d + 1)]
         for m in range(d + 1)]
    return Poly2.from_rows(C)


# ---------------------------------------------------------------------------
# the second-derivative pipeline

@dataclass(frozen=True)
class C2Oracle:
    """Callables (x, y) -> value for f and its partials on the unit square."""

    f: object
    fx: object
    fy: object
    fxx: object
    fxy: object
    fyy: object
    name: str = "oracle"

    @staticmethod
    def from_poly(p: Poly2, name: str = "poly") -> "C2Oracle":
        px, py = p.dx(), p.dy()
        return C2Oracle(f=p.eval, fx=px.eval, fy=py.eval,
                        fxx=px.dx().eval, fxy=px.dy().eval, fyy=py.dy().eval,
                        name=name)

    def spot_check(self, tol: float = 1e-4) -> None:
        h = 1e-5
        for i in range(9):
            for j in range(9):
                x = 0.05 + 0.9 * i / 8
                y = 0.05 + 0.9 * j / 8
                dfx = (float(self.f(x + h, y)) - float(self.f(x - h, y))) / (2 * h)
                dfy = (float(self.f(x, y + h)) - float(self.f(x, y - h))) / (2 * h)
                if abs(dfx - float(self.fx(x, y))) > tol or \
                   abs(dfy - float(self.fy(x, y))) > tol:
                    raise InconsistentOracle(
                        f"finite differences disagree with partials at ({x}, {y})")


# Closed-form smooth test functions with their partials, by name.
BUILTIN_ORACLES = {
    "sin_exp": C2Oracle(
        f=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
        fx=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
        fy=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
        fxx=lambda x, y: -math.sin(float(x)) * math.exp(float(y)),
        fxy=lambda x, y: math.cos(float(x)) * math.exp(float(y)),
        fyy=lambda x, y: math.sin(float(x)) * math.exp(float(y)),
        name="sin_exp"),
    "sin_cos": C2Oracle(
        f=lambda x, y: math.sin(float(x)) * math.cos(float(y)),
        fx=lambda x, y: math.cos(float(x)) * math.cos(float(y)),
        fy=lambda x, y: -math.sin(float(x)) * math.sin(float(y)),
        fxx=lambda x, y: -math.sin(float(x)) * math.cos(float(y)),
        fxy=lambda x, y: -math.cos(float(x)) * math.sin(float(y)),
        fyy=lambda x, y: -math.sin(float(x)) * math.cos(float(y)),
        name="sin_cos"),
}


@dataclass(frozen=True)
class C2Report:
    eps_meas: float
    sup_err: float
    lip_err: float
    hx_err: float
    dpx_err: float
    dpy_err: float
    tol: float
    checks: dict = field(compare=False)

    @property
    def lip_norm_err(self) -> float:
        return self.sup_err + self.lip_err

    @property
    def bound(self) -> float:
        return (4 + math.sqrt(13)) * self.eps_meas + self.tol

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def grid_lipschitz(values: np.ndarray, X: np.ndarray, Y: np.ndarray,
                   chunk: int = 256) -> float:
    """Max |dv| / distance over all grid point pairs (flattened, chunked)."""
    v = values.ravel()
    x = X.ravel()
    y = Y.ravel()
    n = len(v)
    best = 0.0
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        dv = np.abs(v[s:e, None] - v[None, :])
        dx = x[s:e, None] - x[None, :]
        dy = y[s:e, None] - y[None, :]
        dist = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(dist[:, s:e], np.inf)
        ratio = dv / np.where(dist == 0, np.inf, dist)
        best = max(best, float(ratio.max()))
    return best


def c2_to_poly(oracle: C2Oracle, degree: int, grid_n: int = 41,
               skip_spot_check: bool = False) -> tuple[Poly2, C2Report]:
    """Polynomial with certified-by-measurement uniform/Lipschitz error.

    Builds Bernstein approximants of the three second partials, candidate
    first partials by antidifferentiation, and the final polynomial; measures
    all errors on a grid and checks the 2/3/4/sqrt(13) error chain against
    the measured second-derivative error.
    """
    if not skip_spot_check:
        oracle.spot_check()
    g_xx = bernstein2(oracle.fxx, degree)
    g_xy = bernstein2(oracle.fxy, degree)
    g_yy = bernstein2(oracle.fyy, degree)

    fx00 = _lift(oracle.fx(Fraction(0), Fraction(0)))
    fy00 = _lift(oracle.fy(Fraction(0), Fraction(0)))
    f00 = _lift(oracle.f(Fraction(0), Fraction(0)))

    h_x = Poly2.constant(fx00) + g_xx.at_y(0).int_x() + g_xy.int_y()
    h_y = Poly2.constant(fy00) + g_xy.int_x() + g_yy.at_x(0).int_y()
    assert h_y.dx() == g_xy
    p = Poly2.constant(f00) + h_x.at_y(0).int_x() + h_y.int_y()

    xs = np.linspace(0.0, 1.0, grid_n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    def sample(fn):
        return np.array([[float(fn(float(a), float(b))) for b in xs] for a in xs])

    F = sample(oracle.f)
    FX = sample(oracle.fx)
    FY = sample(oracle.fy)
    eps = max(
        float(np.max(np.abs(sample(oracle.fxx) - g_xx.eval_float_grid(X, Y)))),
        float(np.max(np.abs(sample(oracle.fxy) - g_xy.eval_float_grid(X, Y)))),
        float(np.max(np.abs(sample(oracle.fyy) - g_yy.eval_float_grid(X, Y)))),
    )
    P_vals = p.eval_float_grid(X, Y)
    sup_err = float(np.max(np.abs(F - P_vals)))
    hx_err = float(np.max(np.abs(FX - h_x.eval_float_grid(X, Y))))
    dpx_err = float(np.max(np.abs(FX - p.dx().eval_float_grid(X, Y))))
    dpy_err = float(np.max(np.abs(FY - p.dy().eval_float_grid(X, Y))))
    lip_err = grid_lipschitz(F - P_vals, X, Y)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(F))))

    checks = {
        "hx_within_2eps": hx_err < 2 * eps + tol,
        "sup_within_4eps": sup_err < 4 * eps + tol,
        "dpx_within_3eps": dpx_err <= 3 * eps + tol,
        "dpy_within_2eps": dpy_err <= 2 * eps + tol,
        "lip_within_sqrt13": lip_err <= math.sqrt(13) * eps + tol,
        "lipnorm_within_chain": sup_err + lip_err < (4 + math.sqrt(13)) * eps + tol,
    }
    report = C2Report(eps_meas=eps, sup_err=sup_err, lip_err=lip_err,
                      hx_err=hx_err, dpx_err=dpx_err, dpy_err=dpy_err,
                      tol=tol, checks=checks)
    return p, report


def c2_to_poly_auto(oracle: C2Oracle, eps_target: float = 1e-3,
                    max_degree: int = 64, grid_n: int = 41) -> tuple[Poly2, C2Report]:
    """Default degree policy: double from 4 until the measured
    second-derivative error reaches the target or the degree cap."""
    oracle.spot_check()
    degree = 4
    while True:
        p, rep = c2_to_poly(oracle, degree, grid_n=grid_n, skip_spot_check=True)
        if rep.eps_meas <= eps_target or degree >= max_degree:
            return p, rep
        degree = min(2 * degree, max_degree)


# ---------------------------------------------------------------------------
# matching corrections

@dataclass(frozen=True)
class MatchTriangleReport:
    sup_h: object
    spread: object
    bv_bound: object      # sup + spread
    bound_3sup: object    # the 3 sup |h| chain


def match_triangle(v0: Point2, v1: Point2, v2: Point2, f_vals, g0_vals):
    """Planar correction matching f - g0 at the three vertices, with the
    variation-norm bookkeeping (sup + spread <= 3 sup)."""
    deltas = [a - b for a, b in zip(f_vals, g0_vals)]
    h = solve_plane(v0, v1, v2, *deltas)
    exact = all(is_exact_number(d) for d in deltas)
    if exact:
        sup_h = max(abs(d) for d in deltas)
        spread = max(deltas) - min(deltas)
    else:
        cd = [complex(d) for d in deltas]
        sup_h = max(abs(d) for d in cd)
        spread = max(abs(a - b) for a in cd for b in cd)
    return h, MatchTriangleReport(sup_h=sup_h, spread=spread,
                                  bv_bound=sup_h + spread, bound_3sup=3 * sup_h)


@dataclass(frozen=True)
class MatchReport:
    n_points: int
    coefs: tuple
    max_coef: object
    sup_h_bound: object
    var_h_bound: object
    eps: object
    target: object
    bound_ok: bool
    interp_max_err: float


def match_points(f: SampledFunction, g0: CtppFunction, pts, delta) -> tuple[CtppSum, MatchReport]:
    """g0 plus scaled pyramid bumps, interpolating f exactly at the given points.

    Requires the side-2*delta squares centred at the points to have disjoint
    interiors; bump supports are then disjoint, so sup h = max |coef| and the
    variation bookkeeping gives the (4n+1)/(4n+2) bound.
    """
    delta = to_fraction(delta)
    if delta <= 0:
        raise ApproxError("delta must be positive")
    pts = tuple(pts)
    for p in pts:
        if p not in f:
            raise PointNotInDomain(f"{p} not in the sample")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = max(abs(pts[i].x - pts[j].x), abs(pts[i].y - pts[j].y))
            if gap < 2 * delta:
                raise OverlappingSquares(f"points {pts[i]} and {pts[j]} too close")

    coefs = tuple(f.value(p) - g0.eval(p) for p in pts)
    g = CtppSum((g0,) + tuple(ScaledBump(p, delta, c) for p, c in zip(pts, coefs)))

    if not pts:
        zero = Fraction(0)
        report = MatchReport(0, (), zero, zero, zero, zero, zero, True, 0.0)
        return g, report

    exact = all(is_exact_number(c) for c in coefs)
    if exact:
        mags = [abs(c) for c in coefs]
    else:
        mags = [abs(complex(c)) for c in coefs]
    max_coef = max(mags)
    sup_h = max_coef
    var_h = 4 * sum(mags)
    n = len(pts)
    eps = (4 * n + 2) * max_coef
    target = Fraction(4 * n + 1, 4 * n + 2) * eps if exact else (4 * n + 1) / (4 * n + 2) * eps
    interp_err = max(abs(complex(g.eval(p)) - complex(f.value(p))) for p in pts)
    report = MatchReport(n_points=n, coefs=coefs, max_coef=max_coef,
                         sup_h_bound=sup_h, var_h_bound=var_h, eps=eps,
                         target=target, bound_ok=sup_h + var_h <= target,
                         interp_max_err=float(interp_err))
    return g, report
