"""Bivariate polynomials, Bernstein approximants, and matching corrections.

The smooth-function pipeline approximates the three second partials by
Bernstein polynomials on the unit square, rebuilds candidate first partials
by antidifferentiation, and integrates once more to obtain a polynomial whose
uniform and Lipschitz errors are controlled by the measured second-derivative
error (constants 2, 3, 4 and sqrt(13), hence 4 + sqrt(13) for the full norm).

Bernstein-to-monomial conversion is exact because the conversion matrix
amplifies rounding by roughly 3^degree in floating point. A real ``Poly2``
stores its coefficients as integer rows over one denominator (``geom``'s
integer lift), trimmed and reduced to lowest terms, so equal polynomials
have equal rows. Its arithmetic (``eval``, ``dx``, ``dy``, ``int_x``,
``int_y``, ``at_x``, ``at_y``, ``+``, ``eval_float_grid``) runs on those rows
in plain ``int`` at exact real points, and the ``Fraction`` coefficients are
built only when ``coeffs`` is read. ``bernstein2`` lifts its node values
exactly (a float to its dyadic rational) over one denominator and converts
them by forward differences: the coefficient of x^m y^n is C(d, m) C(d, n)
times the (m, n)-th forward difference of the node table at (0, 0) (Lorentz,
*Bernstein Polynomials*, 1953). ``Poly2.eval`` evaluates homogeneously: at
x = a/b, y = c/e it sums N_mn a^m b^(M-m) c^n e^(N-n) over the integer
coefficients and divides by D b^M e^N. Every exact result equals the
``Fraction`` computation bit for bit, and ``eval_float_grid`` makes each
float coefficient with one correctly rounded ``int / int`` division, the
value ``float(Fraction)`` gives.

Complex data has no exact lift and enters only by linearity, at the two
Bernstein entry points: ``bernstein2`` (complex node values) and
``bernstein2_of_poly`` (complex coefficients) convert the real and the
imaginary parts exactly and return re + i im, each part's coefficient
correctly rounded. A complex ``Poly2`` is a value (built, read, compared,
hashed, written); its arithmetic is refused with ApproxError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb

import numpy as np

from .geom import common_denominator, to_fraction
from .variation import SampledFunction, _on_floats, all_exact, magnitudes
from .ctpp import CtppFunction, CtppSum, ScaledBump


class ApproxError(ValueError):
    pass


class InconsistentOracle(ApproxError):
    pass


class OverlappingSquares(ApproxError):
    pass


class PointNotInDomain(ApproxError):
    pass


def _ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of ``to_fraction(v)``."""
    if isinstance(v, (int, float, Fraction)):
        return v.as_integer_ratio()
    return to_fraction(v).as_integer_ratio()


def _trimmed(rows: list[list]) -> list[list]:
    """Rectangular ``rows`` without trailing zero rows and columns."""
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    width = len(rows[0])
    while width > 1 and not any(row[width - 1] for row in rows):
        width -= 1
    return [row[:width] for row in rows]


class Poly2:
    """Bivariate polynomial sum c[m][n] x^m y^n with exact coefficients.

    Rows index the x power. Trailing zero rows/columns are trimmed so equal
    polynomials compare equal. A real polynomial is held as ``_int_rows`` =
    (integer rows, den > 0) in lowest terms and ``coeffs`` is built from it
    on first use; every arithmetic method reads those rows through
    ``_exact``. A polynomial with a complex coefficient holds ``coeffs`` only
    and ``_int_rows`` is None: it is a value, and ``_exact`` refuses its
    arithmetic with ApproxError. Instances are immutable.
    """

    __slots__ = ("_int_rows", "_coeffs")

    def __init__(self, int_rows, coeffs):
        self._int_rows: tuple[tuple[tuple[int, ...], ...], int] | None = int_rows
        self._coeffs: tuple[tuple, ...] | None = coeffs

    @staticmethod
    def from_rows(rows) -> "Poly2":
        width = max((len(r) for r in rows), default=0)
        if width == 0:
            raise ApproxError("Poly2 needs at least one coefficient")
        cells = _trimmed([[v if isinstance(v, complex) else to_fraction(v) for v in row]
                          + [Fraction(0)] * (width - len(row)) for row in rows])
        # classify after the trim: a complex zero trimmed away leaves a real polynomial
        flat = [v for row in cells for v in row]
        if any(isinstance(v, complex) for v in flat):
            return Poly2(None, tuple(tuple(row) for row in cells))
        width = len(cells[0])
        nums, den = common_denominator(flat)
        return Poly2._of([nums[i:i + width] for i in range(0, len(nums), width)], den)

    @staticmethod
    def _of(rows: list[list[int]], den: int) -> "Poly2":
        """The real polynomial ``rows / den`` (rectangular rows, den > 0),
        trimmed and reduced to lowest terms."""
        rows = _trimmed(rows)
        g = math.gcd(den, *chain.from_iterable(rows))
        return Poly2((tuple(tuple(c // g for c in row) for row in rows), den // g), None)

    @staticmethod
    def zero() -> "Poly2":
        return Poly2.from_rows([[0]])

    @staticmethod
    def constant(v) -> "Poly2":
        return Poly2.from_rows([[v]])

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._coeffs is None:
            rows, den = self._int_rows
            self._coeffs = tuple(tuple(Fraction(c, den) for c in row) for row in rows)
        return self._coeffs

    @property
    def deg_x(self) -> int:
        return len(self._cells) - 1

    @property
    def deg_y(self) -> int:
        return len(self._cells[0]) - 1

    @property
    def _cells(self) -> tuple[tuple, ...]:
        """The integer rows of a real polynomial, the coefficients of a complex one."""
        return self._coeffs if self._int_rows is None else self._int_rows[0]

    @property
    def _exact(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(integer rows, den), the one input of the arithmetic; a complex
        polynomial has none and is refused with ApproxError."""
        if self._int_rows is None:
            c = next(c for row in self._coeffs for c in row if isinstance(c, complex))
            raise ApproxError("Poly2 arithmetic needs real coefficients, "
                              f"got the complex coefficient {c}")
        return self._int_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        if self._int_rows is not None and other._int_rows is not None:
            return self._int_rows == other._int_rows
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly2(coeffs={self.coeffs!r})"

    def eval(self, x, y) -> Fraction:
        rows, den = self._exact
        x = to_fraction(x)
        y = to_fraction(y)
        a, b = x.numerator, x.denominator
        c, e = y.numerator, y.denominator
        e_pows = [e ** k for k in range(len(rows[0]))]
        b_pows = [b ** k for k in range(len(rows))]
        # homogeneous Horner: total = D b^M e^N p(x, y)
        total = 0
        for row, bw in zip(reversed(rows), b_pows):
            inner = 0
            for n, ew in zip(reversed(row), e_pows):
                inner = inner * c + n * ew
            total = total * a + inner * bw
        return Fraction(total, den * b_pows[-1] * e_pows[-1])

    def eval_float_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Float evaluation on [0,1]^2 grids, dense or open (``xs[:, None]``
        with ``ys[None, :]``); the result has the broadcast shape.

        Each coefficient is one ``int / int`` division of its integer row
        entry by the denominator, correctly rounded like ``float(Fraction)``.
        Horner runs in y on ``Y`` for all rows at once, then in x on the
        broadcast grid, so a point sees the same float operations on an open
        grid as on a dense one. Monomial Horner amplifies rounding by roughly
        3^degree for Bernstein-shaped coefficients, so beyond degree 18 the
        polynomial is re-expanded exactly in the Bernstein basis (no
        cancellation) and evaluated by a stable basis recurrence.
        """
        rows, den = self._exact
        if max(self.deg_x, self.deg_y) > 18:
            return _bernstein_basis_eval(self, *np.broadcast_arrays(X, Y))
        Y = np.asarray(Y)
        column = (len(rows),) + (1,) * Y.ndim
        inner = np.zeros((len(rows),) + Y.shape)
        for c in reversed(np.array([[n / den for n in row] for row in rows]).T):
            inner = inner * Y + c.reshape(column)
        total = np.zeros_like(X, dtype=float)
        for row in reversed(inner):
            total = total * X + row
        return total

    def __add__(self, other: "Poly2") -> "Poly2":
        (a, a_den), (b, b_den) = self._exact, other._exact
        den = math.lcm(a_den, b_den)
        out = [[0] * max(len(a[0]), len(b[0])) for _ in range(max(len(a), len(b)))]
        for src, src_den in ((a, a_den), (b, b_den)):
            scale = den // src_den
            for m, row in enumerate(src):
                out_row = out[m]
                for n, c in enumerate(row):
                    out_row[n] += c * scale
        return Poly2._of(out, den)

    def dx(self) -> "Poly2":
        rows, den = self._exact
        if len(rows) == 1:
            return Poly2.zero()
        return Poly2._of([[c * m for c in row] for m, row in enumerate(rows) if m > 0], den)

    def dy(self) -> "Poly2":
        rows, den = self._exact
        if len(rows[0]) == 1:
            return Poly2.zero()
        return Poly2._of([[c * n for n, c in enumerate(row) if n > 0] for row in rows], den)

    def int_x(self) -> "Poly2":
        """Antiderivative from 0 in x: integral_0^x p(t, y) dt."""
        rows, den = self._exact
        lcm = math.lcm(*range(1, len(rows) + 1))
        return Poly2._of([[0] * len(rows[0])] + [[c * (lcm // (m + 1)) for c in row]
                                                 for m, row in enumerate(rows)], den * lcm)

    def int_y(self) -> "Poly2":
        """Antiderivative from 0 in y: integral_0^y p(x, s) ds."""
        rows, den = self._exact
        lcm = math.lcm(*range(1, len(rows[0]) + 1))
        steps = [lcm // (n + 1) for n in range(len(rows[0]))]
        return Poly2._of([[0] + [c * s for c, s in zip(row, steps)] for row in rows], den * lcm)

    def at_y(self, y0) -> "Poly2":
        """Restriction y = y0, returned as a polynomial in x alone."""
        rows, den = self._exact
        y0 = to_fraction(y0)
        a, b = y0.numerator, y0.denominator
        b_pows = [b ** k for k in range(len(rows[0]))]
        out = []
        for row in rows:               # homogeneous Horner: b^N p(x, a/b) row by row
            inner = 0
            for c, bw in zip(reversed(row), b_pows):
                inner = inner * a + c * bw
            out.append([inner])
        return Poly2._of(out, den * b_pows[-1])

    def at_x(self, x0) -> "Poly2":
        """Restriction x = x0, returned as a polynomial in y alone."""
        rows, den = self._exact
        x0 = to_fraction(x0)
        a, b = x0.numerator, x0.denominator
        b_pows = [b ** k for k in range(len(rows))]
        out = [0] * len(rows[0])
        for row, bw in zip(reversed(rows), b_pows):
            out = [t * a + c * bw for t, c in zip(out, row)]
        return Poly2._of([out], den * b_pows[-1])


def _monomial_to_bernstein(poly: Poly2) -> np.ndarray:
    """Float coefficients of the real ``poly`` in the tensor Bernstein basis of
    its own degree, each the correctly rounded float of the exact rational.

    Per variable b_k = sum_{m<=k} C(k,m)/C(d,m) c_m, so d! b_k is the binomial
    transform sum_m C(k,m) a_m of a_m = m! (d-m)! c_m: the table whose forward
    differences at 0 are a, rebuilt by prefix sums (the inverse of
    ``_bernstein_of_nodes``' differencing). One ``int / int`` division by
    den dx! dy! per coefficient ends it.
    """
    rows, den = poly._int_rows
    dx, dy = poly.deg_x, poly.deg_y

    def weights(d):
        return np.array([math.factorial(m) * math.factorial(d - m) for m in range(d + 1)],
                        dtype=object)

    A = np.array(rows, dtype=object) * weights(dx)[:, None] * weights(dy)
    for k in range(dx, 0, -1):      # undoes forward-difference step k in x
        A[k - 1:] = np.cumsum(A[k - 1:], axis=0)
    for k in range(dy, 0, -1):
        A[:, k - 1:] = np.cumsum(A[:, k - 1:], axis=1)
    scale = den * math.factorial(dx) * math.factorial(dy)
    return np.array([[b / scale for b in row] for row in A.tolist()])


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


# The largest Bernstein degree. On a 2-core Xeon VM (CPython 3.11, numpy 2.4)
# c2_to_poly took 0.21-0.22 s at this degree on either builtin oracle, with a
# 5.5 MiB tracemalloc peak: about half in the seven Bernstein re-expansions of
# eval_float_grid, a quarter in bernstein2.
MAX_DEGREE = 64


def _refuse_large_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ApproxError(f"degree must be <= {MAX_DEGREE}, got {degree}")


def _check_degree(degree: int) -> None:
    """The Bernstein degree's refusals, before any node value is read."""
    if degree < 1:
        raise ApproxError("degree must be >= 1")
    _refuse_large_degree(degree)


def _bernstein_of_nodes(G, den: int, d: int) -> Poly2:
    """Monomial form of the tensor Bernstein polynomial of degree ``d`` whose
    node values at (i/d, j/d) are the integers G[i][j] over ``den``.

    C[m][n] = C(d, m) C(d, n) Dx^m Dy^n G[0][0], with Dx, Dy the forward
    differences, which equals sum_kl T[k][m] G[k][l] T[l][n] for the
    Bernstein-to-monomial matrix T (Farouki and Rajan, CAGD 5, 1988).
    """
    A = np.array(G, dtype=object)
    for k in range(1, d + 1):      # after step k, A[i] = Dx^k G[i - k] for i >= k
        A[k:] = A[k:] - A[k - 1:-1]
    for k in range(1, d + 1):
        A[:, k:] = A[:, k:] - A[:, k - 1:-1]
    binom = np.array([comb(d, m) for m in range(d + 1)], dtype=object)
    return Poly2._of((A * binom[:, None] * binom).tolist(), den)


def _complex_of(re: Poly2, im: Poly2) -> Poly2:
    """re + i im, every coefficient the complex of the two parts' correctly
    rounded floats: how complex data leaves the exact real conversion."""
    def coeff(q, m, n):
        return q.coeffs[m][n] if m <= q.deg_x and n <= q.deg_y else 0

    return Poly2.from_rows([[complex(coeff(re, m, n), coeff(im, m, n))
                             for n in range(max(re.deg_y, im.deg_y) + 1)]
                            for m in range(max(re.deg_x, im.deg_x) + 1)])


def bernstein2(g, degree: int, *, name: str = "oracle") -> Poly2:
    """Tensor Bernstein approximant of g on the unit square, monomial form.

    Reproduces constants and affine functions exactly at every degree; for
    univariate-convex data the approximant decreases pointwise as the degree
    grows. ``g`` is called at the rational nodes (i/d, j/d); a NaN or
    infinite value there is refused with ApproxError, whose message calls
    ``g`` by ``name``, and so is a degree above ``MAX_DEGREE``, before ``g``
    is called. Complex node values have no exact lift, but their real and
    imaginary parts do, and the Bernstein operator is linear: the result is
    then ``_complex_of`` the two parts' approximants.
    """
    _check_degree(degree)
    d = degree

    def node(x, y):
        v = g(x, y)
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ApproxError(f"{name} is not finite at Bernstein node ({x}, {y}): {v}")
        return v

    def convert(values) -> Poly2:
        ratios = [[_ratio(v) for v in row] for row in values]
        den = math.lcm(*(q for row in ratios for _, q in row))
        return _bernstein_of_nodes([[p * (den // q) for p, q in row] for row in ratios], den, d)

    ts = [Fraction(i, d) for i in range(d + 1)]
    G = [[node(x, y) for y in ts] for x in ts]
    if any(isinstance(v, complex) for row in G for v in row):
        return _complex_of(*(convert([[getattr(v, part) for v in row] for row in G])
                             for part in ("real", "imag")))
    return convert(G)


def bernstein2_of_poly(p: Poly2, degree: int) -> Poly2:
    """``bernstein2`` of the polynomial ``p``, exact for complex coefficients too.

    The node values of a real ``p`` come from one integer tensor product:
    p(i/d, j/d) = sum_mn N_mn i^m d^(M-m) j^n d^(N-n) / (D d^M d^N).
    A complex ``p`` gives ``_complex_of`` the approximants of its real and
    imaginary parts, as in ``bernstein2``.
    """
    if p._int_rows is None:
        return _complex_of(*(bernstein2_of_poly(Poly2.from_rows([[getattr(c, part) for c in row]
                                                                 for row in p.coeffs]), degree)
                             for part in ("real", "imag")))
    _check_degree(degree)
    rows, den = p._int_rows
    d, M, N = degree, p.deg_x, p.deg_y

    def powers(k):
        return np.array([[i ** m * d ** (k - m) for m in range(k + 1)] for i in range(d + 1)],
                        dtype=object)

    G = powers(M).dot(np.array(rows, dtype=object)).dot(powers(N).T)
    return _bernstein_of_nodes(G, den * d ** (M + N), d)


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

    @staticmethod
    def from_poly(p: Poly2) -> "C2Oracle":
        if p._int_rows is None:
            raise ApproxError("the C2 pipeline needs real coefficients, got a complex one")
        px, py = p.dx(), p.dy()
        return C2Oracle(f=p.eval, fx=px.eval, fy=py.eval,
                        fxx=px.dx().eval, fxy=px.dy().eval, fyy=py.dy().eval)

    def spot_check(self) -> None:
        h = 1e-5
        for i in range(9):
            for j in range(9):
                x = 0.05 + 0.9 * i / 8
                y = 0.05 + 0.9 * j / 8
                dfx = (float(self.f(x + h, y)) - float(self.f(x - h, y))) / (2 * h)
                dfy = (float(self.f(x, y + h)) - float(self.f(x, y - h))) / (2 * h)
                if abs(dfx - float(self.fx(x, y))) > 1e-4 or \
                   abs(dfy - float(self.fy(x, y))) > 1e-4:
                    raise InconsistentOracle(
                        f"finite differences disagree with partials at ({x}, {y})")


@dataclass(frozen=True)
class _Product:
    """(x, y) -> gx(x) * gy(y) for two one-variable float functions.

    ``grid`` gives the values on the grid ``pts`` x ``pts`` from one call of
    each factor per grid line: a float64 product is the IEEE product of two
    Python floats, so every entry equals the pointwise call.
    """

    gx: object
    gy: object

    def __call__(self, x, y):
        return self.gx(float(x)) * self.gy(float(y))

    def grid(self, pts) -> np.ndarray:
        return np.multiply.outer([self.gx(a) for a in pts], [self.gy(b) for b in pts])


def _neg(g):
    return lambda t: -g(t)


# Closed-form smooth test functions with their partials, by name; each is a
# product of one-variable math calls, a minus sign going with the x factor.
BUILTIN_ORACLES = {
    "sin_exp": C2Oracle(
        f=_Product(math.sin, math.exp),
        fx=_Product(math.cos, math.exp),
        fy=_Product(math.sin, math.exp),
        fxx=_Product(_neg(math.sin), math.exp),
        fxy=_Product(math.cos, math.exp),
        fyy=_Product(math.sin, math.exp)),
    "sin_cos": C2Oracle(
        f=_Product(math.sin, math.cos),
        fx=_Product(math.cos, math.cos),
        fy=_Product(_neg(math.sin), math.sin),
        fxx=_Product(_neg(math.sin), math.cos),
        fxy=_Product(_neg(math.cos), math.sin),
        fyy=_Product(_neg(math.sin), math.cos)),
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


_LIPSCHITZ_CHUNK = 256          # a grid_lipschitz batch's three scratch arrays hold
                                # at most this many times n floats together
_LIPSCHITZ_CELLS = 256          # most cells of the grid_lipschitz partition
_LIPSCHITZ_CELL_POINTS = 8      # points per cell below that cap


def _lipschitz_cells(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the points in cell order and each cell's first position.

    A cell holds m points, at least ``_LIPSCHITZ_CELL_POINTS`` and enough for
    ceil(n / m) <= ``_LIPSCHITZ_CELLS`` cells. Strips are runs of about
    sqrt(n / m) cells' worth of points in the (x, y) order, and each strip is
    cut into cells in its own (y, x) order, so only the last cell is short.
    """
    n = len(x)
    m = max(_LIPSCHITZ_CELL_POINTS, -(-n // _LIPSCHITZ_CELLS))
    strip_len = m * max(1, math.isqrt(-(-n // m)))
    rank = np.arange(n)
    strip = np.empty(n, dtype=np.intp)
    strip[np.lexsort((y, x))] = rank // strip_len
    return np.lexsort((x, y, strip)), np.flatnonzero(rank % strip_len % m == 0)


def grid_lipschitz(values: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Max |v_i - v_j| / sqrt(dx*dx + dy*dy) over all pairs of grid points.

    A zero distance counts as inf, so a repeated point adds ratio 0. The pairs
    are scanned by branch and bound over cells of points (``_lipschitz_cells``).
    For cells A <= B with gaps gx = max(0, x0B - x1A, x0A - x1B) (gy the same
    way, over each cell's actual min/max), the bound is
    max(v1A - v0B, v1B - v0A) / sqrt(gx*gx + gy*gy), and inf at a zero gap.
    Each of its steps is the same correctly rounded operation as the pair's own,
    on a numerator no smaller and distances no larger, and round-to-nearest is
    monotone (subnormals and overflow included). So the bound is at least every
    computed ratio of the cell pair, with no margin. The cell pairs are scanned
    in batches in decreasing bound until the next bound is at most the best
    ratio; the result is the full scan's float.

    Non-finite input is settled first. The result is NaN when a value is not
    finite (its own difference is NaN), when there are two points or more and a
    coordinate is NaN, and when two points share an infinite x or y (inf - inf).
    Otherwise a point with an infinite coordinate is an infinite distance from
    every other, so its ratios are 0, or NaN where a value difference overflows;
    after that check it is dropped.
    """
    v, x, y = values.ravel(), X.ravel(), Y.ravel()
    if not np.isfinite(v).all():
        return math.nan
    if len(v) < 2:
        return 0.0
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        far = np.isinf(x) | np.isinf(y)
        if far.any():
            if any(np.count_nonzero(c == end) > 1 for c in (x, y) for end in (np.inf, -np.inf)):
                return math.nan
            vf = v[far]
            if np.isinf(vf - v.min()).any() or np.isinf(v.max() - vf).any():
                return math.nan
            v, x, y = v[~far], x[~far], y[~far]
            if len(v) < 2:
                return 0.0
        return _lipschitz_branch_and_bound(v, x, y)


def _lipschitz_branch_and_bound(v: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """``grid_lipschitz`` on finite values and coordinates, at least two points."""
    n = len(v)
    order, starts = _lipschitz_cells(x, y)
    count = np.diff(starts, append=n)
    m = int(count[0])
    # each cell's points as one row of m; the short last cell repeats its first
    # point, and a pair of equal points adds ratio 0
    slot = np.arange(m)
    rows = np.where(slot < count[:, None], starts[:, None] + slot, starts[:, None])
    cells = []
    for c in (x, y, v):
        c = c[order]
        cells.append((np.minimum.reduceat(c, starts), np.maximum.reduceat(c, starts), c[rows]))
    (x0, x1, xm), (y0, y1, ym), (v0, v1, vm) = cells
    a, b = np.triu_indices(len(starts))
    gx = np.maximum(np.maximum(x0[b] - x1[a], x0[a] - x1[b]), 0.0)
    gy = np.maximum(np.maximum(y0[b] - y1[a], y0[a] - y1[b]), 0.0)
    gap = np.sqrt(gx * gx + gy * gy)
    num = np.maximum(v1[a] - v0[b], v1[b] - v0[a])
    bound = num / gap

    per = max(1, _LIPSCHITZ_CHUNK * n // (4 * m * m))     # cell pairs per batch
    bufs = [np.empty(min(per, len(a)) * m * m) for _ in range(3)]

    def batch_max(pairs: np.ndarray) -> float:
        ratio, dist, dy = (buf[:len(pairs) * m * m].reshape(-1, m, m) for buf in bufs)
        ca, cb = a[pairs], b[pairs]
        np.subtract(vm[ca][:, :, None], vm[cb][:, None, :], out=ratio)
        np.abs(ratio, out=ratio)
        np.subtract(xm[ca][:, :, None], xm[cb][:, None, :], out=dist)
        np.multiply(dist, dist, out=dist)
        np.subtract(ym[ca][:, :, None], ym[cb][:, None, :], out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dist, dy, out=dist)
        np.sqrt(dist, out=dist)
        dist[dist == 0] = np.inf
        np.divide(ratio, dist, out=ratio)
        return float(ratio.max())

    # a zero gap, or a value difference that may overflow: only these cell
    # pairs can hold a NaN ratio (inf / inf), so all of them are scanned first
    head = (gap == 0) | (num == np.inf)
    first = np.flatnonzero(head)
    best = 0.0
    for s in range(0, len(first), per):
        ratio = batch_max(first[s:s + per])
        if math.isnan(ratio):
            return ratio
        best = max(best, ratio)
    rest = np.flatnonzero(~head & (bound > best))
    rest = rest[np.argsort(-bound[rest])]
    for s in range(0, len(rest), per):
        if bound[rest[s]] <= best:
            break
        best = max(best, batch_max(rest[s:s + per]))
    return best


# At this cap the grid Lipschitz scan covers 128^2 points (134 M pairs). On a
# 2-core Xeon VM (numpy 2.4) it took 0.05-0.17 s on the c2 errors of sin_cos and
# sin_exp at degree 12, and 0.65-0.69 s on a plane, where no cell pair can be
# skipped; its tracemalloc peak was 28 MiB.
MAX_GRID_N = 128


def c2_to_poly(oracle: C2Oracle, degree: int, grid_n: int = 41) -> tuple[Poly2, C2Report]:
    """Polynomial with certified-by-measurement uniform/Lipschitz error.

    Builds Bernstein approximants of the three second partials, candidate
    first partials by antidifferentiation, and the final polynomial; measures
    all errors on a grid and checks the 2/3/4/sqrt(13) error chain against
    the measured second-derivative error. An oracle with a NaN or infinite
    sample on that grid or at a Bernstein node is refused with ApproxError,
    and so is a grid of fewer than 2 or more than ``MAX_GRID_N`` points per
    side, or a degree above ``MAX_DEGREE``, before any oracle call.

    The measurement grid is sampled at every point, except for a partial that
    is a ``_Product`` (every built-in oracle's): its factors are called once
    per grid line and multiplied, which gives the same floats. The Bernstein
    nodes and the spot check call every partial at its points.
    """
    _refuse_large_degree(degree)
    if grid_n < 2:
        raise ApproxError(f"measurement grid needs at least 2 points per side, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ApproxError(f"measurement grid takes at most {MAX_GRID_N} points per side, "
                          f"got {grid_n}")
    oracle.spot_check()
    g_xx = bernstein2(oracle.fxx, degree, name="oracle fxx")
    g_xy = bernstein2(oracle.fxy, degree, name="oracle fxy")
    g_yy = bernstein2(oracle.fyy, degree, name="oracle fyy")

    xs = np.linspace(0.0, 1.0, grid_n)
    pts = xs.tolist()
    X, Y = xs[:, None], xs[None, :]     # an open grid: eval_float_grid broadcasts it

    def sample(fn, what):
        if isinstance(fn, _Product):
            vals = fn.grid(pts)
        else:
            vals = np.array([[float(fn(a, b)) for b in pts] for a in pts])
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            i, j = bad[0]
            raise ApproxError(f"oracle {what} is not finite at ({xs[i]}, {xs[j]})")
        return vals

    # the grid holds (0, 0), so these refuse a non-finite value there before it is lifted
    F = sample(oracle.f, "f")
    FX = sample(oracle.fx, "fx")
    FY = sample(oracle.fy, "fy")

    zero = Fraction(0)
    h_x = Poly2.constant(oracle.fx(zero, zero)) + g_xx.at_y(0).int_x() + g_xy.int_y()
    h_y = Poly2.constant(oracle.fy(zero, zero)) + g_xy.int_x() + g_yy.at_x(0).int_y()
    assert h_y.dx() == g_xy
    p = Poly2.constant(oracle.f(zero, zero)) + h_x.at_y(0).int_x() + h_y.int_y()

    eps = max(
        float(np.max(np.abs(sample(oracle.fxx, "fxx") - g_xx.eval_float_grid(X, Y)))),
        float(np.max(np.abs(sample(oracle.fxy, "fxy") - g_xy.eval_float_grid(X, Y)))),
        float(np.max(np.abs(sample(oracle.fyy, "fyy") - g_yy.eval_float_grid(X, Y)))),
    )
    P_vals = p.eval_float_grid(X, Y)
    sup_err = float(np.max(np.abs(F - P_vals)))
    # p.dx() == h_x and p.dy() == h_y: differentiation commutes with int_y, and
    # h_y.dx() == g_xy, so p's partials are measured on h_x and h_y
    hx_err = dpx_err = float(np.max(np.abs(FX - h_x.eval_float_grid(X, Y))))
    dpy_err = float(np.max(np.abs(FY - h_y.eval_float_grid(X, Y))))
    lip_err = grid_lipschitz(F - P_vals, *np.meshgrid(xs, xs, indexing="ij"))
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


# ---------------------------------------------------------------------------
# matching corrections

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

    exact = all_exact(coefs)
    mags = magnitudes(coefs)
    max_coef = max(mags)
    sup_h = max_coef
    var_h = 4 * sum(mags)
    n = len(pts)
    eps = (4 * n + 2) * max_coef
    target = Fraction(4 * n + 1, 4 * n + 2) * eps if exact else (4 * n + 1) / (4 * n + 2) * eps
    interp_err = max(_on_floats(lambda c: abs(c[0] - c[1]), (g.eval(p), f.value(p)))
                     for p in pts)
    report = MatchReport(n_points=n, coefs=coefs, max_coef=max_coef,
                         sup_h_bound=sup_h, var_h_bound=var_h, eps=eps,
                         target=target, bound_ok=sup_h + var_h <= target,
                         interp_max_err=float(interp_err))
    return g, report
