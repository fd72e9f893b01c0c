"""Pullbacks along convex graphs, fills, pasting, and variation-join reports.

A convex graph admits a pullback to one variable that at most doubles the
variation (a line meets a convex graph at most twice); filling a rectangle
with the pulled-back values, constant in y, extends a function from the graph
to the rectangle. The pasting clamp extends an axis trace constantly outside
its band. The join report checks the two-sided variation inequality for a
union of samples together with the convex-joining predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geom import AffineMap, Point2, Rectangle, common_denominator, cross, to_fraction
from .onedim import RealFunction1D, _iota_value
from .variation import (
    _EXACT_MAX_POINTS,
    SampledFunction,
    SearchConfig,
    VarEstimate,
    InstanceTooLarge,
    is_collinear,
    var_collinear,
    var_exact_small,
    var_search,
)


class JoinsError(ValueError):
    pass


class DomainNotOnGraph(JoinsError):
    pass


class GraphOutsideRectangle(JoinsError):
    pass


class NoAxisPoints(JoinsError):
    pass


class RaysNotInRectangle(JoinsError):
    pass


class DomainMismatch(JoinsError):
    pass


@dataclass(frozen=True)
class ConvexCurve:
    """Piecewise-linear convex graph given by knots (x, value), x increasing."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        xs = [k[0] for k in self.knots]
        if len(xs) < 2:
            raise JoinsError("need at least two knots")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise JoinsError("knot x-values must be strictly increasing")
        slopes = [(y2 - y1) / (x2 - x1)
                  for (x1, y1), (x2, y2) in zip(self.knots, self.knots[1:])]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 < s1:
                raise JoinsError("knots are not convex (slopes must be nondecreasing)")

    @staticmethod
    def of(pairs) -> "ConvexCurve":
        items = sorted((to_fraction(x), to_fraction(y)) for x, y in pairs)
        return ConvexCurve(tuple(items))

    def graph_points(self) -> tuple[Point2, ...]:
        return tuple(Point2(x, y) for x, y in self.knots)


def psi_pullback(f: SampledFunction, curve: ConvexCurve) -> RealFunction1D:
    """One-variable view x -> f(x, curve(x)) of a function sampled on the graph."""
    graph = set(curve.graph_points())
    pairs = []
    for p in f.points:
        if p not in graph:
            raise DomainNotOnGraph(f"{p} is not a knot of the graph")
        pairs.append((p.x, f.value(p)))
    return RealFunction1D.from_pairs(pairs)


MAX_FILL_SUBDIVISION = 256   # cells per side of the grids graph_fill and sector_fill fill


def _fraction_linspace(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    """n + 1 equally spaced points from lo to hi, for 1 <= n <= ``MAX_FILL_SUBDIVISION``."""
    if n < 1:
        raise JoinsError(f"grid subdivision must be >= 1, got {n}")
    if n > MAX_FILL_SUBDIVISION:
        raise JoinsError(f"grid subdivision must be <= {MAX_FILL_SUBDIVISION}, got {n}")
    return [lo + (hi - lo) * Fraction(i, n) for i in range(n + 1)]


def _clamped_value(fhat: RealFunction1D, x: Fraction):
    pts = fhat.sample.points
    if x <= pts[0]:
        return fhat.values[0]
    if x >= pts[-1]:
        return fhat.values[-1]
    return _iota_value(fhat, x)


def graph_fill(f: SampledFunction, curve: ConvexCurve, rect: Rectangle,
               n: int = 8) -> SampledFunction:
    """Fill a rectangle grid with the pulled-back values, constant in y.

    The output sample is the (n+1)^2 grid of the rectangle together with the
    original graph points, so agreement with f on the graph is literal.
    """
    for p in curve.graph_points():
        if not rect.contains(p):
            raise GraphOutsideRectangle(f"graph knot {p} outside rectangle")
    fhat = psi_pullback(f, curve)
    xs = _fraction_linspace(rect.x_min, rect.x_max, n)
    ys = _fraction_linspace(rect.y_min, rect.y_max, n)
    pairs = {}
    for p in f.points:
        pairs[p] = f.value(p)
    for x in xs:
        vx = _clamped_value(fhat, x)
        for y in ys:
            pairs.setdefault(Point2(x, y), vx)
    pts = tuple(sorted(pairs, key=lambda q: (q.x, q.y)))
    return SampledFunction(pts, tuple(pairs[q] for q in pts))


# ---------------------------------------------------------------------------
# pasting clamp

@dataclass(frozen=True)
class PastingResult:
    h: SampledFunction
    band: tuple[Fraction, Fraction]
    trace: RealFunction1D


def pasting_extend(f: SampledFunction, a, b) -> PastingResult:
    """The pasting construction: h(p) depends on p.x only, equal to the axis
    trace inside [a, b] (interpolated between its points) and to the trace's
    values at its first and last points outside."""
    a, b = to_fraction(a), to_fraction(b)
    axis_pairs = [(p.x, f.value(p)) for p in f.points if p.y == 0 and a <= p.x <= b]
    if not axis_pairs:
        raise NoAxisPoints("no sample points on the axis band")
    if not a < b:
        raise JoinsError("band needs a < b")
    trace = RealFunction1D.from_pairs(axis_pairs)
    values = tuple(_clamped_value(trace, to_fraction(p.x)) for p in f.points)
    return PastingResult(h=SampledFunction(f.points, values), band=(a, b), trace=trace)


# ---------------------------------------------------------------------------
# sector fill

@dataclass(frozen=True)
class SectorSpec:
    rect: Rectangle
    centre: Point2
    ray1: Point2  # direction vectors of the two sector sides
    ray2: Point2

    def __post_init__(self):
        if self.centre != self.rect.centre():
            raise JoinsError("sector vertex must be the rectangle centre")
        if (self.ray1.x, self.ray1.y) == (0, 0) or (self.ray2.x, self.ray2.y) == (0, 0):
            raise JoinsError("ray directions must be nonzero")
        c = self.ray1.x * self.ray2.y - self.ray1.y * self.ray2.x
        d = self.ray1.x * self.ray2.x + self.ray1.y * self.ray2.y
        if c == 0 and d > 0:
            raise JoinsError("rays must be distinct directions")


def _build_normalizer(spec: SectorSpec) -> AffineMap:
    """Affine map sending the vertex to the origin and the rays onto y = |x|
    (or onto the x-axis when the rays are opposite)."""
    d1, d2 = spec.ray1, spec.ray2
    if d1.x * d2.y - d1.y * d2.x != 0:
        # want M d1 = (1, 1) and M d2 = (-1, 1); with D = [d1 d2] (columns),
        # M = B D^-1 where B = [(1,-1),(1,1)] as columns (b1=(1,1), b2=(-1,1))
        inv = AffineMap(d1.x, d2.x, d1.y, d2.y).inverse()
        m00 = inv.m00 - inv.m10
        m01 = inv.m01 - inv.m11
        m10 = inv.m00 + inv.m10
        m11 = inv.m01 + inv.m11
    else:
        # opposite rays: map d1 to (1, 0) and its left normal to (0, 1)
        norm_sq = d1.x * d1.x + d1.y * d1.y
        m00, m01 = d1.x / norm_sq, d1.y / norm_sq
        m10, m11 = -d1.y / norm_sq, d1.x / norm_sq
    t = AffineMap(m00, m01, m10, m11)
    c = spec.centre
    shifted = t.apply(Point2(-c.x, -c.y))
    return AffineMap(m00, m01, m10, m11, shifted.x, shifted.y)


def sector_fill(f: SampledFunction, spec: SectorSpec, n: int = 8) -> SampledFunction:
    """Extend a function sampled on the two sides of a sector to a grid of the
    rectangle: normalize the sector onto y = |x|, pull back, clamp beyond the
    sampled arms, fill constant in y, and map back."""
    for p in f.points:
        if not spec.rect.contains(p):
            raise RaysNotInRectangle(f"sample point {p} outside the rectangle")
        v = Point2(p.x - spec.centre.x, p.y - spec.centre.y)
        if v.x == 0 and v.y == 0:
            continue
        on1 = cross(Point2(Fraction(0), Fraction(0)), spec.ray1, v) == 0 and \
            (v.x * spec.ray1.x + v.y * spec.ray1.y) > 0
        on2 = cross(Point2(Fraction(0), Fraction(0)), spec.ray2, v) == 0 and \
            (v.x * spec.ray2.x + v.y * spec.ray2.y) > 0
        if not (on1 or on2):
            raise RaysNotInRectangle(f"sample point {p} lies on neither sector side")

    phi = _build_normalizer(spec)
    inv = phi.inverse()
    flat = spec.ray1.x * spec.ray2.y - spec.ray1.y * spec.ray2.x == 0
    pull_pairs = []
    for p in f.points:
        q = phi.apply(p)
        expected = Fraction(0) if flat else abs(q.x)
        if q.y != expected:
            raise AssertionError("normalization failed to land on the sector sides")
        pull_pairs.append((q.x, f.value(p)))
    if len({x for x, _ in pull_pairs}) != len(pull_pairs):
        raise JoinsError("sample points collide after normalization")
    fhat = RealFunction1D.from_pairs(pull_pairs)

    # bounding box of the normalized rectangle (a parallelogram)
    corners = [phi.apply(c) for c in spec.rect.corners()]
    xs = [c.x for c in corners]
    ys = [c.y for c in corners]
    r1 = Rectangle(min(xs), max(xs), min(ys), max(ys))

    pairs = {p: f.value(p) for p in f.points}
    y_grid = _fraction_linspace(r1.y_min, r1.y_max, n)
    for x in _fraction_linspace(r1.x_min, r1.x_max, n):
        vx = _clamped_value(fhat, x)
        for y in y_grid:
            back = inv.apply(Point2(x, y))
            if spec.rect.contains(back):
                pairs.setdefault(back, vx)
    pts = tuple(sorted(pairs, key=lambda q: (q.x, q.y)))
    return SampledFunction(pts, tuple(pairs[q] for q in pts))


# ---------------------------------------------------------------------------
# join-convexly check and the variation-join report

def joins_convexly_on_sample(sigma1, sigma2) -> bool:
    """Every cross pair admits a sampled intersection point on its closed segment.

    A negative answer on finite samples is 'not verified on the sample'; the
    underlying compacts may still join convexly.

    The test runs on Python integers: every coordinate of sigma1 | sigma2 is
    lifted over one common denominator. One positive scale keeps the signs of
    the cross and dot products and the test 0 <= t <= |a|^2 as they are.
    """
    s1, s2 = set(sigma1), set(sigma2)
    pts = list(s1 | s2)
    ints, _ = common_denominator([c for p in pts for c in (p.x, p.y)])
    lift = {p: (ints[2 * i], ints[2 * i + 1]) for i, p in enumerate(pts)}
    inter = [lift[p] for p in s1 & s2]
    for x in s1:
        ox, oy = lift[x]
        for y in s2:
            if x == y:              # a shared point joins itself
                continue
            yx, yy = lift[y]
            ax, ay = yx - ox, yy - oy
            norm_sq = ax * ax + ay * ay
            if not any(ax * (wy - oy) == ay * (wx - ox)
                       and 0 <= ax * (wx - ox) + ay * (wy - oy) <= norm_sq
                       for wx, wy in inter):
                return False
    return True


@dataclass(frozen=True)
class JoinReport:
    instance: str
    joins_convexly: bool
    var1: object
    var2: object
    var_union: object
    lower_ok: bool
    upper_ok: bool | None
    exact: bool
    estimates: tuple[VarEstimate, VarEstimate, VarEstimate]


def best_estimate(f: SampledFunction, mode: str, max_len: int,
                  seed: int) -> VarEstimate:
    """Exact on collinear samples; otherwise exhaustive ("exact") or annealed."""
    if is_collinear(f.points):
        return var_collinear(f)
    if mode == "exact":
        return var_exact_small(f, max_len)
    return var_search(f, SearchConfig(seed=seed))


def join_report(f: SampledFunction, sigma1, sigma2, mode: str = "exact",
                max_len: int = 5, seed: int = 0,
                instance: str = "join") -> JoinReport:
    """Check max(var1, var2) <= var(union) <= var1 + var2 on the samples.

    In exact mode every non-collinear part must fit the exhaustive caps.
    In search mode only the sound lower comparison is reported (upper_ok is
    None unless all three estimates are exact).
    """
    s1, s2 = tuple(sigma1), tuple(sigma2)
    if set(s1) | set(s2) != set(f.points):
        raise DomainMismatch("sigma1 union sigma2 must equal the sample domain")
    if mode == "exact":
        for part in (s1, s2, f.points):
            if not is_collinear(part) and len(part) > _EXACT_MAX_POINTS:
                raise InstanceTooLarge(
                    f"exact join report needs <= {_EXACT_MAX_POINTS} points per "
                    f"non-collinear set")
    joins = joins_convexly_on_sample(s1, s2)
    e1 = best_estimate(f.restrict(s1), mode, max_len, seed)
    e2 = best_estimate(f.restrict(s2), mode, max_len, seed)
    eu = best_estimate(f, mode, max_len, seed)
    all_exact = e1.exact and e2.exact and eu.exact
    lower_ok = max(e1.value, e2.value) <= eu.value
    upper_ok = (eu.value <= e1.value + e2.value) if all_exact else None
    return JoinReport(instance=instance, joins_convexly=joins,
                      var1=e1.value, var2=e2.value, var_union=eu.value,
                      lower_ok=lower_ok, upper_ok=upper_ok, exact=all_exact,
                      estimates=(e1, e2, eu))
