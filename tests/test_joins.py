"""Pullbacks, fills, pasting, sector extension, and the join report."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planevar.geom import P, Point2, Rectangle, cross
from planevar.variation import (
    SampledFunction,
    SearchConfig,
    var_exact_small,
    var_search,
)
from planevar.onedim import (
    RealFunction1D,
    reciprocal_alternating,
    var_1d,
)
from planevar.joins import (
    ConvexCurve,
    DomainMismatch,
    DomainNotOnGraph,
    GraphOutsideRectangle,
    JoinsError,
    NoAxisPoints,
    SectorSpec,
    best_estimate,
    graph_fill,
    join_report,
    joins_convexly_on_sample,
    pasting_extend,
    psi_pullback,
    sector_fill,
)


def tent_instance():
    knots = [(-1, 1), (Fraction(-1, 2), Fraction(1, 2)), (0, 0),
             (Fraction(1, 2), Fraction(1, 2)), (1, 1)]
    curve = ConvexCurve.of(knots)
    pts = curve.graph_points()
    f = SampledFunction(pts, tuple(abs(p.x) for p in pts))
    return curve, f


class TestConvexCurve:
    def test_convexity_enforced(self):
        with pytest.raises(JoinsError):
            ConvexCurve.of([(0, 0), (1, 2), (2, 1)])  # slopes decrease


class TestPsiPullback:
    def test_linear_graph_planar_function(self):
        curve = ConvexCurve.of([(0, 0), (1, 1), (2, 2)])
        pts = curve.graph_points()
        f = SampledFunction(pts, tuple(p.x for p in pts))
        v1 = var_1d(psi_pullback(f, curve))
        v_graph = best_estimate(f, "exact", 5, 0).value
        assert v1 == v_graph  # collinear case: equality
        assert v1 <= 2 * v_graph

    def test_tent_doubles(self):
        curve, f = tent_instance()
        v1 = var_1d(psi_pullback(f, curve))
        v_graph = best_estimate(f, "exact", 5, 0).value
        assert v_graph == 1
        assert v1 == 2
        assert v1 <= 2 * v_graph

    def test_random_convex_factor_two(self):
        rng = random.Random(19)
        trials = 0
        for _ in range(200):
            xs = sorted({Fraction(rng.randint(-8, 8), 4) for _ in range(5)})
            if len(xs) < 3:
                continue
            slopes = sorted(Fraction(rng.randint(-6, 6), 2) for _ in range(len(xs) - 1))
            ys = [Fraction(rng.randint(-2, 2))]
            for s, (x1, x2) in zip(slopes, zip(xs, xs[1:])):
                ys.append(ys[-1] + s * (x2 - x1))
            curve = ConvexCurve.of(list(zip(xs, ys)))
            pts = curve.graph_points()
            vals = tuple(Fraction(rng.randint(-10, 10), 4) for _ in pts)
            f = SampledFunction(pts, vals)
            assert var_1d(psi_pullback(f, curve)) <= 2 * best_estimate(f, "exact", 6, 0).value
            trials += 1
        assert trials >= 150

    def test_domain_not_on_graph(self):
        curve, f = tent_instance()
        bad = SampledFunction((P(5, 5),), (Fraction(1),))
        with pytest.raises(DomainNotOnGraph):
            psi_pullback(bad, curve)


class TestGraphFill:
    def test_constant(self):
        curve, _ = tent_instance()
        pts = curve.graph_points()
        f = SampledFunction(pts, (Fraction(3),) * len(pts))
        g = graph_fill(f, curve, Rectangle.of(-1, 1, -1, 1), n=4)
        assert set(g.values) == {Fraction(3)}

    def test_remark_instance_numbers(self):
        curve, f = tent_instance()
        g = graph_fill(f, curve, Rectangle.of(-1, 1, -1, 1), n=4)
        # witness achieving 2 along y = 0
        row = tuple(P(x, 0) for x in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1))
        from planevar.variation import cvar, vf_exact
        assert cvar(g, row) == 2
        assert vf_exact(row).vf == 1
        est = var_search(g, SearchConfig(iters=4000, restarts=4, seed=0))
        assert est.value <= 2
        assert est.stats["max_objective_seen"] <= 2 + 1e-12

    def test_y_invariance(self):
        curve, f = tent_instance()
        g = graph_fill(f, curve, Rectangle.of(-1, 1, -1, 1), n=4)
        by_x = {}
        for p, v in zip(g.points, g.values):
            if p in curve.graph_points():
                continue
            by_x.setdefault(p.x, set()).add(v)
        assert all(len(vals) == 1 for vals in by_x.values())

    def test_planar_on_linear_graph(self):
        curve = ConvexCurve.of([(-1, -1), (0, 0), (1, 1)])
        pts = curve.graph_points()
        f = SampledFunction(pts, tuple(p.x for p in pts))
        g = graph_fill(f, curve, Rectangle.of(-1, 1, -1, 1), n=2)
        assert g.value(P(1, -1)) == 1 and g.value(P(-1, 1)) == -1

    def test_graph_outside_raises(self):
        curve, f = tent_instance()
        with pytest.raises(GraphOutsideRectangle):
            graph_fill(f, curve, Rectangle.of(0, 1, 0, 1), n=2)


class TestPasting:
    def _grid_f(self, fn):
        pts = tuple(P(x, y) for x in (-1, 0, Fraction(1, 2), 1, 2) for y in (-1, 0, 1))
        return SampledFunction(pts, tuple(fn(p) for p in pts))

    def test_vanishing_band(self):
        f = self._grid_f(lambda p: p.y if p.y != 0 else Fraction(0))
        res = pasting_extend(f, 0, 1)
        assert set(res.h.values) == {Fraction(0)}

    def test_case_split(self):
        f = self._grid_f(lambda p: p.x)
        res = pasting_extend(f, 0, 1)
        assert res.h.value(P(2, 1)) == 1
        assert res.h.value(P(-1, 0)) == 0
        assert res.h.value(P(Fraction(1, 2), -1)) == Fraction(1, 2)

    def test_clamp_compact_support(self):
        axis = (P(0, 0), P(Fraction(1, 2), 0), P(1, 0))
        off_axis = (P(-5, 1), P(7, -1), P(Fraction(1, 4), 2))
        f = SampledFunction(axis + off_axis, (Fraction(0), Fraction(1), Fraction(0),
                                              Fraction(9), Fraction(9), Fraction(9)))
        h = pasting_extend(f, 0, 1).h
        assert h.value(P(-5, 1)) == 0
        assert h.value(P(7, -1)) == 0
        assert h.value(P(Fraction(1, 4), 2)) == Fraction(1, 2)

    def test_no_axis_points(self):
        pts = (P(0, 1), P(1, 1))
        f = SampledFunction(pts, (Fraction(1), Fraction(2)))
        with pytest.raises(NoAxisPoints):
            pasting_extend(f, 0, 1)

    def test_empty_band_is_refused_after_the_axis_check(self):
        f = self._grid_f(lambda p: p.x)
        with pytest.raises(JoinsError, match="band needs a < b"):
            pasting_extend(f, 1, 1)
        with pytest.raises(NoAxisPoints):
            pasting_extend(f, 1, 0)


class TestSectorFill:
    def _sector(self):
        return SectorSpec(Rectangle.of(-1, 1, -1, 1), P(0, 0), P(1, 1), P(-1, 1))

    def test_constant(self):
        spec = self._sector()
        pts = (P(0, 0), P(1, 1), P(-1, 1))
        f = SampledFunction(pts, (Fraction(2),) * 3)
        g = sector_fill(f, spec, n=3)
        assert set(g.values) == {Fraction(2)}

    def test_distance_tent(self):
        spec = self._sector()
        pts = (P(0, 0), P(Fraction(1, 2), Fraction(1, 2)), P(1, 1),
               P(Fraction(-1, 2), Fraction(1, 2)), P(-1, 1))
        dist = (Fraction(0), Fraction(1), Fraction(2), Fraction(1), Fraction(2))
        f = SampledFunction(pts, dist)
        g = sector_fill(f, spec, n=4)
        for p, v in zip(pts, dist):
            assert g.value(p) == v
        # the pullback is a tent: variation 2 on the sides, 4 after pullback
        from planevar.joins import _build_normalizer
        phi = _build_normalizer(spec)
        xs = sorted((phi.apply(p).x, v) for p, v in zip(pts, dist))
        fhat = RealFunction1D.from_pairs(xs)
        assert var_1d(fhat) == 4

    def test_remark_numbers_via_sector(self):
        # α = 1 normalized instance reproduces the tent numbers
        spec = self._sector()
        pts = (P(0, 0), P(Fraction(1, 2), Fraction(1, 2)), P(1, 1),
               P(Fraction(-1, 2), Fraction(1, 2)), P(-1, 1))
        vals = tuple(abs(p.x) for p in pts)
        f = SampledFunction(pts, vals)
        assert var_exact_small(f, 5).value == 1
        from planevar.joins import _build_normalizer
        phi = _build_normalizer(spec)
        fhat = RealFunction1D.from_pairs(
            sorted((phi.apply(p).x, v) for p, v in zip(pts, vals)))
        assert var_1d(fhat) == 2

    def test_point_off_rays_rejected(self):
        spec = self._sector()
        f = SampledFunction((P(1, 0),), (Fraction(1),))
        with pytest.raises(Exception):
            sector_fill(f, spec)


def _sector_fill_before(f, spec, n):
    """``sector_fill`` on valid input as it was, with the y grid rebuilt for every x."""
    from planevar.joins import _build_normalizer, _clamped_value, _fraction_linspace
    phi = _build_normalizer(spec)
    inv = phi.inverse()
    fhat = RealFunction1D.from_pairs([(phi.apply(p).x, f.value(p)) for p in f.points])
    corners = [phi.apply(c) for c in spec.rect.corners()]
    r1 = Rectangle(min(c.x for c in corners), max(c.x for c in corners),
                   min(c.y for c in corners), max(c.y for c in corners))
    pairs = {p: f.value(p) for p in f.points}
    for x in _fraction_linspace(r1.x_min, r1.x_max, n):
        vx = _clamped_value(fhat, x)
        for y in _fraction_linspace(r1.y_min, r1.y_max, n):
            back = inv.apply(Point2(x, y))
            if spec.rect.contains(back):
                pairs.setdefault(back, vx)
    pts = tuple(sorted(pairs, key=lambda q: (q.x, q.y)))
    return SampledFunction(pts, tuple(pairs[q] for q in pts))


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("spec", [
    SectorSpec(Rectangle.of(-1, 1, -1, 1), P(0, 0), P(1, 1), P(-1, 1)),
    SectorSpec(Rectangle.of(-2, 3, -1, 2), P(Fraction(1, 2), Fraction(1, 2)), P(2, 1), P(-1, 3)),
])
def test_sector_fill_equals_the_loop_it_replaced(spec, n):
    c = spec.centre
    pts = (c, P(c.x + spec.ray1.x / 2, c.y + spec.ray1.y / 2),
           P(c.x + spec.ray2.x / 3, c.y + spec.ray2.y / 3))
    f = SampledFunction(pts, (Fraction(1), Fraction(-2, 3), Fraction(5, 2)))
    assert sector_fill(f, spec, n=n) == _sector_fill_before(f, spec, n)


class TestJoinReport:
    def test_equal_sets_tight(self):
        sq = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        f = SampledFunction(sq, tuple(p.x for p in sq))
        r = join_report(f, sq, sq)
        assert r.joins_convexly
        assert r.var1 == r.var2 == r.var_union
        assert r.lower_ok and r.upper_ok and r.exact

    def test_rectangle_split_inequalities(self):
        s1 = (P(0, 0), P(0, 1), P(1, 0), P(1, 1))
        s2 = (P(2, 0), P(2, 1), P(1, 0), P(1, 1))
        union = tuple(dict.fromkeys(s1 + s2))
        f = SampledFunction(union, tuple(p.x for p in union))
        r = join_report(f, s1, s2)
        assert r.lower_ok and r.upper_ok and r.exact
        assert r.var_union == 2 and r.var1 == 1 and r.var2 == 1

    def test_ac_join_example_divergence(self):
        n = 8
        fa = reciprocal_alternating(n)
        pts1 = tuple(P(Fraction(1, k), 0) for k in range(1, n + 1, 2)) + (P(0, 0),)
        pts2 = tuple(P(Fraction(1, k), 0) for k in range(2, n + 1, 2)) + (P(0, 0),)
        union = tuple(dict.fromkeys(pts1 + pts2))
        f = SampledFunction(union, tuple(fa.at(p.x) for p in union))
        r = join_report(f, pts1, pts2)
        assert not r.joins_convexly
        assert r.exact  # collinear reduction keeps everything exact
        assert r.var1 == 1 and r.var2 == Fraction(1, 2)
        assert r.var_union > r.var1 + r.var2
        assert not r.upper_ok
        assert r.lower_ok

    def test_domain_mismatch(self):
        sq = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        f = SampledFunction(sq, tuple(p.x for p in sq))
        with pytest.raises(DomainMismatch):
            join_report(f, sq[:2], sq[:1])

    def test_joins_convexly_predicate(self):
        line1 = (P(-2, 0), P(-1, 0), P(0, 0))
        line2 = (P(0, 0), P(1, 0), P(2, 0))
        assert joins_convexly_on_sample(line1, line2)
        assert not joins_convexly_on_sample((P(0, 1),), (P(0, -1),))

    def test_poly_join_composed(self):
        # composed property: extend an axis trace to both half-planes with the
        # pasting clamp, then check the two-sided join inequality across the
        # halves (they share the axis sample, so the split joins convexly)
        axis = (P(0, 0), P(1, 0), P(2, 0))
        upper = (P(0, 1), P(2, 1))
        lower = (P(0, -1), P(2, -1))
        union = axis + upper + lower
        seeded = SampledFunction(
            union, tuple(Fraction(0) if p.y != 0 else
                         (Fraction(1) if p.x == 1 else Fraction(0))
                         for p in union))
        h = pasting_extend(seeded, 0, 2).h  # y-invariant tent in x
        s1 = axis + upper
        s2 = axis + lower
        r = join_report(h, s1, s2)
        assert r.joins_convexly and r.exact
        assert r.lower_ok and r.upper_ok
        assert r.var1 == r.var2 == 2  # tent trace swept over each half

    def test_disjoint_sets_flagged_but_lower_bound_holds(self):
        s1 = (P(0, 0), P(1, 0), P(0, 1))
        s2 = (P(10, 10), P(11, 10), P(10, 11))
        union = s1 + s2
        f = SampledFunction(union, (Fraction(0), Fraction(1), Fraction(2),
                                    Fraction(5), Fraction(5), Fraction(5)))
        r = join_report(f, s1, s2)
        assert not r.joins_convexly  # vacuously fails on disjoint samples
        assert r.lower_ok            # restriction monotonicity always holds


def _dot(o: Point2, a: Point2, b: Point2):
    """(a - o) . (b - o) in the points' own Fractions."""
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def _joins_convexly_fraction_oracle(sigma1, sigma2) -> bool:
    """``joins_convexly_on_sample`` as geom's Fraction ``cross`` and ``_dot`` on the
    points as given, with no integer lift."""
    s1, s2 = set(sigma1), set(sigma2)
    inter = s1 & s2
    for x in s1:
        for y in s2:
            if x == y:
                if x not in inter:
                    return False
                continue
            found = False
            for w in inter:
                if cross(x, y, w) == 0:
                    t = _dot(x, y, w)
                    if 0 <= t <= _dot(x, y, y):
                        found = True
                        break
            if not found:
                return False
    return True


join_coords = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# (x, y, side): the point goes to sigma1 (0), sigma2 (1) or both (2)
join_members = st.lists(st.tuples(join_coords, join_coords, st.integers(0, 2)),
                        min_size=1, max_size=8, unique_by=lambda m: m[:2])


@settings(max_examples=300, deadline=None)
@given(join_members, st.booleans())
# a collinear split sharing its middle point, which joins
@example([(-2, 0, 0), (-1, 0, 0), (0, 0, 2), (1, 0, 1), (2, 0, 1)], False)
# the same split with the middle point in sigma1 only, which does not
@example([(-2, 0, 0), (-1, 0, 0), (0, 0, 0), (1, 0, 1), (2, 0, 1)], False)
# a shared chord with one point on either side of it, which does not
@example([(0, 0, 2), (3, 3, 2), (1, 2, 0), (2, 1, 1)], False)
def test_joins_convexly_on_sample_matches_the_fraction_oracle(members, on_line):
    """on_line moves every point to y = x/3 + 1/2, where splits join."""
    placed = {}
    for x, y, side in members:
        placed.setdefault(P(x, Fraction(x) / 3 + Fraction(1, 2)) if on_line else P(x, y), side)
    s1 = [p for p, side in placed.items() if side != 1]
    s2 = [p for p, side in placed.items() if side != 0]
    assert joins_convexly_on_sample(s1, s2) == _joins_convexly_fraction_oracle(s1, s2)


def test_fills_refuse_a_subdivision_past_the_cap_before_any_grid_value(monkeypatch):
    from planevar import joins

    def no_value(*args):
        raise AssertionError("a grid value was computed")

    assert joins.MAX_FILL_SUBDIVISION == 256
    monkeypatch.setattr(joins, "_clamped_value", no_value)
    curve, f = tent_instance()
    with pytest.raises(JoinsError, match="grid subdivision must be <= 256, got 257"):
        graph_fill(f, curve, Rectangle.of(-1, 1, -1, 1), n=joins.MAX_FILL_SUBDIVISION + 1)
    spec = SectorSpec(Rectangle.of(-1, 1, -1, 1), P(0, 0), P(1, 1), P(-1, 1))
    g = SampledFunction((P(0, 0), P(1, 1), P(-1, 1)), (Fraction(2),) * 3)
    with pytest.raises(JoinsError, match="grid subdivision must be <= 256, got 257"):
        sector_fill(g, spec, n=joins.MAX_FILL_SUBDIVISION + 1)
