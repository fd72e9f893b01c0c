"""Piecewise-planar validation, evaluation, interpolation, extension, bumps."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planevar.geom import (P, Point2, Polygon, Rectangle, Triangulation, _ear_clip_indices,
                           dist_sq, grid_triangulation, inradius)
from planevar.variation import (
    PlanarCoeffs,
    SampledFunction,
    SearchConfig,
    VariationError,
    values_agree,
    var_exact_small,
    var_search,
)
from planevar.ctpp import (
    BadSpec,
    BumpSpec,
    CtppError,
    CtppFunction,
    CtppSum,
    EdgeViolation,
    PointOutsidePolygon,
    ScaledBump,
    boundary_ring,
    classify_point,
    eval_ctpp,
    extend_to_polygon,
    interpolate_grid,
    make_bumps,
    pyramid_bump,
    pyramid_ctpp,
    solve_plane,
    triangle_lipschitz_report,
    validate_ctpp,
)
from planevar.approx import match_points
from planevar.onedim import bv_norm_1d
from planevar.svg import ctpp_svg

RECT01 = Rectangle.of(0, 1, 0, 1)


def _sample(g, points) -> SampledFunction:
    """The values of ``g`` at ``points`` as a sample."""
    pts = tuple(points)
    return SampledFunction(pts, tuple(g.eval(p) for p in pts))


def _star_planar_bound(f: SampledFunction, n: int):
    """The paper's bound 2n (max - min) on the variation of an exact real sample
    of a function that is planar on each of n sectors around one centre."""
    return 2 * n * (max(f.values) - min(f.values))


def _lipschitz(f: SampledFunction) -> float:
    """Largest |f(p) - f(q)| / |p - q| over the point pairs of an exact sample."""
    pairs = itertools.combinations(zip(f.points, f.values), 2)
    return math.sqrt(max(Fraction((u - v) ** 2) / dist_sq(p, q) for (p, u), (q, v) in pairs))


def _ear_clip(polygon: Polygon) -> Triangulation:
    """The polygon's triangulation by the ear clipping that ``extend_to_polygon`` runs."""
    return _ear_clip_indices(list(polygon.vertices), range(len(polygon.vertices)))


class TestValidate:
    def test_planar_on_grid_valid(self):
        g = interpolate_grid(lambda v: 2 * v.x - 3 * v.y + 1, RECT01, 2)
        assert validate_ctpp(g) == []

    def test_shared_edge_on_kernel_line_valid(self):
        tri = Triangulation((P(0, 0), P(0, 1), P(-1, 0), P(1, 1)),
                            ((0, 1, 2), (0, 3, 1)))
        g = CtppFunction(tri, (PlanarCoeffs(Fraction(0), Fraction(0), Fraction(0)),
                               PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0))))
        assert validate_ctpp(g) == []  # both pieces vanish on x = 0

    def test_shared_edge_off_kernel_violates(self):
        tri = Triangulation((P(0, 0), P(1, 0), P(1, 1), P(2, 0)),
                            ((0, 1, 2), (1, 3, 2)))
        g = CtppFunction(tri, (PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                               PlanarCoeffs(Fraction(0), Fraction(0), Fraction(0))))
        violations = validate_ctpp(g)
        assert len(violations) == 1
        v = violations[0]
        assert v.values[0] != v.values[1] and v.values[2] != v.values[3]

    def test_float_tolerance(self):
        tri = Triangulation((P(0, 0), P(1, 0), P(1, 1), P(0, 1)),
                            ((0, 1, 2), (0, 2, 3)))
        g = CtppFunction(tri, (PlanarCoeffs(1.0, 0.0, 0.0),
                               PlanarCoeffs(1.0 + 1e-12, 0.0, 0.0)))
        assert validate_ctpp(g) == []


class TestEval:
    def test_planar(self):
        g = interpolate_grid(lambda v: v.x, RECT01, 1)
        assert eval_ctpp(g, P(Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 2)

    def test_xy_interpolant_at_centre(self):
        g = interpolate_grid(lambda v: v.x * v.y, RECT01, 1)
        assert eval_ctpp(g, P(Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)
        # lower triangle carries z = y, upper z = x
        assert (g.coeffs[0].a, g.coeffs[0].b) == (0, 1)
        assert (g.coeffs[1].a, g.coeffs[1].b) == (1, 0)

    def test_pyramid_values(self):
        assert pyramid_bump(P(0, 0)) == 1
        assert pyramid_bump(P(1, Fraction(2, 3))) == 0
        assert pyramid_bump(P(Fraction(1, 2), Fraction(1, 4))) == Fraction(1, 2)

    def test_outside_raises(self):
        g = interpolate_grid(lambda v: v.x, RECT01, 1)
        with pytest.raises(PointOutsidePolygon):
            eval_ctpp(g, P(2, 2))


class TestClassify:
    def test_tags(self):
        g = interpolate_grid(lambda v: v.x, RECT01, 2)
        assert classify_point(g, P(Fraction(1, 8), Fraction(1, 16))).tag == "planar"
        mid_edge = classify_point(g, P(Fraction(1, 4), Fraction(1, 4)))
        assert mid_edge.tag == "edge" and mid_edge.triangle_count == 2
        centre = classify_point(g, P(Fraction(1, 2), Fraction(1, 2)))
        assert centre.tag == "vertex" and centre.triangle_count == 6

    def test_edge_point_on_one_shared_edge(self):
        g = interpolate_grid(lambda v: v.x, RECT01, 2)
        p = P(Fraction(1, 4), Fraction(1, 4))
        on_shared = 0
        for (i, j), _, _ in g.tri.shared_edges():
            a, b = g.tri.vertices[i], g.tri.vertices[j]
            from planevar.geom import cross
            if cross(a, b, p) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x) \
               and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                on_shared += 1
        assert on_shared == 1


class TestInterpolateGrid:
    def test_reproduces_planar_exactly(self):
        coeffs = PlanarCoeffs(Fraction(2, 3), Fraction(-1, 5), Fraction(7))
        g = interpolate_grid(lambda v: coeffs.eval(v), RECT01, 3)
        rng = random.Random(5)
        for _ in range(20):
            p = P(Fraction(rng.randint(0, 12), 12), Fraction(rng.randint(0, 12), 12))
            assert eval_ctpp(g, p) == coeffs.eval(p)

    def test_projection_property(self):
        g = interpolate_grid(lambda v: v.x * v.y, RECT01, 3)
        again = interpolate_grid(lambda v: eval_ctpp(g, v), RECT01, 3)
        assert all((a.a, a.b, a.c) == (b.a, b.b, b.c)
                   for a, b in zip(g.coeffs, again.coeffs))

    def test_oracle_missing_vertex(self):
        from planevar.ctpp import OracleMissingVertex
        with pytest.raises(OracleMissingVertex):
            interpolate_grid({P(0, 0): Fraction(1)}, RECT01, 1)

    def test_mapping_oracle_is_read_once_per_vertex(self):
        from planevar.ctpp import OracleMissingVertex
        reads = []

        class Table(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                reads.append(key)
                return super().__contains__(key)

        tri = grid_triangulation(RECT01, 3)
        table = Table((v, v.x - 2 * v.y) for v in tri.vertices)
        assert interpolate_grid(table, RECT01, 3) == interpolate_grid(lambda v: v.x - 2 * v.y, RECT01, 3)
        assert reads == list(tri.vertices)
        del table[tri.vertices[5]]
        with pytest.raises(OracleMissingVertex) as info:
            interpolate_grid(table, RECT01, 3)
        assert str(info.value) == f"oracle missing vertex {tri.vertices[5]}"

    def test_c1_error_bound_small(self):
        # measured sup error within the modulus of f at the cell diameter scale
        n = 8
        g = interpolate_grid(lambda v: math.sin(float(v.x)) * math.cos(float(v.y)),
                             RECT01, n)
        rng = random.Random(9)
        worst = 0.0
        for _ in range(300):
            x = Fraction(rng.randint(0, 64), 64)
            y = Fraction(rng.randint(0, 64), 64)
            err = abs(float(eval_ctpp(g, P(x, y)))
                      - math.sin(float(x)) * math.cos(float(y)))
            worst = max(worst, err)
        diam = math.sqrt(2) / n
        assert worst <= diam  # coarse sanity; the acceptance suite is sharp


class TestExtend:
    def test_planar_extension_agrees_on_carrier(self):
        g = interpolate_grid(lambda v: v.x, RECT01, 1)
        ext = extend_to_polygon(g, Polygon((P(-1, -1), P(2, -1), P(2, 2), P(-1, 2))))
        assert validate_ctpp(ext) == []
        rng = random.Random(3)
        for _ in range(25):
            p = P(Fraction(rng.randint(0, 8), 8), Fraction(rng.randint(0, 8), 8))
            assert eval_ctpp(ext, p) == p.x
        assert sum(ext.tri.triangle(i).area() for i in range(len(ext.tri.triangles))) == 9

    def test_xy_extension_valid(self):
        g = interpolate_grid(lambda v: v.x * v.y, RECT01, 1)
        ext = extend_to_polygon(g, Polygon((P(0, 0), P(2, 0), P(2, 1), P(0, 1))))
        assert validate_ctpp(ext) == []
        assert sum(ext.tri.triangle(i).area() for i in range(len(ext.tri.triangles))) == 2

    def test_variation_witness_replay(self):
        g = interpolate_grid(lambda v: v.x * v.y, RECT01, 1)
        ext = extend_to_polygon(g, Polygon((P(-1, -1), P(2, -1), P(2, 2), P(-1, 2))))
        pts = tuple(P(Fraction(i, 2), Fraction(j, 2)) for i in range(3)
                    for j in range(3))
        on_g = _sample(g, pts)
        on_ext = _sample(ext, pts)
        assert on_g.values == on_ext.values
        assert var_exact_small(on_g.restrict(pts[:6]), 4).value == \
            var_exact_small(on_ext.restrict(pts[:6]), 4).value

    def test_nonconvex_target_rejected(self):
        from planevar.ctpp import NotContainable
        g = interpolate_grid(lambda v: v.x, RECT01, 1)
        hook = Polygon((P(-2, -2), P(3, -2), P(3, 3), P(2, 3), P(2, -1), P(-2, -1)))
        with pytest.raises(NotContainable):
            extend_to_polygon(g, hook)

    @pytest.mark.parametrize("tri", [
        # two disjoint triangles
        Triangulation((P(0, 0), P(1, 0), P(0, 1), P(5, 5), P(6, 5), P(5, 6)),
                      ((0, 1, 2), (3, 4, 5))),
        # the square [0, 3]^2 with the hole [1, 2]^2
        Triangulation((P(0, 0), P(3, 0), P(3, 3), P(0, 3), P(1, 1), P(2, 1), P(2, 2), P(1, 2)),
                      ((0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
                       (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7))),
    ], ids=["two-triangles", "hole"])
    def test_carrier_with_two_boundary_rings_rejected(self, tri):
        """Every boundary vertex has two boundary neighbours, so the walk closes
        on one ring; the extension must not fill the target around it."""
        g = CtppFunction(tri, (PlanarCoeffs(Fraction(0), Fraction(0), Fraction(0)),)
                         * len(tri.triangles))
        with pytest.raises(CtppError, match="^boundary is not a single closed ring$"):
            boundary_ring(tri)
        with pytest.raises(CtppError, match="^boundary is not a single closed ring$"):
            extend_to_polygon(g, Polygon((P(-1, -1), P(8, -1), P(8, 8), P(-1, 8))))


class TestStarPlanar:
    def _abs_sample(self):
        pts = tuple(P(Fraction(i, 2) - 1, Fraction(j, 2) - 1)
                    for j in range(5) for i in range(5))
        return SampledFunction(pts, tuple(abs(p.x) for p in pts))

    def test_absolute_value_bound(self):
        f = self._abs_sample()     # |x|: -x and x on the two sectors of the rays (0, 1), (0, -1)
        bound = _star_planar_bound(f, 2)
        assert bound == 4
        est = var_search(f, SearchConfig(iters=1500, restarts=4, seed=0))
        assert est.value <= bound
        assert est.value >= 2  # the tent's one-dimensional variation

    def test_constant(self):
        pts = tuple(P(Fraction(i) - 1, Fraction(j) - 1) for j in range(3)
                    for i in range(3))
        f = SampledFunction(pts, (Fraction(2),) * 9)
        assert _star_planar_bound(f, 2) == 0
        assert var_search(f, SearchConfig(iters=300, restarts=2, seed=0)).value == 0

    def test_planar_two_rays_slack(self):
        pts = tuple(P(Fraction(i) - 1, Fraction(j) - 1) for j in range(3)
                    for i in range(3))
        c = PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0))
        f = SampledFunction(pts, tuple(c.eval(p) for p in pts))
        bound = _star_planar_bound(f, 2)
        assert bound == 4 * 2  # 2n * (max - min) with n = 2
        assert var_search(f, SearchConfig(iters=300, restarts=2, seed=0)).value <= bound


class TestBumps:
    def test_plateau_norm_three(self):
        for s, d in ((Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1, 2))):
            b = make_bumps(BumpSpec.of(s, d))
            assert bv_norm_1d(b.g_s_function()) == 3

    def test_chi_endpoints(self):
        b = make_bumps(BumpSpec.of(Fraction(1, 2), Fraction(1)))
        assert b.g_s(0) * b.g_s(0) == 0     # the product bump chi(x, y) = g_s(x) g_s(y)
        assert b.g_s(1) * b.g_s(1) == 1

    def test_pyramid_search_window(self):
        pc = pyramid_ctpp()
        pts = tuple(P(Fraction(i, 2) - 1, Fraction(j, 2) - 1)
                    for j in range(5) for i in range(5))
        f = _sample(pc, pts)
        est = var_search(f, SearchConfig(iters=3000, restarts=4, seed=0))
        assert 2 <= est.value <= 4
        assert est.stats["max_objective_seen"] <= 4

    def test_bad_spec(self):
        with pytest.raises(BadSpec):
            BumpSpec.of(2, 1)

    def test_chi_product_norm_bound(self):
        # chi = g_s(x) g_s(y): variation estimates never exceed the algebra
        # bound |chi|_BV <= |g_s|_BV^2 = 9, i.e. var <= 9 - sup = 8
        b = make_bumps(BumpSpec.of(Fraction(1, 2), Fraction(1)))
        xs = b.g_s_breakpoints()
        pts = tuple(P(x, y) for x in xs for y in xs)
        f = SampledFunction(pts, tuple(b.g_s(p.x) * b.g_s(p.y) for p in pts))
        est = var_search(f, SearchConfig(iters=4000, restarts=4, seed=2))
        assert est.stats["max_objective_seen"] <= 8 + 1e-9
        assert float(est.value) + float(max(f.values)) <= 9 + 1e-9


class TestTriangleBound:
    def test_all_constructions_obey_gradient_bound(self):
        funcs = [
            pyramid_ctpp(),
            interpolate_grid(lambda v: v.x * v.y, RECT01, 3),
            interpolate_grid(lambda v: math.sin(float(v.x)) + float(v.y) ** 2,
                             RECT01, 2),
        ]
        for g in funcs:
            rep = triangle_lipschitz_report(g)
            assert all(r.ok for r in rep)

    def test_lip_and_bv_chain(self):
        g = interpolate_grid(lambda v: v.x * v.y, RECT01, 2)
        pts = tuple(P(Fraction(i, 4), Fraction(j, 4)) for i in range(5)
                    for j in range(5))
        sample = _sample(g, pts)
        r_min = min(float(inradius(g.tri.triangle(i)).lo)
                    for i in range(len(g.tri.triangles)))
        sup = max(abs(complex(v)) for v in sample.values)
        lip = _lipschitz(sample)
        assert lip <= 2 * sup / r_min + 1e-9
        est = var_search(sample, SearchConfig(iters=1000, restarts=2, seed=0))
        diam = math.sqrt(float(max(dist_sq(a, b) for a in sample.points for b in sample.points)))
        assert float(est.value) <= diam * lip + 1e-9

    @pytest.mark.parametrize("thin_first", [True, False])
    def test_radius_cache_tells_apart_triangles_with_equal_coordinates(self, thin_first):
        """Both triangles use the coordinates 0..5 once each, inradii 0.0998 and 0.592."""
        thin = (P(0, 2), P(1, 3), P(4, 5))
        fat = (P(0, 1), P(2, 5), P(3, 4))
        # 0 on the thin triangle's long side, 1 at (1, 3): the steepest plane it allows
        steep = solve_plane(*thin, Fraction(0), Fraction(1), Fraction(0))
        flat = PlanarCoeffs(Fraction(0), Fraction(0), Fraction(1))
        order = [(thin, steep), (fat, flat)]
        if not thin_first:
            order.reverse()
        verts = tuple(v for tri, _ in order for v in tri)
        g = CtppFunction(tri=Triangulation(verts, ((0, 1, 2), (3, 4, 5))),
                         coeffs=tuple(c for _, c in order))
        assert [r.ok for r in triangle_lipschitz_report(g)] == [True, True]
        alone = CtppFunction(tri=Triangulation(thin, ((0, 1, 2),)), coeffs=(steep,))
        assert [r.ok for r in triangle_lipschitz_report(alone)] == [True]


def test_vector_space_closure_lazy_sum():
    g1 = interpolate_grid(lambda v: v.x, RECT01, 2)
    g2 = interpolate_grid(lambda v: v.x * v.y, RECT01, 2)
    s = CtppSum((g1, g2))
    rng = random.Random(1)
    for _ in range(25):
        p = P(Fraction(rng.randint(0, 12), 12), Fraction(rng.randint(0, 12), 12))
        assert s.eval(p) == eval_ctpp(g1, p) + eval_ctpp(g2, p)


def test_solve_plane_roundtrip():
    c = solve_plane(P(0, 0), P(1, 0), P(0, 1), Fraction(1), Fraction(0), Fraction(0))
    assert (c.a, c.b, c.c) == (-1, -1, 1)


# --- closed-form grid planes and the first-owner map ----------------------------

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
exact_values = st.one_of(st.integers(-10**6, 10**6),
                         st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)))


@st.composite
def grid_rectangles(draw):
    x0, y0 = draw(rationals), draw(rationals)
    width, height = (draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)))
                     for _ in range(2))
    return Rectangle(x0, x0 + width, y0, y0 + height)


@settings(max_examples=60, deadline=None)
@given(grid_rectangles(), st.integers(1, 6), st.data())
def test_exact_interpolate_grid_equals_solve_plane(rect, n, data):
    values = data.draw(st.lists(exact_values, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    v = grid_triangulation(rect, n).vertices
    g = interpolate_grid(dict(zip(v, values)), rect, n)
    assert g.tri.vertices == v
    for t_idx, (i, j, k) in enumerate(g.tri.triangles):
        want = solve_plane(v[i], v[j], v[k], values[i], values[j], values[k])
        got = g.coeffs[t_idx]
        assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
        assert all(type(c) is Fraction for c in (got.a, got.b, got.c))


@functools.cache
def _extension():
    g = interpolate_grid(lambda v: v.x * v.y - v.y / 3, RECT01, 2)
    return extend_to_polygon(g, Polygon((P(Fraction(-1, 3), Fraction(-2, 5)),
                                         P(Fraction(7, 4), Fraction(-1, 2)),
                                         P(2, Fraction(9, 7)),
                                         P(Fraction(-1, 2), Fraction(5, 3)))))


@pytest.mark.parametrize("make", [lambda: interpolate_grid(lambda v: v.x - v.y, RECT01, 3),
                                  pyramid_ctpp, _extension],
                         ids=["grid", "pyramid", "extension"])
def test_first_owner_map_equals_the_triangle_scan(make):
    g = make()
    for vid in range(len(g.tri.vertices)):
        owner = next(t for t, tri in enumerate(g.tri.triangles) if vid in tri)
        assert g._first_owner[vid] == owner
        assert g.vertex_value(vid) == g.coeffs[owner].eval(g.tri.vertices[vid])


def test_vertex_in_no_triangle_is_an_error():
    tri = Triangulation((P(0, 0), P(1, 0), P(0, 1), P(5, 5)), ((0, 1, 2),))
    g = CtppFunction(tri, (PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),))
    assert g.vertex_value(1) == 1
    with pytest.raises(CtppError, match="vertex 3 belongs to no triangle"):
        g.vertex_value(3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pyramid", "extension"]), st.data())
def test_eval_ctpp_uses_the_first_containing_triangle(name, data):
    g = {"pyramid": pyramid_ctpp, "extension": _extension}[name]()
    a, b, c = (g.tri.vertices[i] for i in data.draw(st.sampled_from(g.tri.triangles)))
    w = [data.draw(st.integers(0, 6)) for _ in range(3)]   # vertices, edges and interiors
    if sum(w) == 0:
        w[0] = 1
    p = P((w[0] * a.x + w[1] * b.x + w[2] * c.x) / sum(w),
          (w[0] * a.y + w[1] * b.y + w[2] * c.y) / sum(w))
    first = next(t for t in range(len(g.tri.triangles)) if g.tri.triangle(t).contains(p))
    assert eval_ctpp(g, p) == g.coeffs[first].eval(p)


_HUGE = 10**400     # an exact integer past the float range


def _huge_beside_a_float(n_pieces: int, coeffs: PlanarCoeffs) -> CtppFunction:
    vertices = (P(0, 0), P(1, 0), P(0, 1), P(1, 1))
    triangles = ((0, 1, 2), (1, 3, 2))[:n_pieces]
    return CtppFunction(Triangulation(vertices, triangles), (coeffs,) * n_pieces)


_FLOAT_PIECE = PlanarCoeffs(1.5, 0, _HUGE)
_OVERFLOW_CALLS = {
    "eval_ctpp": lambda: eval_ctpp(_huge_beside_a_float(2, _FLOAT_PIECE), P(0, 0)),
    "validate_ctpp": lambda: validate_ctpp(_huge_beside_a_float(2, _FLOAT_PIECE)),
    "extend_to_polygon": lambda: extend_to_polygon(_huge_beside_a_float(2, _FLOAT_PIECE),
                                                   Polygon((P(0, 0), P(2, 0), P(0, 2)))),
    "solve_plane": lambda: interpolate_grid(
        dict(zip((P(0, 0), P(1, 0), P(0, 1), P(1, 1)), (1.5, 2, _HUGE, 3))), RECT01, 1),
    "match_points": lambda: match_points(
        SampledFunction((P(Fraction(1, 4), Fraction(1, 4)), P(1, 0)), (_HUGE, 0.5)),
        _huge_beside_a_float(1, PlanarCoeffs(0, 0, _HUGE)),
        (P(Fraction(1, 4), Fraction(1, 4)),), Fraction(1, 8)),
    "ctpp_svg": lambda: ctpp_svg(_huge_beside_a_float(1, _FLOAT_PIECE), []),
    "ctpp_svg_vertex": lambda: ctpp_svg(CtppFunction(
        Triangulation((P(0, 0), P(_HUGE, 0), P(0, 1)), ((0, 1, 2),)), (PlanarCoeffs(0, 0, 1),)),
        []),
}


@pytest.mark.parametrize("name", _OVERFLOW_CALLS)
def test_huge_integer_beside_a_float_is_a_typed_error_for_library_callers(name):
    """A float meeting an exact value past the float range raises VariationError, as
    ``variation._on_floats`` does, not a bare OverflowError."""
    with pytest.raises(VariationError, match="^values overflow floating point: "):
        _OVERFLOW_CALLS[name]()


def _validate_ctpp_fraction_oracle(g: CtppFunction) -> list:
    """``validate_ctpp`` as it was before the integer path: every shared edge
    evaluates both pieces at both endpoints and compares with ``values_agree``."""
    out = []
    for (i, j), t1, t2 in g.tri.shared_edges():
        pa, pb = g.tri.vertices[i], g.tri.vertices[j]
        c1, c2 = g.coeffs[t1], g.coeffs[t2]
        va1, va2 = c1.eval(pa), c2.eval(pa)
        vb1, vb2 = c1.eval(pb), c2.eval(pb)
        if not (values_agree(va1, va2) and values_agree(vb1, vb2)):
            out.append(EdgeViolation(edge=(i, j), triangles=(t1, t2),
                                     values=(va1, va2, vb1, vb2)))
    return out


_EAR_POLYGONS = (
    Polygon((P(0, 0), P(4, 0), P(4, 3), P(2, 1), P(Fraction(3, 2), 4), P(0, 3),
             P(-1, Fraction(3, 2)))),
    Polygon((P(0, 0), P(Fraction(5, 3), 0), P(3, Fraction(1, 7)), P(Fraction(5, 2), 2),
             P(1, Fraction(3, 2)), P(Fraction(1, 2), 3), P(Fraction(-1, 3), 2))),
)


@st.composite
def _perturbed_ctpps(draw):
    """A continuous piecewise-planar function with one or more pieces changed.

    The base is the interpolant of vertex values on a grid or an ear-clipped
    polygon. Each change adds a multiple of the piece's edge function through
    two of its vertices, so it may leave that edge valid and break the others.
    ``kind`` picks the coefficient types: Fractions, ints (one integer plane),
    exact pieces beside float ones, or complex pieces.
    """
    if draw(st.booleans()):
        x0, y0 = draw(rationals), draw(rationals)
        w, h = (draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 7))) for _ in range(2))
        tri = grid_triangulation(Rectangle(x0, x0 + w, y0, y0 + h), draw(st.integers(1, 4)))
    else:
        tri = _ear_clip(draw(st.sampled_from(_EAR_POLYGONS)))
    kind = draw(st.sampled_from(["exact", "int", "mixed", "complex"]))
    if kind == "int":
        a, b, c = (draw(st.integers(-9, 9)) for _ in range(3))
        coeffs = [PlanarCoeffs(a, b, c) for _ in tri.triangles]
    else:
        z = [draw(rationals) for _ in tri.vertices]
        coeffs = [solve_plane(tri.vertices[i], tri.vertices[j], tri.vertices[k],
                              z[i], z[j], z[k]) for i, j, k in tri.triangles]
    # with s a multiple of L^2, L the vertices' common denominator, the change is integral
    lift = math.lcm(*(c.denominator for v in tri.vertices for c in v)) ** 2
    for t in draw(st.lists(st.integers(0, len(tri.triangles) - 1), min_size=1, max_size=3)):
        i, j, _ = tri.triangles[t]
        va, vb = tri.vertices[i], tri.vertices[j]
        s = draw(st.integers(-3, 3)) * lift if kind == "int" else draw(rationals)
        da, db = s * (va.y - vb.y), s * (vb.x - va.x)
        dc = -(da * va.x + db * va.y)     # s * cross(va, vb, .) vanishes on the edge
        if kind == "int":
            assert da.denominator == db.denominator == dc.denominator == 1
            da, db, dc = int(da), int(db), int(dc)
        c0 = coeffs[t]
        coeffs[t] = PlanarCoeffs(c0.a + da, c0.b + db, c0.c + dc)
    if kind == "mixed":
        for t in draw(st.lists(st.integers(0, len(coeffs) - 1), max_size=3)):
            coeffs[t] = PlanarCoeffs(*(float(v) for v in (coeffs[t].a, coeffs[t].b, coeffs[t].c)))
    if kind == "complex":
        for t in draw(st.lists(st.integers(0, len(coeffs) - 1), min_size=1, max_size=3)):
            c0 = coeffs[t]
            coeffs[t] = PlanarCoeffs(complex(c0.a), complex(c0.b), complex(c0.c, draw(
                st.sampled_from([0.0, 1e-12, 0.5]))))
    return CtppFunction(tri, tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(_perturbed_ctpps())
def test_validate_ctpp_matches_the_fraction_oracle(g):
    got, want = validate_ctpp(g), _validate_ctpp_fraction_oracle(g)
    assert got == want
    assert [tuple(map(repr, v.values)) for v in got] == [tuple(map(repr, v.values)) for v in want]


def test_validate_ctpp_reports_a_broken_piece_on_the_integer_path():
    tri = _ear_clip(_EAR_POLYGONS[0])
    z = [Fraction(k * k, 3) for k in range(len(tri.vertices))]
    coeffs = [solve_plane(tri.vertices[i], tri.vertices[j], tri.vertices[k], z[i], z[j], z[k])
              for i, j, k in tri.triangles]
    assert validate_ctpp(CtppFunction(tri, tuple(coeffs))) == []
    coeffs[2] = PlanarCoeffs(coeffs[2].a, coeffs[2].b, coeffs[2].c + Fraction(1, 5))
    g = CtppFunction(tri, tuple(coeffs))
    got = validate_ctpp(g)
    assert [(v.edge, v.triangles) for v in got] == [((1, 6), (0, 2)), ((1, 3), (1, 2)),
                                                   ((3, 6), (2, 3))]
    assert got == _validate_ctpp_fraction_oracle(g)


def _scaled_bump_reference(bump: ScaledBump, p: Point2):
    """``ScaledBump.eval`` before it tested the square: scale, then the pyramid."""
    q = Point2((p.x - bump.centre.x) / bump.delta, (p.y - bump.centre.y) / bump.delta)
    return bump.coef * pyramid_bump(q)


_BUMP_COEFS = st.one_of(st.fractions(), st.integers(-9, 9), st.floats(),
                        st.sampled_from([0.0, -0.0, 2.5, -2.5, 0, Fraction(-3, 7)]),
                        st.complex_numbers(), st.sampled_from([-1.5 + 2j, -0.0 - 0.0j, 0j]))
# offsets from the centre in units of delta: inside, on the boundary and outside
_BUMP_STEPS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                         Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), 2]),
                        st.fractions(-3, 3))


@settings(max_examples=400, deadline=None)
@given(st.fractions(-4, 4), st.fractions(-4, 4), st.fractions(Fraction(1, 50), 3),
       _BUMP_COEFS, _BUMP_STEPS, _BUMP_STEPS)
def test_scaled_bump_equals_the_scaled_pyramid(cx, cy, delta, coef, sx, sy):
    bump = ScaledBump(Point2(cx, cy), delta, coef)
    p = Point2(cx + sx * delta, cy + sy * delta)
    assert repr(bump.eval(p)) == repr(_scaled_bump_reference(bump, p))


def test_scaled_bump_keeps_the_type_and_sign_of_zero():
    centre = P(Fraction(1, 3), 2)
    for p in (P(Fraction(1, 3) + Fraction(1, 4), 2), P(0, Fraction(9, 4)), P(5, 5)):
        for coef in (Fraction(2, 3), 4, 2.5, -2.5, -1.5 + 2j, -0.0):
            bump = ScaledBump(centre, Fraction(1, 4), coef)
            got, want = bump.eval(p), _scaled_bump_reference(bump, p)
            assert (type(got), repr(got)) == (type(want), repr(want))
    assert repr(ScaledBump(centre, Fraction(1, 4), -2.5).eval(P(5, 5))) == "-0.0"


def test_match_sample_evaluates_a_bump_only_strictly_inside_its_square(monkeypatch):
    from planevar import ctpp
    g0 = interpolate_grid(lambda v: v.x * v.y, RECT01, 2)
    grid = tuple(P(Fraction(i, 6), Fraction(j, 6)) for j in range(7) for i in range(7))
    f = SampledFunction(grid, tuple(Fraction((5 * k) % 7 - 3, 4) for k in range(len(grid))))
    centres = (P(0, 0), P(Fraction(2, 3), Fraction(2, 3)), P(0, 1), P(1, 0))
    delta = Fraction(1, 3)
    g, _ = match_points(f, g0, centres, delta)
    seen = []

    def spy(q):
        seen.append(q)
        return pyramid_bump(q)
    monkeypatch.setattr(ctpp, "pyramid_bump", spy)
    sample = g.sample(grid)
    inside = [P((p.x - c.x) / delta, (p.y - c.y) / delta) for p in grid for c in centres
              if abs(p.x - c.x) < delta and abs(p.y - c.y) < delta]
    assert seen == inside and len(seen) == 9 + 3 * 4
    monkeypatch.undo()
    assert sample == SampledFunction(grid, tuple(
        g0.eval(p) + sum(_scaled_bump_reference(b, p) for b in g.terms[1:]) for p in grid))
