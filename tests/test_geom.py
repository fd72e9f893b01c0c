"""Geometry primitive tests: exact predicates, ear clipping, grid triangulations."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planevar.geom import (
    DegenerateTriangle,
    GeomError,
    Line,
    NotSimple,
    P,
    Point2,
    Polygon,
    Rectangle,
    Side,
    Triangle,
    Triangulation,
    _ear_clip_indices,
    cross,
    dist_sq,
    grid_triangulation,
    inradius,
    shoelace_area,
    side_of,
)


def _line_through(p, q) -> Line:
    """The line through two distinct points, in ``Line.from_coeffs``' canonical form."""
    a, b = q.y - p.y, p.x - q.x
    return Line.from_coeffs(a, b, a * p.x + b * p.y)


def _ear_clip(polygon: Polygon) -> Triangulation:
    """The polygon's triangulation by the ear clipping that ``extend_to_polygon`` runs."""
    return _ear_clip_indices(list(polygon.vertices), range(len(polygon.vertices)))


def rand_point(rng, span=10, den=12):
    return P(Fraction(rng.randint(-span * den, span * den), den),
             Fraction(rng.randint(-span * den, span * den), den))


def _total_area(tri: Triangulation) -> Fraction:
    return sum((tri.triangle(i).area() for i in range(len(tri.triangles))), Fraction(0))


def _contains_interior(t: Triangle, p: Point2) -> bool:
    s = [cross(t.v0, t.v1, p), cross(t.v1, t.v2, p), cross(t.v2, t.v0, p)]
    return all(v > 0 for v in s) or all(v < 0 for v in s)


def _triangles_overlap(t1: Triangle, t2: Triangle) -> bool:
    """Interiors intersect (exact); a shared edge or vertex does not count."""
    if any(_contains_interior(t2, p) for p in t1.vertices) or \
            any(_contains_interior(t1, p) for p in t2.vertices):
        return True
    for a1, a2 in zip(t1.vertices, t1.vertices[1:] + t1.vertices[:1]):
        for b1, b2 in zip(t2.vertices, t2.vertices[1:] + t2.vertices[:1]):
            if cross(b1, b2, a1) * cross(b1, b2, a2) < 0 and \
                    cross(a1, a2, b1) * cross(a1, a2, b2) < 0:
                return True
    return set(t1.vertices) == set(t2.vertices)    # identical, with no strict crossing


def _assert_interiors_disjoint(tri: Triangulation) -> None:
    """Ear clipping's oracle: no two triangles share interior points (quadratic scan)."""
    tris = [tri.triangle(i) for i in range(len(tri.triangles))]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            assert not _triangles_overlap(tris[i], tris[j]), f"triangles {i} and {j} overlap"


class TestSideOf:
    def test_point_on_vertical_axis(self):
        line = Line.from_coeffs(1, 0, 0)  # x = 0
        assert side_of(line, P(0, 5)) is Side.ON

    def test_opposite_strict_sides(self):
        line = Line.from_coeffs(1, 0, Fraction(1, 2))  # x = 1/2
        assert side_of(line, P(0, 0)) is Side.LEFT
        assert side_of(line, P(1, 0)) is Side.RIGHT

    def test_diagonal_sign(self):
        # hand cross product: (1,0) is right of the line through (0,0),(1,1)
        line = _line_through(P(0, 0), P(1, 1))
        assert side_of(line, P(1, 0)) is Side.RIGHT
        assert side_of(line, P(0, 1)) is Side.LEFT

class TestLineThrough:
    """``Line.from_coeffs`` puts the line through two points in canonical form."""

    def test_horizontal(self):
        assert _line_through(P(0, 0), P(1, 0)) == Line(0, 1, 0)

    def test_vertical(self):
        assert _line_through(P(0, 0), P(0, 1)) == Line(1, 0, 0)

    def test_general_residuals_vanish(self):
        line = _line_through(P(0, 0), P(2, 1))
        assert line == Line(1, -2, 0)  # x - 2y = 0
        assert line.residual(P(0, 0)) == 0
        assert line.residual(P(2, 1)) == 0

    def test_coincident_raises(self):
        # two equal points give a = b = 0, the degenerate line from_coeffs refuses
        with pytest.raises(GeomError, match="^degenerate line: a = b = 0$"):
            _line_through(P(1, 2), P(1, 2))

    def test_canonical_equality(self):
        assert Line.from_coeffs(2, -4, 6) == Line.from_coeffs(-1, 2, -3)
        assert Line.from_coeffs(Fraction(1, 3), 0, 1) == Line(1, 0, 3)


class TestInradius:
    def test_right_triangle_3_4_5(self):
        r = inradius(Triangle(P(0, 0), P(3, 0), P(0, 4)))
        assert r.exact == 1

    def test_equilateral_side_2(self):
        # no rational-coordinate equilateral exists; take the rational triangle
        # whose apex height is the exact binary float closest to sqrt(3), for
        # which r = area/s agrees with 1/sqrt(3) to ~1e-16
        h = Fraction(math.sqrt(3))
        r = inradius(Triangle(P(0, 0), P(2, 0), P(1, h)))
        assert r.exact is None and r.hi - r.lo < Fraction(1, 10**12)
        assert abs(float(r) - math.sqrt(3) / 3) < 1e-9

    def test_unit_right_isoceles(self):
        r = inradius(Triangle(P(0, 0), P(1, 0), P(0, 1)))
        expected = (2 - math.sqrt(2)) / 2
        assert r.exact is None
        assert r.hi - r.lo < Fraction(1, 10**12)
        assert abs(float(r) - expected) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            Triangle(P(0, 0), P(1, 1), P(2, 2))

    def test_inradius_at_most_half_diameter(self):
        rng = random.Random(3)
        for _ in range(60):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                t = Triangle(*pts)
            except DegenerateTriangle:
                continue
            r = inradius(t)
            # r <= diam/2 checked as r_hi^2 <= diam_sq / 4 exactly
            assert r.hi ** 2 <= max(dist_sq(a, b) for a in t.vertices for b in t.vertices) / 4


class TestEarClip:
    def test_unit_square(self):
        tri = _ear_clip(Polygon((P(0, 0), P(1, 0), P(1, 1), P(0, 1))))
        assert len(tri.triangles) == 2
        assert _total_area(tri) == 1

    def test_convex_pentagon(self):
        poly = Polygon((P(0, 0), P(2, 0), P(3, 2), P(1, 4), P(-1, 2)))
        tri = _ear_clip(poly)
        assert len(tri.triangles) == 3
        assert _total_area(tri) == shoelace_area(poly.vertices)
        _assert_interiors_disjoint(tri)

    def test_l_shaped_hexagon(self):
        poly = Polygon((P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)))
        tri = _ear_clip(poly)
        assert len(tri.triangles) == 4
        assert _total_area(tri) == 3
        _assert_interiors_disjoint(tri)

    def test_collinear_boundary_vertex(self):
        poly = Polygon((P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)))
        tri = _ear_clip(poly)
        assert _total_area(tri) == 4
        _assert_interiors_disjoint(tri)

    def test_not_simple_raises(self):
        with pytest.raises(NotSimple):
            Polygon((P(0, 0), P(3, 0), P(1, 2), P(2, -1)))  # edge 2 crosses edge 0

    def test_random_polygons_area_exact(self):
        rng = random.Random(11)
        for _ in range(20):
            # star-shaped polygon around the origin: sort random points by angle
            pts = []
            for k in range(rng.randint(4, 9)):
                ang = 2 * math.pi * k / 9 + rng.random() * 0.3
                rad = 1 + rng.random() * 3
                pts.append(P(Fraction(round(rad * math.cos(ang) * 8), 8),
                             Fraction(round(rad * math.sin(ang) * 8), 8)))
            uniq = []
            for p in pts:
                if p not in uniq:
                    uniq.append(p)
            if len(uniq) < 3:
                continue
            try:
                poly = Polygon(tuple(uniq))
            except Exception:
                continue
            tri = _ear_clip(poly)
            assert _total_area(tri) == shoelace_area(poly.vertices)
            _assert_interiors_disjoint(tri)


def test_adjacency_keeps_its_insertion_order_on_an_ear_clipped_polygon():
    """Edges enter ``adjacency`` as (i, j), (j, k), (k, i) of each triangle in order;
    ``shared_edges``, ``boundary_edges`` and the order of continuity violations
    follow it. Pinned from the min/max-key build."""
    poly = Polygon((P(0, 0), P(4, 0), P(4, 3), P(2, 1), P(Fraction(3, 2), 4), P(0, 3),
                    P(-1, Fraction(3, 2))))
    tri = _ear_clip(poly)
    assert tri.triangles == ((6, 0, 1), (1, 2, 3), (6, 1, 3), (6, 3, 4), (4, 5, 6))
    assert list(tri.adjacency.items()) == [
        ((0, 6), [0]), ((0, 1), [0]), ((1, 6), [0, 2]), ((1, 2), [1]), ((2, 3), [1]),
        ((1, 3), [1, 2]), ((3, 6), [2, 3]), ((3, 4), [3]), ((4, 6), [3, 4]), ((4, 5), [4]),
        ((5, 6), [4])]
    assert tri.shared_edges() == [((1, 6), 0, 2), ((1, 3), 1, 2), ((3, 6), 2, 3),
                                  ((4, 6), 3, 4)]


class TestGridTriangulation:
    def test_unit_square_n1(self):
        tri = grid_triangulation(Rectangle.of(0, 1, 0, 1), 1)
        assert len(tri.triangles) == 2
        shared = tri.shared_edges()
        assert len(shared) == 1
        (i, j), _, _ = shared[0]
        ends = {tri.vertices[i], tri.vertices[j]}
        assert ends == {P(0, 0), P(1, 1)}  # diagonal as drawn

    def test_unit_square_n4_counts(self):
        tri = grid_triangulation(Rectangle.of(0, 1, 0, 1), 4)
        assert len(tri.triangles) == 32
        assert len(tri.vertices) == 25

    def test_n3_diameter(self):
        tri = grid_triangulation(Rectangle.of(0, 1, 0, 1), 3)
        for idx in range(len(tri.triangles)):
            t = tri.triangle(idx)
            assert max(dist_sq(a, b) for a in t.vertices for b in t.vertices) == Fraction(2, 9)
        assert Fraction(2, 9) < Fraction(1, 4)  # < delta^2 for delta = 1/2

    def test_vertices_are_grid_points_and_interior_valence(self):
        n = 4
        tri = grid_triangulation(Rectangle.of(0, 1, 0, 1), n)
        expect = {P(Fraction(i, n), Fraction(j, n)) for i in range(n + 1) for j in range(n + 1)}
        assert set(tri.vertices) == expect
        for vid, v in enumerate(tri.vertices):
            if 0 < v.x < 1 and 0 < v.y < 1:
                touching = [t for t in tri.triangles if vid in t]
                assert len(touching) == 6

    def test_total_area(self):
        tri = grid_triangulation(Rectangle.of(-1, 1, -1, 1), 5)
        assert _total_area(tri) == 4


def test_shoelace():
    square = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
    assert shoelace_area(square) == 1


def test_triangulation_rejects_overshared_edge():
    with pytest.raises(Exception):
        Triangulation((P(0, 0), P(1, 0), P(0, 1), P(1, 1), P(2, 0)),
                      ((0, 1, 2), (0, 1, 3), (0, 1, 4)))


@pytest.mark.parametrize("triangles", [((0, 1),), ((0, 1, 2, 0),), ((0, 1, 3),), ((0, 1, -1),)])
def test_triangulation_rejects_bad_index_triples(triangles):
    with pytest.raises(GeomError, match="three indices of the 3 vertices"):
        Triangulation((P(0, 0), P(1, 0), P(0, 1)), triangles)


@pytest.mark.parametrize("triangle", [(0, 1.0, 2), (0, True, 2), (0.0, 1, 2)])
def test_triangulation_refuses_indices_that_are_not_ints(triangle):
    """1.0 and True compare equal to 1 and lie in range; neither is an index."""
    with pytest.raises(GeomError, match="three indices of the 3 vertices"):
        Triangulation((P(0, 0), P(1, 0), P(0, 1)), (triangle,))


# --- point location: the integer scan against the Triangle.contains scan -------

def _scan(tri, p):
    return [idx for idx in range(len(tri.triangles)) if tri.triangle(idx).contains(p)]


def _first_scan(tri, p):
    for idx in range(len(tri.triangles)):
        if tri.triangle(idx).contains(p):
            return idx
    return None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GeomError as exc:
        return type(exc), str(exc)


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
lengths = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))


@st.composite
def grid_triangulations(draw):
    x0, y0 = draw(rationals), draw(rationals)
    rect = Rectangle(x0, x0 + draw(lengths), y0, y0 + draw(lengths))
    return grid_triangulation(rect, draw(st.integers(1, 6)))


@functools.cache
def _fixed_triangulation(name):
    from planevar.ctpp import extend_to_polygon, interpolate_grid, pyramid_ctpp
    if name == "pyramid":
        return pyramid_ctpp().tri
    g = interpolate_grid(lambda v: v.x * v.y, Rectangle.of(0, 1, 0, 1), 2)
    target = Polygon((P(Fraction(-1, 3), Fraction(-2, 5)), P(Fraction(7, 4), Fraction(-1, 2)),
                      P(2, Fraction(9, 7)), P(Fraction(-1, 2), Fraction(5, 3))))
    return extend_to_polygon(g, target).tri


triangulations = st.one_of(grid_triangulations(),
                           st.sampled_from(["pyramid", "extension"]).map(_fixed_triangulation))


@st.composite
def probes(draw, tri):
    """A vertex, a point on an edge, an inner point of a triangle, or any point
    of a box one unit wider than the triangulation."""
    kind = draw(st.sampled_from(["vertex", "edge", "inside", "box"]))
    if kind == "vertex":
        return draw(st.sampled_from(tri.vertices))
    a, b, c = (tri.vertices[i] for i in draw(st.sampled_from(tri.triangles)))
    if kind == "edge":
        t = Fraction(draw(st.integers(0, 12)), 12)
        return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    if kind == "inside":
        w = [draw(st.integers(1, 9)) for _ in range(3)]
        return Point2((w[0] * a.x + w[1] * b.x + w[2] * c.x) / sum(w),
                      (w[0] * a.y + w[1] * b.y + w[2] * c.y) / sum(w))

    def coordinate(values):
        lo, hi = math.floor(min(values)) - 1, math.ceil(max(values)) + 1
        return Fraction(draw(st.integers(42 * lo, 42 * hi)), 42)

    return Point2(coordinate([v.x for v in tri.vertices]), coordinate([v.y for v in tri.vertices]))


@settings(max_examples=150, deadline=None)
@given(triangulations, st.data())
def test_point_location_equals_contains_scan(tri, data):
    for _ in range(8):
        p = data.draw(probes(tri))
        hits = _scan(tri, p)
        assert tri.triangles_containing(p) == hits
        assert tri.first_containing(p) == (hits[0] if hits else None)


@settings(max_examples=100, deadline=None)
@given(grid_triangulations(), st.data())
def test_degenerate_triangle_raises_where_the_scan_does(base, data):
    a = data.draw(st.sampled_from(base.vertices))
    d = Point2(data.draw(rationals), data.draw(rationals))
    t = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-1, 3)]))
    collinear = (a, Point2(a.x + d.x, a.y + d.y), Point2(a.x + t * d.x, a.y + t * d.y))
    n = len(base.vertices)
    at = data.draw(st.integers(0, len(base.triangles)))
    triangles = base.triangles[:at] + ((n, n + 1, n + 2),) + base.triangles[at:]
    tri = Triangulation(base.vertices + collinear, triangles)
    for _ in range(4):
        p = data.draw(probes(base))
        assert _outcome(tri.triangles_containing, p) == _outcome(_scan, tri, p)
        assert _outcome(tri.first_containing, p) == _outcome(_first_scan, tri, p)


def test_grid_subdivision_past_the_cap_is_refused_before_any_vertex(monkeypatch):
    from planevar import geom

    def no_vertex(*args):
        raise AssertionError("a grid vertex was made")

    assert geom.MAX_GRID_SUBDIVISION == 256
    monkeypatch.setattr(geom, "Point2", no_vertex)
    with pytest.raises(GeomError, match="grid subdivision must be <= 256, got 257"):
        grid_triangulation(Rectangle.of(0, 1, 0, 1), geom.MAX_GRID_SUBDIVISION + 1)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, lengths, lengths, st.integers(1, 7))
def test_grid_vertices_are_the_stepped_corner(x0, y0, w, h, n):
    rect = Rectangle(x0, x0 + w, y0, y0 + h)
    tri = grid_triangulation(rect, n)
    assert tri.vertices == tuple(P(x0 + i * (w / n), y0 + j * (h / n))
                                 for j in range(n + 1) for i in range(n + 1))
    ints, scale = tri.vertex_lift
    assert tri.vertex_lift is tri.vertex_lift
    assert [Fraction(c, scale) for c in ints] == [c for v in tri.vertices for c in v]


class TestPointHash:
    """``Point2`` hashes on the normalised (numerator, denominator) pairs."""

    def test_equal_points_of_every_exact_type_hash_equal(self):
        import numpy as np
        ones = [1, True, Fraction(1), Fraction(2, 2), np.int64(1)]
        twos = [2, Fraction(2), Fraction(-4, -2), np.int32(2)]
        points = [Point2(x, y) for x in ones for y in twos]
        assert len({hash(p) for p in points}) == 1
        assert all(p == points[0] for p in points)
        halves = [Point2(Fraction(1, 2), Fraction(-3, 4)), Point2(Fraction(2, 4), Fraction(3, -4)),
                  P("1/2", "-3/4"), P(0.5, -0.75)]
        assert len({hash(p) for p in halves}) == 1

    def test_a_dict_keyed_by_p_finds_an_int_point(self):
        table = {P(1, 2): "a", P("1/2", 3): "b"}
        assert table[Point2(1, 2)] == "a"
        assert table[Point2(Fraction(1, 2), 3)] == "b"
        assert Point2(2, 1) not in table

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    def test_hash_agrees_with_equality(self, a, b, c, d):
        p, q = Point2(a, b), Point2(c, d)
        assert hash(p) == hash(Point2(Fraction(a.numerator, a.denominator), b))
        if p == q:
            assert hash(p) == hash(q)
        assert (p == q) == ((a, b) == (c, d))
