"""Continuous piecewise-planar functions on triangulations.

A function is piecewise planar over a triangulation when it restricts to
a*x + b*y + c on each triangle; continuity is equivalent to the two pieces of
every shared edge agreeing at the edge endpoints. This module validates and
evaluates such functions, classifies points by how many triangles contain
them, interpolates samples on grid triangulations, extends a function beyond
its polygon, and builds the standard bump constructions (plateau bump, the
pyramid).

Point location. ``eval_ctpp`` takes the plane of the lowest-index triangle
that contains the point and ``classify_point`` counts all of them. Both use
the integer scan of ``Triangulation`` ("Point location" in ``geom``).
``vertex_value`` reads the same lowest-index owner from a map built once per
function.

Integer lift ("Integer lift" in ``geom``). On exact values
``interpolate_grid`` writes each grid plane from two differences of its
cell's corner values, lifted over one common denominator, instead of solving
it, on the vertices ``grid_triangulation`` writes over the rectangle's lift.
On exact coefficients ``validate_ctpp`` tests every shared edge in plain ints
on one lift of the coefficients and the triangulation's cached vertex lift
(``Triangulation.vertex_lift``), and builds ``Fraction`` values for a
violating edge only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geom import (
    P,
    Point2,
    Polygon,
    Rectangle,
    Triangulation,
    common_denominator,
    cross,
    grid_triangulation,
    inradius,
    shoelace_area,
    to_fraction,
    _ear_clip_indices,
)
from .onedim import RealFunction1D
from .variation import (PlanarCoeffs, SampledFunction, all_exact, float_overflow, is_exact_number,
                        magnitudes, values_agree)


class CtppError(ValueError):
    pass


class PointOutsidePolygon(CtppError):
    pass


class OracleMissingVertex(CtppError):
    pass


class BadSpec(CtppError):
    pass


class NotContainable(CtppError):
    pass


def solve_plane(v0: Point2, v1: Point2, v2: Point2, z0, z1, z2) -> PlanarCoeffs:
    """Planar coefficients through three vertex values (exact for rational data)."""
    det = cross(v0, v1, v2)
    if det == 0:
        raise CtppError("degenerate triangle in plane solve")
    try:
        dz1, dz2 = z1 - z0, z2 - z0
        a = (dz1 * (v2.y - v0.y) - dz2 * (v1.y - v0.y)) / det
        b = ((v1.x - v0.x) * dz2 - (v2.x - v0.x) * dz1) / det
        c = z0 - a * v0.x - b * v0.y
    except OverflowError as exc:        # a float beside an exact value past its range
        raise float_overflow(exc) from None
    return PlanarCoeffs(a, b, c)


@dataclass(frozen=True)
class CtppFunction:
    """Triangulation plus per-triangle planar coefficients."""

    tri: Triangulation
    coeffs: tuple[PlanarCoeffs, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.tri.triangles):
            raise CtppError("one coefficient triple per triangle required")

    def eval(self, p: Point2):
        return eval_ctpp(self, p)

    def vertex_value(self, vid: int):
        """Value at a vertex from its lowest-index triangle."""
        owner = self._first_owner.get(vid)
        if owner is None:
            raise CtppError(f"vertex {vid} belongs to no triangle")
        return self.coeffs[owner].eval(self.tri.vertices[vid])

    @cached_property
    def _first_owner(self) -> dict[int, int]:
        """Vertex id -> lowest index of a triangle that has it, built on first use."""
        owners = {}
        for t_idx, tri in enumerate(self.tri.triangles):
            for vid in tri:
                owners.setdefault(vid, t_idx)
        return owners


@dataclass(frozen=True)
class CtppSum:
    """Evaluation-level sum of piecewise-planar terms (no common refinement)."""

    terms: tuple

    def eval(self, p: Point2):
        return sum(t.eval(p) for t in self.terms)

    def sample(self, points) -> SampledFunction:
        pts = tuple(points)
        return SampledFunction(pts, tuple(self.eval(p) for p in pts))


@dataclass(frozen=True)
class EdgeViolation:
    edge: tuple[int, int]
    triangles: tuple[int, int]
    values: tuple  # (va_t1, va_t2, vb_t1, vb_t2)


def validate_ctpp(g: CtppFunction) -> list[EdgeViolation]:
    """Endpoint-agreement check on every shared edge; empty list means valid.

    Exact comparison when coefficients are rational, |difference| <=
    ``FLOAT_TOL`` otherwise (``values_agree``). With every coefficient exact
    the check runs on integers: coefficients lifted to ``k`` over ``D`` and
    vertices to ``(X, Y)`` over ``L``, two pieces agree at a vertex exactly
    when ``da*X + db*Y + dc*L == 0``, (da, db, dc) the difference of their
    lifted coefficients, since that is the difference of values times D*L.
    Only a violating edge evaluates its four values.
    """
    tri, coeffs = g.tri, g.coeffs
    flat = [v for c in coeffs for v in (c.a, c.b, c.c)]
    lifted = all_exact(flat)
    if lifted:
        k, _ = common_denominator(flat)
        xy, scale = tri.vertex_lift
    out = []
    for (i, j), t1, t2 in tri.shared_edges():
        if lifted:
            u, w = 3 * t1, 3 * t2
            da, db, dc = k[u] - k[w], k[u + 1] - k[w + 1], (k[u + 2] - k[w + 2]) * scale
            if not (da * xy[2 * i] + db * xy[2 * i + 1] + dc or
                    da * xy[2 * j] + db * xy[2 * j + 1] + dc):
                continue                # the pieces agree at both endpoints
        pa, pb = tri.vertices[i], tri.vertices[j]
        c1, c2 = coeffs[t1], coeffs[t2]
        va1, va2 = c1.eval(pa), c2.eval(pa)
        vb1, vb2 = c1.eval(pb), c2.eval(pb)
        if not (values_agree(va1, va2) and values_agree(vb1, vb2)):
            out.append(EdgeViolation(edge=(i, j), triangles=(t1, t2),
                                     values=(va1, va2, vb1, vb2)))
    return out


def eval_ctpp(g: CtppFunction, p: Point2):
    """Value at p via its lowest-index containing triangle (well-defined when continuous)."""
    idx = g.tri.first_containing(p)
    if idx is None:
        raise PointOutsidePolygon(f"{p} lies in no triangle")
    return g.coeffs[idx].eval(p)


@dataclass(frozen=True)
class PointClass:
    tag: str  # planar | edge | vertex
    triangle_count: int


def classify_point(g: CtppFunction, p: Point2) -> PointClass:
    """Planar / edge / vertex classification by exact containing-triangle count."""
    count = len(g.tri.triangles_containing(p))
    if count == 0:
        raise PointOutsidePolygon(f"{p} lies in no triangle")
    tag = "planar" if count == 1 else ("edge" if count == 2 else "vertex")
    return PointClass(tag=tag, triangle_count=count)


def interpolate_grid(oracle, rect: Rectangle, n: int) -> CtppFunction:
    """Piecewise-planar interpolant matching the oracle at all grid vertices.

    ``oracle`` is a callable on Point2 or a mapping Point2 -> value.
    """
    tri = grid_triangulation(rect, n)
    if callable(oracle):
        values = [oracle(v) for v in tri.vertices]
    else:
        values = []
        for v in tri.vertices:
            try:
                values.append(oracle[v])
            except KeyError:
                raise OracleMissingVertex(f"oracle missing vertex {v}") from None
    if not all_exact(values):
        coeffs = [solve_plane(tri.vertices[i], tri.vertices[j], tri.vertices[k],
                              values[i], values[j], values[k])
                  for i, j, k in tri.triangles]
        return CtppFunction(tri=tri, coeffs=tuple(coeffs))
    # Closed-form planes over one denominator. With z = zs/q, the rectangle
    # (xm, ym, xm + wi, ym + hi)/r, w = wi/(r*n) and h = hi/(r*n), cell (i, j)
    # has corner (x0, y0) = (x, y)/(r*n) and values z00, z10, z11, z01. Its lower
    # triangle (z00, z10, z11) has a = (z10 - z00)/w and b = (z11 - z10)/h, its
    # upper triangle (z00, z11, z01) has a = (z11 - z01)/w and b = (z01 - z00)/h;
    # both have c = z00 - a*x0 - b*y0. Each coefficient is one Fraction of ints.
    zs, q = common_denominator(values)
    (xm, ym, x1, y1), r = common_denominator((rect.x_min, rect.y_min, rect.x_max, rect.y_max))
    wi, hi = x1 - xm, y1 - ym
    rn, a_den, b_den, c_den = r * n, q * wi, q * hi, q * wi * hi
    coeffs = []
    for j in range(n):
        y = ym * n + j * hi
        for i in range(n):
            x = xm * n + i * wi
            v = j * (n + 1) + i
            z00, z10 = zs[v], zs[v + 1]
            z01, z11 = zs[v + n + 1], zs[v + n + 2]
            for da, db in ((z10 - z00, z11 - z10), (z11 - z01, z01 - z00)):
                c = Fraction(z00 * wi * hi - da * x * hi - db * y * wi, c_den)
                coeffs.append(PlanarCoeffs(Fraction(da * rn, a_den), Fraction(db * rn, b_den), c))
    return CtppFunction(tri=tri, coeffs=tuple(coeffs))


def grid_vertex_matrix(g: CtppFunction, n: int) -> np.ndarray:
    """(n+1, n+1) float matrix of vertex values of a grid interpolant."""
    vals = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        for i in range(n + 1):
            vid = j * (n + 1) + i
            vals[j, i] = float(g.vertex_value(vid))
    return vals


def grid_interpolant_values(rect: Rectangle, n: int, vertex_vals: np.ndarray,
                            X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation of a grid interpolant at query arrays X, Y."""
    x0, x1 = float(rect.x_min), float(rect.x_max)
    y0, y1 = float(rect.y_min), float(rect.y_max)
    u = (X - x0) / (x1 - x0) * n
    v = (Y - y0) / (y1 - y0) * n
    i = np.clip(np.floor(u).astype(int), 0, n - 1)
    j = np.clip(np.floor(v).astype(int), 0, n - 1)
    fu = u - i
    fv = v - j
    z00 = vertex_vals[j, i]
    z10 = vertex_vals[j, i + 1]
    z11 = vertex_vals[j + 1, i + 1]
    z01 = vertex_vals[j + 1, i]
    lower = z00 + fu * (z10 - z00) + fv * (z11 - z10)
    upper = z00 + fu * (z11 - z01) + fv * (z01 - z00)
    return np.where(fv <= fu, lower, upper)


# ---------------------------------------------------------------------------
# extension beyond the carrier polygon

def boundary_ring(tri: Triangulation) -> list[int]:
    """Vertex indices of the triangulation's boundary, counter-clockwise."""
    edges = tri.boundary_edges()
    nxt: dict[int, list[int]] = {}
    for i, j in edges:
        nxt.setdefault(i, []).append(j)
        nxt.setdefault(j, []).append(i)
    for v, nbrs in nxt.items():
        if len(nbrs) != 2:
            raise CtppError("boundary is not a single closed ring")
    start = min(nxt)
    ring = [start]
    prev = None
    cur = start
    while True:
        a, b = nxt[cur]
        step = a if a != prev else b
        if step == start:
            break
        ring.append(step)
        prev, cur = cur, step
    if len(ring) != len(edges):     # the walk closed on one of several rings
        raise CtppError("boundary is not a single closed ring")
    pts = [tri.vertices[i] for i in ring]
    if shoelace_area(pts) < 0:
        ring.reverse()
    return ring


def _clip_convex(poly_pts: list[Point2], clip: Polygon) -> list[Point2]:
    """Sutherland-Hodgman clip of a convex polygon by a convex polygon (exact)."""
    out = list(poly_pts)
    cv = clip.vertices
    m = len(cv)
    for e in range(m):
        a, b = cv[e], cv[(e + 1) % m]
        if not out:
            return []
        res = []
        prev = out[-1]
        prev_r = cross(a, b, prev)
        for cur in out:
            cur_r = cross(a, b, cur)
            if (cur_r >= 0) != (prev_r >= 0):   # the edge crosses the clip line
                t = prev_r / (prev_r - cur_r)
                res.append(Point2(prev.x + (cur.x - prev.x) * t,
                                  prev.y + (cur.y - prev.y) * t))
            if cur_r >= 0:
                res.append(cur)
            prev, prev_r = cur, cur_r
        # drop consecutive duplicates
        out = []
        for p in res:
            if not out or out[-1] != p:
                out.append(p)
        if len(out) > 1 and out[0] == out[-1]:
            out.pop()
    return out


def _is_convex(poly: Polygon) -> bool:
    v = poly.vertices
    n = len(v)
    return all(cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) >= 0 for i in range(n))


def _interner(vertices: list[Point2]):
    """Index of a point in ``vertices``, appending the point on first sight."""
    index: dict[Point2, int] = {p: i for i, p in enumerate(vertices)}

    def vid(p: Point2) -> int:
        if p not in index:
            index[p] = len(vertices)
            vertices.append(p)
        return index[p]

    return vid


def extend_to_polygon(g: CtppFunction, p0: Polygon) -> CtppFunction:
    """Extend a piecewise-planar function beyond its polygon, restricted to p0.

    A rectangle strictly containing both polygons is triangulated outside the
    carrier by ear clipping (hole bridged to the rectangle's right edge), new
    vertices receive the least-gradient value for their first triangle, and
    the full extension is clipped to p0 (convex targets only). The carrier's
    boundary must be one closed ring, so a carrier in two pieces or with a hole
    is refused (``boundary_ring``).
    """
    if validate_ctpp(g):
        raise CtppError("input function violates continuity; refusing to extend")
    if not _is_convex(p0):
        raise NotContainable("extension target must be convex "
                             "(general targets need a triangulation overlay)")

    ring = boundary_ring(g.tri)
    ring_pts = [g.tri.vertices[i] for i in ring]
    all_x = [p.x for p in ring_pts] + [p.x for p in p0.vertices]
    all_y = [p.y for p in ring_pts] + [p.y for p in p0.vertices]
    xmin, xmax = min(all_x) - 1, max(all_x) + 1
    ymin, ymax = min(all_y) - 1, max(all_y) + 1

    # bridge vertex: rightmost (then topmost) boundary vertex, seen from the right edge
    h_pos = max(range(len(ring)), key=lambda k: (ring_pts[k].x, ring_pts[k].y))
    h_vid = ring[h_pos]
    h_pt = ring_pts[h_pos]

    vertices: list[Point2] = list(g.tri.vertices)
    vid = _interner(vertices)
    w_pt = Point2(xmax, h_pt.y)
    corners = [Point2(xmin, ymin), Point2(xmax, ymin), Point2(xmax, ymax), Point2(xmin, ymax)]
    outer = [vid(corners[0]), vid(corners[1]), vid(w_pt), vid(corners[2]), vid(corners[3])]
    w_vid = vid(w_pt)

    # combined weakly-simple ring: outer CCW, bridge w->h, hole clockwise, back
    hole_cw = [ring[(h_pos - k) % len(ring)] for k in range(len(ring))]  # starts at h
    combined = []
    wi = outer.index(w_vid)
    combined.extend(outer[:wi + 1])
    combined.extend(hole_cw)
    combined.append(h_vid)
    combined.append(w_vid)
    combined.extend(outer[wi + 1:])

    outer_tri = _ear_clip_indices(vertices, combined)

    # per-vertex values: carrier vertices from g, new vertices assigned in passes
    values: dict[int, object] = {}
    for i in range(len(g.tri.vertices)):
        values[i] = g.vertex_value(i)

    pending = list(range(len(outer_tri.triangles)))
    assigned: dict[int, PlanarCoeffs] = {}
    while pending:
        progressed = False
        for t_idx in list(pending):
            tri_ids = outer_tri.triangles[t_idx]
            known = [v for v in tri_ids if v in values]
            if len(known) < 2:
                continue
            i, j, k = tri_ids
            if len(known) == 3:
                coeff = solve_plane(vertices[i], vertices[j], vertices[k],
                                    values[i], values[j], values[k])
            else:
                free = next(v for v in tri_ids if v not in values)
                fixed = [v for v in tri_ids if v in values]
                coeff, z_free = _least_gradient_plane(
                    vertices[fixed[0]], vertices[fixed[1]], vertices[free],
                    values[fixed[0]], values[fixed[1]])
                values[free] = z_free
            assigned[t_idx] = coeff
            pending.remove(t_idx)
            progressed = True
        if not progressed:
            raise CtppError("extension could not propagate values; disconnected region")

    # clip inner + outer triangles to p0
    out_vertices: list[Point2] = []
    out_vid = _interner(out_vertices)
    out_triangles: list[tuple[int, int, int]] = []
    out_coeffs: list[PlanarCoeffs] = []

    def emit(tri_pts: list[Point2], coeff: PlanarCoeffs):
        clipped = _clip_convex(tri_pts, p0)
        if len(clipped) < 3:
            return
        for k in range(1, len(clipped) - 1):
            a, b, c = clipped[0], clipped[k], clipped[k + 1]
            if cross(a, b, c) == 0:
                continue
            out_triangles.append((out_vid(a), out_vid(b), out_vid(c)))
            out_coeffs.append(coeff)

    for t_idx, (i, j, k) in enumerate(g.tri.triangles):
        emit([g.tri.vertices[i], g.tri.vertices[j], g.tri.vertices[k]], g.coeffs[t_idx])
    for t_idx, (i, j, k) in enumerate(outer_tri.triangles):
        emit([vertices[i], vertices[j], vertices[k]], assigned[t_idx])

    result = CtppFunction(tri=Triangulation(tuple(out_vertices), tuple(out_triangles)),
                          coeffs=tuple(out_coeffs))
    return result


def _least_gradient_plane(v1: Point2, v2: Point2, v_free: Point2, z1, z2):
    """Plane through (v1, z1), (v2, z2) with the free vertex value minimizing |grad|."""
    det = cross(v1, v2, v_free)
    if det == 0:
        raise CtppError("degenerate triangle in extension")
    # grad components are affine in the free value z: a = a0 + A1 z, b = b0 + B1 z
    A1 = -(v2.y - v1.y) / det
    B1 = (v2.x - v1.x) / det
    at_zero = solve_plane(v1, v2, v_free, z1, z2, z1 * 0)
    a0, b0 = at_zero.a, at_zero.b
    denom = A1 * A1 + B1 * B1
    if is_exact_number(z1) and is_exact_number(z2):
        z_star = -(a0 * A1 + b0 * B1) / denom
    else:
        z_star = -(complex(a0) * complex(A1) + complex(b0) * complex(B1)) / complex(denom)
    return solve_plane(v1, v2, v_free, z1, z2, z_star), z_star


# ---------------------------------------------------------------------------
# bump constructions

@dataclass(frozen=True)
class BumpSpec:
    s: Fraction
    delta: Fraction

    def __post_init__(self):
        if not (0 < self.s <= self.delta):
            raise BadSpec(f"need 0 < s <= delta, got s={self.s}, delta={self.delta}")

    @staticmethod
    def of(s, delta) -> "BumpSpec":
        return BumpSpec(to_fraction(s), to_fraction(delta))


@dataclass(frozen=True)
class Bumps:
    """Plateau bump g_s and the pyramid."""

    spec: BumpSpec

    def g_s(self, x) -> Fraction:
        t = abs(to_fraction(x))
        s = self.spec.s
        if t <= s / 2:
            return Fraction(0)
        if t >= s:
            return Fraction(1)
        return (t - s / 2) / (s / 2)

    def pyramid(self, p: Point2) -> Fraction:
        return pyramid_bump(p)

    def g_s_breakpoints(self) -> tuple[Fraction, ...]:
        s, d = self.spec.s, self.spec.delta
        pts = sorted({-d, -s, -s / 2, Fraction(0), s / 2, s, d})
        return tuple(pts)

    def g_s_function(self):
        xs = self.g_s_breakpoints()
        return RealFunction1D.from_pairs([(x, self.g_s(x)) for x in xs])


def make_bumps(spec: BumpSpec) -> Bumps:
    return Bumps(spec=spec)


def pyramid_bump(p: Point2) -> Fraction:
    """max(min(1 - |x|, 1 - |y|), 0), exact at rational points."""
    x, y = to_fraction(p.x), to_fraction(p.y)
    return max(min(1 - abs(x), 1 - abs(y)), Fraction(0))


def pyramid_ctpp() -> CtppFunction:
    """The pyramid as an explicit piecewise-planar function on [-1, 1]^2."""
    pts = [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(-1, 1), P(-1, 0),
           P(-1, -1), P(0, -1), P(1, -1)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
            (0, 5, 6), (0, 6, 7), (0, 7, 8), (0, 8, 1)]
    coeffs = []
    for i, j, k in tris:
        coeffs.append(solve_plane(pts[i], pts[j], pts[k],
                                  pyramid_bump(pts[i]), pyramid_bump(pts[j]),
                                  pyramid_bump(pts[k])))
    return CtppFunction(tri=Triangulation(tuple(pts), tuple(tris)), coeffs=tuple(coeffs))


_ZERO = Fraction(0)


@dataclass(frozen=True)
class ScaledBump:
    """coef * pyramid((p - centre) / delta), for delta > 0.

    The bump vanishes off the open delta-square around ``centre``. There
    ``eval`` returns ``coef * Fraction(0)`` without scaling the point: that is
    the value, type and float sign of zero ``pyramid_bump`` would give.
    """

    centre: Point2
    delta: Fraction
    coef: object

    def eval(self, p: Point2):
        dx, dy, delta = p.x - self.centre.x, p.y - self.centre.y, self.delta
        if abs(dx) >= delta or abs(dy) >= delta:
            return self.coef * _ZERO
        return self.coef * pyramid_bump(Point2(dx / delta, dy / delta))


# ---------------------------------------------------------------------------
# the triangle Lipschitz bound |grad F| <= (2 / r) sup_A |F|

@dataclass(frozen=True)
class PieceBound:
    triangle: int
    grad_sq: object
    sup_abs: object
    ok: bool


def triangle_lipschitz_report(g: CtppFunction) -> list[PieceBound]:
    """Check |grad| <= (2/r) max|F| for every planar piece (exact when rational).

    For a planar piece the maximum of |F| over the triangle is attained at a
    vertex. The inradius enters as a certified interval, exact or not; the
    check uses its lower end, so only a genuine violation fails it.
    """
    out = []
    radius_cache: dict[tuple, object] = {}
    for idx in range(len(g.tri.triangles)):
        t = g.tri.triangle(idx)
        c = g.coeffs[idx]
        vert_vals = [c.eval(v) for v in t.vertices]
        exact = all_exact(vert_vals + [c.a, c.b])
        sup = max(magnitudes(vert_vals))
        # the inradius does not change under translation; the edge vectors name
        # the triangle up to it
        key = (t.v1.x - t.v0.x, t.v1.y - t.v0.y, t.v2.x - t.v0.x, t.v2.y - t.v0.y)
        r = radius_cache.get(key)
        if r is None:
            r = inradius(t)
            radius_cache[key] = r
        if exact:
            grad_sq = c.a * c.a + c.b * c.b
            # |grad| <= 2 sup / r  <=>  grad_sq * r^2 <= 4 sup^2
            ok = grad_sq * r.lo * r.lo <= 4 * sup * sup
        else:
            grad_sq = abs(complex(c.a)) ** 2 + abs(complex(c.b)) ** 2
            ok = grad_sq <= (2 * sup / float(r.lo)) ** 2 * (1 + 1e-9) + 1e-18
        out.append(PieceBound(idx, grad_sq, sup, ok))
    return out
