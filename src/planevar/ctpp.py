"""Continuous piecewise-planar functions on triangulations.

A function is piecewise planar over a triangulation when it restricts to
a*x + b*y + c on each triangle; continuity is equivalent to the two pieces of
every shared edge agreeing at the edge endpoints. This module validates and
evaluates such functions, classifies points by how many triangles contain
them, interpolates samples on grid triangulations, extends a function beyond
its polygon, bounds star-planar functions, and builds the standard bump
constructions (plateau bump, its product, the pyramid).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geom import (
    P,
    Point2,
    Polygon,
    Rectangle,
    Triangulation,
    cross,
    grid_triangulation,
    inradius,
    shoelace_area,
    to_fraction,
    _ear_clip_indices,
)
from .variation import PlanarCoeffs, SampledFunction, is_exact_number


class CtppError(ValueError):
    pass


class PointOutsidePolygon(CtppError):
    pass


class OracleMissingVertex(CtppError):
    pass


class NotStarPlanar(CtppError):
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
    dz1, dz2 = z1 - z0, z2 - z0
    a = (dz1 * (v2.y - v0.y) - dz2 * (v1.y - v0.y)) / det
    b = ((v1.x - v0.x) * dz2 - (v2.x - v0.x) * dz1) / det
    c = z0 - a * v0.x - b * v0.y
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
        for t_idx, tri in enumerate(self.tri.triangles):
            if vid in tri:
                return self.coeffs[t_idx].eval(self.tri.vertices[vid])
        raise CtppError(f"vertex {vid} belongs to no triangle")

    def is_rational(self) -> bool:
        return all(is_exact_number(c.a) and is_exact_number(c.b) and is_exact_number(c.c)
                   for c in self.coeffs)

    def sample(self, points) -> SampledFunction:
        pts = tuple(points)
        return SampledFunction(pts, tuple(self.eval(p) for p in pts))


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


def validate_ctpp(g: CtppFunction, tol: float = 1e-9) -> list[EdgeViolation]:
    """Endpoint-agreement check on every shared edge; empty list means valid.

    Exact comparison when coefficients are rational, |difference| <= tol
    otherwise.
    """
    out = []
    for (i, j), t1, t2 in g.tri.shared_edges():
        pa, pb = g.tri.vertices[i], g.tri.vertices[j]
        c1, c2 = g.coeffs[t1], g.coeffs[t2]
        va1, va2 = c1.eval(pa), c2.eval(pa)
        vb1, vb2 = c1.eval(pb), c2.eval(pb)
        if is_exact_number(va1) and is_exact_number(va2) and \
           is_exact_number(vb1) and is_exact_number(vb2):
            bad = va1 != va2 or vb1 != vb2
        else:
            bad = abs(complex(va1) - complex(va2)) > tol or \
                  abs(complex(vb1) - complex(vb2)) > tol
        if bad:
            out.append(EdgeViolation(edge=(i, j), triangles=(t1, t2),
                                     values=(va1, va2, vb1, vb2)))
    return out


def eval_ctpp(g: CtppFunction, p: Point2):
    """Value at p via any containing triangle (well-defined when continuous)."""
    for idx in range(len(g.tri.triangles)):
        if g.tri.triangle(idx).contains(p):
            return g.coeffs[idx].eval(p)
    raise PointOutsidePolygon(f"{p} lies in no triangle")


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
    values = []
    for v in tri.vertices:
        if callable(oracle):
            values.append(oracle(v))
        else:
            if v not in oracle:
                raise OracleMissingVertex(f"oracle missing vertex {v}")
            values.append(oracle[v])
    coeffs = []
    for i, j, k in tri.triangles:
        coeffs.append(solve_plane(tri.vertices[i], tri.vertices[j], tri.vertices[k],
                                  values[i], values[j], values[k]))
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
        if len(ring) > len(edges) + 1:
            raise CtppError("boundary walk failed")
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
            if cur_r >= 0:
                if prev_r < 0:
                    t = prev_r / (prev_r - cur_r)
                    res.append(Point2(prev.x + (cur.x - prev.x) * t,
                                      prev.y + (cur.y - prev.y) * t))
                res.append(cur)
            elif prev_r >= 0:
                t = prev_r / (prev_r - cur_r)
                res.append(Point2(prev.x + (cur.x - prev.x) * t,
                                  prev.y + (cur.y - prev.y) * t))
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


def extend_to_polygon(g: CtppFunction, p0: Polygon) -> CtppFunction:
    """Extend a piecewise-planar function beyond its polygon, restricted to p0.

    A rectangle strictly containing both polygons is triangulated outside the
    carrier by ear clipping (hole bridged to the rectangle's right edge), new
    vertices receive the least-gradient value for their first triangle, and
    the full extension is clipped to p0 (convex targets only).
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
    index_of: dict[Point2, int] = {p: i for i, p in enumerate(vertices)}

    def vid(p: Point2) -> int:
        if p not in index_of:
            index_of[p] = len(vertices)
            vertices.append(p)
        return index_of[p]

    w_pt = Point2(xmax, h_pt.y)
    corners = [Point2(xmin, ymin), Point2(xmax, ymin), Point2(xmax, ymax), Point2(xmin, ymax)]
    outer = [vid(corners[0]), vid(corners[1]), vid(w_pt), vid(corners[2]), vid(corners[3])]
    w_vid = index_of[w_pt]

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
    out_index: dict[Point2, int] = {}

    def out_vid(p: Point2) -> int:
        if p not in out_index:
            out_index[p] = len(out_vertices)
            out_vertices.append(p)
        return out_index[p]

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
    # grad components are affine in the free value z: a = A0 + A1 z, b = B0 + B1 z
    A1 = -(v2.y - v1.y) / det
    B1 = (v2.x - v1.x) / det
    dz1 = z2 - z1

    def comps(z):
        dz2 = z - z1
        a = (dz1 * (v_free.y - v1.y) - dz2 * (v2.y - v1.y)) / det
        b = ((v2.x - v1.x) * dz2 - (v_free.x - v1.x) * dz1) / det
        return a, b

    a0, b0 = comps(z1 * 0)  # components at z = 0
    denom = A1 * A1 + B1 * B1
    if is_exact_number(z1) and is_exact_number(z2):
        z_star = -(a0 * A1 + b0 * B1) / denom
    else:
        z_star = -(complex(a0) * complex(A1) + complex(b0) * complex(B1)) / complex(denom)
    a, b = comps(z_star)
    c = z1 - a * v1.x - b * v1.y
    return PlanarCoeffs(a, b, c), z_star


# ---------------------------------------------------------------------------
# star-planar bound

def _ccw_sorted(rays: list[Point2]) -> bool:
    """True when the directions are distinct and listed in one CCW sweep."""
    import functools

    def half(d):  # 0 for upper half (y>0 or y==0 and x>0), 1 otherwise
        return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = u.x * v.y - u.y * v.x
        return 0 if c == 0 else (-1 if c > 0 else 1)

    n = len(rays)
    for i in range(n):
        for j in range(i + 1, n):
            if cmp(rays[i], rays[j]) == 0:
                return False  # parallel same-direction rays
    order = sorted(range(n), key=functools.cmp_to_key(lambda i, j: cmp(rays[i], rays[j])))
    pos = order.index(0)
    rotated = order[pos:] + order[:pos]
    return rotated == list(range(n))


def star_planar_bound(f: SampledFunction, centre: Point2, rays: list[Point2],
                      sector_coeffs: list[PlanarCoeffs], tol: float = 1e-9):
    """2 n max|f(x) - f(w)| upper bound for a function planar on each ray sector.

    ``rays`` are direction vectors in counter-clockwise order; sector i spans
    rays[i] to rays[i+1]. Sampled values must match the sector coefficients
    (exactly for rational data) or NotStarPlanar is raised.
    """
    n = len(rays)
    if n < 2:
        raise CtppError("need at least two rays")
    if len(sector_coeffs) != n:
        raise CtppError("one coefficient triple per sector required")
    if not _ccw_sorted(rays):
        raise CtppError("rays must be in counter-clockwise angular order")

    def in_sector(i: int, p: Point2) -> bool:
        v = Point2(p.x - centre.x, p.y - centre.y)
        if v.x == 0 and v.y == 0:
            return True
        d1, d2 = rays[i], rays[(i + 1) % n]
        c1 = d1.x * v.y - d1.y * v.x
        c2 = v.x * d2.y - v.y * d2.x
        if d1.x * d2.y - d1.y * d2.x >= 0:  # cone spans <= pi
            return c1 >= 0 and c2 >= 0
        return c1 >= 0 or c2 >= 0  # reflex cone

    for p in f.points:
        sectors = [i for i in range(n) if in_sector(i, p)]
        if not sectors:
            raise NotStarPlanar(f"{p} lies in no sector")
        for i in sectors:
            want = sector_coeffs[i].eval(p)
            got = f.value(p)
            if is_exact_number(want) and is_exact_number(got):
                ok = want == got
            else:
                ok = abs(complex(want) - complex(got)) <= tol
            if not ok:
                raise NotStarPlanar(f"value at {p} does not match sector {i}")

    if f.is_rational_real:
        spread = max(f.values) - min(f.values)
    else:
        vals = [complex(v) for v in f.values]
        spread = max(abs(a - b) for a in vals for b in vals)
    return 2 * n * spread


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
    """Plateau bump g_s, its product chi(x,y) = g_s(x) g_s(y), and the pyramid."""

    spec: BumpSpec

    def g_s(self, x) -> Fraction:
        t = abs(to_fraction(x))
        s = self.spec.s
        if t <= s / 2:
            return Fraction(0)
        if t >= s:
            return Fraction(1)
        return (t - s / 2) / (s / 2)

    def chi(self, p: Point2) -> Fraction:
        return self.g_s(p.x) * self.g_s(p.y)

    def pyramid(self, p: Point2) -> Fraction:
        return pyramid_bump(p)

    def g_s_breakpoints(self) -> tuple[Fraction, ...]:
        s, d = self.spec.s, self.spec.delta
        pts = sorted({-d, -s, -s / 2, Fraction(0), s / 2, s, d})
        return tuple(pts)

    def g_s_function(self):
        from .onedim import RealFunction1D
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


@dataclass(frozen=True)
class ScaledBump:
    """coef * pyramid((p - centre) / delta); vanishes outside the delta-square."""

    centre: Point2
    delta: Fraction
    coef: object

    def eval(self, p: Point2):
        q = Point2((p.x - self.centre.x) / self.delta,
                   (p.y - self.centre.y) / self.delta)
        return self.coef * pyramid_bump(q)


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
    vertex. The inradius enters as a certified interval; the check first uses
    the upper end (which strengthens the inequality) and falls back to the
    lower end to classify genuine violations.
    """
    out = []
    radius_cache: dict[tuple, object] = {}
    for idx in range(len(g.tri.triangles)):
        t = g.tri.triangle(idx)
        c = g.coeffs[idx]
        vert_vals = [c.eval(v) for v in t.vertices]
        exact = all(is_exact_number(v) for v in vert_vals) and \
            is_exact_number(c.a) and is_exact_number(c.b)
        key = tuple(sorted((float(t.v0.x), float(t.v0.y), float(t.v1.x), float(t.v1.y),
                            float(t.v2.x), float(t.v2.y))))
        r = radius_cache.get(key)
        if r is None:
            r = inradius(t)
            radius_cache[key] = r
        if exact:
            grad_sq = c.a * c.a + c.b * c.b
            sup_sq = max(v * v for v in vert_vals)
            # |grad| <= 2 sup / r  <=>  grad_sq * r^2 <= 4 sup_sq
            r_hi = r.exact if r.is_exact else r.hi
            r_lo = r.exact if r.is_exact else r.lo
            ok = grad_sq * r_hi * r_hi <= 4 * sup_sq
            if not ok and grad_sq * r_lo * r_lo <= 4 * sup_sq:
                ok = True  # inside the interval's slack: not a genuine violation
            out.append(PieceBound(idx, grad_sq, max(abs(v) for v in vert_vals), ok))
        else:
            grad_sq = abs(complex(c.a)) ** 2 + abs(complex(c.b)) ** 2
            sup = max(abs(complex(v)) for v in vert_vals)
            ok = grad_sq <= (2 * sup / float(r.lo if not r.is_exact else r.exact)) ** 2 \
                * (1 + 1e-9) + 1e-18
            out.append(PieceBound(idx, grad_sq, sup, ok))
    return out
