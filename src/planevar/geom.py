"""Exact-arithmetic plane primitives.

Points carry rational coordinates and every predicate (side-of-line,
orientation, in-triangle) is decided in exact integer/rational arithmetic.
Crossing counts downstream are discontinuous in the inputs, so floating-point
signs are not acceptable here.

Integer lift. The exact kernels here and in ``_vfcore``, ``ctpp`` and
``approx`` write rationals as integers over one denominator and run in plain
``int``, which skips the gcd a ``Fraction`` takes after every operation.
``common_denominator`` is the one implementation of that step. Scaling by a
positive factor leaves every sign unchanged, so a sign decided on the lifted
integers is the one the rationals give, and so is a test for zero.
``Triangulation.vertex_lift`` keeps one lift of the vertices, which point
location and ``ctpp.validate_ctpp`` share; ``grid_triangulation`` writes each
grid line as one ``Fraction`` over the rectangle's lift.

Point location. ``Triangulation.triangles_containing`` and
``first_containing`` run the closed-triangle test of ``Triangle.contains``
(three orientations all >= 0 or all <= 0) on plain integers: the vertices are
lifted once over ``L``, a query point over its own ``D``, and each orientation
is the ``Fraction`` ``cross`` times ``L**2 * D``. The scan keeps index order,
so the first hit is the lowest-index containing triangle, and a degenerate
triangle raises ``DegenerateTriangle`` where the ``Triangle`` scan would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence


class GeomError(ValueError):
    pass


class DegenerateTriangle(GeomError):
    pass


class NotSimple(GeomError):
    pass


def to_fraction(value) -> Fraction:
    """Coerce int/str/float/Fraction to an exact Fraction.

    Floats are converted exactly (binary expansion), not via repr.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise GeomError(f"non-finite coordinate: {value}")
        return Fraction(value)
    raise GeomError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, slots=True)
class Point2:
    """A plane point with exact rational coordinates (``int`` or ``Fraction``).

    The hash is taken on the normalised (numerator, denominator) pairs, which
    equal points share whatever exact type carries them, so hash and ``==``
    agree; it skips the modular inverse of ``Fraction.__hash__``. Floats do not
    belong here: ``P`` and the file readers convert through ``to_fraction``.
    """

    x: Fraction
    y: Fraction

    def __hash__(self):
        x, y = self.x, self.y
        return hash((x.numerator, x.denominator, y.numerator, y.denominator))

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self):
        return f"P({self.x}, {self.y})"


def common_denominator(values) -> tuple[list[int], int]:
    """(ints, D) with D > 0 the lcm of the denominators of the exact rationals
    ``values`` (int or Fraction) and ``ints[i] == values[i] * D``."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def P(x, y) -> Point2:
    """Shorthand constructor coercing coordinates to Fractions."""
    return Point2(to_fraction(x), to_fraction(y))


def cross(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Signed parallelogram area of (a-o, b-o); >0 means left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dist_sq(a: Point2, b: Point2) -> Fraction:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


class Side(Enum):
    LEFT = -1
    ON = 0
    RIGHT = 1


@dataclass(frozen=True, slots=True)
class Line:
    """Line a*x + b*y = c in canonical form.

    Canonical: a, b, c are coprime integers and the first nonzero of (a, b)
    is positive, so equal lines compare equal.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise GeomError("degenerate line: a = b = 0")

    @staticmethod
    def from_coeffs(a, b, c) -> "Line":
        af, bf, cf = to_fraction(a), to_fraction(b), to_fraction(c)
        if af == 0 and bf == 0:
            raise GeomError("degenerate line: a = b = 0")
        (ai, bi, ci), _ = common_denominator((af, bf, cf))
        g = math.gcd(ai, bi, ci)
        ai, bi, ci = ai // g, bi // g, ci // g
        lead = ai if ai != 0 else bi
        if lead < 0:
            ai, bi, ci = -ai, -bi, -ci
        return Line(ai, bi, ci)

    def residual(self, p: Point2) -> Fraction:
        return self.a * p.x + self.b * p.y - self.c

    def __str__(self):
        return f"{self.a}x + {self.b}y = {self.c}"


def side_of(line: Line, p: Point2) -> Side:
    """Exact side of ``p`` relative to ``line``: negative residual is LEFT."""
    r = line.residual(p)
    if r == 0:
        return Side.ON
    return Side.RIGHT if r > 0 else Side.LEFT


@dataclass(frozen=True, slots=True)
class AffineMap:
    """x |-> M x + t with exact rational entries."""

    m00: Fraction
    m01: Fraction
    m10: Fraction
    m11: Fraction
    t0: Fraction = Fraction(0)
    t1: Fraction = Fraction(0)

    @property
    def det(self) -> Fraction:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, p: Point2) -> Point2:
        return Point2(self.m00 * p.x + self.m01 * p.y + self.t0,
                      self.m10 * p.x + self.m11 * p.y + self.t1)

    def inverse(self) -> "AffineMap":
        d = self.det
        if d == 0:
            raise GeomError("singular affine map")
        i00, i01 = self.m11 / d, -self.m01 / d
        i10, i11 = -self.m10 / d, self.m00 / d
        return AffineMap(i00, i01, i10, i11,
                         -(i00 * self.t0 + i01 * self.t1),
                         -(i10 * self.t0 + i11 * self.t1))


# ---------------------------------------------------------------------------
# square roots with certified rational bounds (inradius involves sqrt)

def sqrt_bounds(value: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(value) <= hi with hi - lo <= sqrt(value)/2^bits + 2^-bits."""
    if value < 0:
        raise GeomError("sqrt of negative value")
    if value == 0:
        return Fraction(0), Fraction(0)
    num = value.numerator << (2 * bits)
    den = value.denominator
    # floor(sqrt(num/den)) scaled by 2^bits
    root = math.isqrt(num // den)
    lo = Fraction(root, 1 << bits)
    hi = Fraction(root + 2, 1 << bits)
    return lo, hi


def exact_sqrt(value: Fraction):
    """Fraction sqrt if ``value`` is a perfect rational square, else None."""
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True, slots=True)
class ScalarBounds:
    """A scalar known exactly, or enclosed in a certified rational interval."""

    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def __float__(self):
        if self.exact is not None:
            return float(self.exact)
        return float((self.lo + self.hi) / 2)


# ---------------------------------------------------------------------------
# triangles

@dataclass(frozen=True, slots=True)
class Triangle:
    v0: Point2
    v1: Point2
    v2: Point2

    def __post_init__(self):
        if cross(self.v0, self.v1, self.v2) == 0:
            raise DegenerateTriangle(f"collinear vertices {self.v0}, {self.v1}, {self.v2}")

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.v0, self.v1, self.v2)

    def area(self) -> Fraction:
        return abs(cross(self.v0, self.v1, self.v2)) / 2

    def contains(self, p: Point2) -> bool:
        """Closed-triangle membership, exact."""
        s1 = cross(self.v0, self.v1, p)
        s2 = cross(self.v1, self.v2, p)
        s3 = cross(self.v2, self.v0, p)
        return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)


def inradius(t: Triangle) -> ScalarBounds:
    """Inscribed-circle radius, area/semiperimeter.

    Exact Fraction when all side lengths are rational, otherwise a certified
    interval of width < 1e-12 (the first pass at 48 bits gives ~3e-15 at unit
    scale; large triangles take further passes, 16 bits finer each).
    Downstream bounds should use ``lo`` (or ``hi`` when the radius appears in
    a denominator).
    """
    area = t.area()
    sides_sq = [dist_sq(t.v0, t.v1), dist_sq(t.v1, t.v2), dist_sq(t.v2, t.v0)]
    exact_sides = [exact_sqrt(s) for s in sides_sq]
    if all(e is not None for e in exact_sides):
        s = sum(exact_sides) / 2
        r = area / s
        return ScalarBounds(r, r, exact=r)
    bits = 48
    while True:
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for s_sq in sides_sq:
            lo, hi = sqrt_bounds(s_sq, bits)
            lo_sum += lo
            hi_sum += hi
        r_lo = area / (hi_sum / 2)
        r_hi = area / (lo_sum / 2)
        if r_hi - r_lo < Fraction(1, 10**12):
            return ScalarBounds(r_lo, r_hi)
        bits += 16


# ---------------------------------------------------------------------------
# segments and polygons

def _on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """p lies on the closed segment [a, b] (collinearity assumed checked by caller)."""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """Closed segments share at least one point (exact)."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(p1, q1, q2):
        return True
    if d2 == 0 and _on_segment(p2, q1, q2):
        return True
    if d3 == 0 and _on_segment(q1, p1, p2):
        return True
    if d4 == 0 and _on_segment(q2, p1, p2):
        return True
    return False


def shoelace_area(vertices: Sequence[Point2]) -> Fraction:
    """Signed area; positive for counter-clockwise order."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2


@dataclass(frozen=True)
class Polygon:
    """Simple polygon; vertices normalized to counter-clockwise order."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise GeomError("polygon needs at least 3 vertices")
        area = shoelace_area(self.vertices)
        if area == 0:
            raise GeomError("polygon has zero area")
        if area < 0:
            object.__setattr__(self, "vertices", tuple(reversed(self.vertices)))
        _check_simple(self.vertices)


def _check_simple(vertices: Sequence[Point2]) -> None:
    n = len(vertices)
    for i in range(n):
        a1, a2 = vertices[i], vertices[(i + 1) % n]
        if a1 == a2:
            raise NotSimple(f"repeated consecutive vertex {a1}")
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint by construction
            b1, b2 = vertices[j], vertices[(j + 1) % n]
            if segments_intersect(a1, a2, b1, b2):
                raise NotSimple(f"edges {i} and {j} intersect")


@dataclass(frozen=True, slots=True)
class Rectangle:
    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise GeomError("rectangle needs x_min < x_max and y_min < y_max")

    @staticmethod
    def of(x_min, x_max, y_min, y_max) -> "Rectangle":
        return Rectangle(*(to_fraction(v) for v in (x_min, x_max, y_min, y_max)))

    def corners(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (Point2(self.x_min, self.y_min), Point2(self.x_max, self.y_min),
                Point2(self.x_max, self.y_max), Point2(self.x_min, self.y_max))

    def contains(self, p: Point2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

    def centre(self) -> Point2:
        return Point2((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)


# ---------------------------------------------------------------------------
# triangulations

@dataclass(frozen=True)
class Triangulation:
    """Vertex list plus triangles as index triples, with an edge adjacency table.

    Triangles are stored in construction order (for ear clipping this is the
    clip order, which the polygon-extension machinery relies on).
    """

    vertices: tuple[Point2, ...]
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        adjacency: dict[tuple[int, int], list[int]] = {}
        get = adjacency.get
        for t_idx, t in enumerate(self.triangles):
            # an index is an int in range(n); a bool or a float is not
            if len(t) != 3 or not (type(t[0]) is type(t[1]) is type(t[2]) is int
                                   and 0 <= t[0] < n and 0 <= t[1] < n and 0 <= t[2] < n):
                raise GeomError(f"triangle {tuple(t)} needs three indices of the {n} vertices")
            i, j, k = t
            # edge keys (low, high) in the order (i, j), (j, k), (k, i)
            for key in ((i, j) if i < j else (j, i), (j, k) if j < k else (k, j),
                        (k, i) if k < i else (i, k)):
                owners = get(key)
                if owners is None:
                    adjacency[key] = [t_idx]
                else:
                    owners.append(t_idx)
        for edge, owners in adjacency.items():
            if len(owners) > 2:
                raise GeomError(f"edge {edge} shared by {len(owners)} triangles")
        object.__setattr__(self, "_adjacency", adjacency)

    @property
    def adjacency(self) -> dict[tuple[int, int], list[int]]:
        return self._adjacency  # type: ignore[attr-defined]

    def shared_edges(self) -> list[tuple[tuple[int, int], int, int]]:
        """(edge, triangle, triangle) for every edge owned by exactly two triangles."""
        out = []
        for edge, owners in self.adjacency.items():
            if len(owners) == 2:
                out.append((edge, owners[0], owners[1]))
        return out

    def boundary_edges(self) -> list[tuple[int, int]]:
        return [edge for edge, owners in self.adjacency.items() if len(owners) == 1]

    def triangle(self, idx: int) -> Triangle:
        i, j, k = self.triangles[idx]
        return Triangle(self.vertices[i], self.vertices[j], self.vertices[k])

    @cached_property
    def vertex_lift(self) -> tuple[list[int], int]:
        """``common_denominator`` of the flattened vertex coordinates
        (x0, y0, x1, y1, ...), built on first use and kept."""
        return common_denominator([c for v in self.vertices for c in (v.x, v.y)])

    @cached_property
    def _edge_table(self) -> tuple[list[tuple[int, ...]], int | None, int]:
        """Integer edge functions of every triangle, built on first use.

        Returns ``(rows, first_bad, scale)``. ``scale`` is the common
        denominator of all vertex coordinates; with every vertex lifted by it,
        row ``t`` holds for each directed edge (a, b) of triangle ``t`` the
        integers ``ex, ey`` of ``scale*(b - a)`` and ``k = ex*ay - ey*ax``
        (``a`` lifted too). ``first_bad`` is the index of the first
        degenerate triangle, or None; the rows stop there.
        """
        ints, scale = self.vertex_lift
        rows = []
        first_bad = None
        for idx, (i, j, k) in enumerate(self.triangles):
            x0, y0 = ints[2 * i], ints[2 * i + 1]
            x1, y1 = ints[2 * j], ints[2 * j + 1]
            x2, y2 = ints[2 * k], ints[2 * k + 1]
            ax, ay, bx, by, cx, cy = x1 - x0, y1 - y0, x2 - x1, y2 - y1, x0 - x2, y0 - y2
            if ax * (y2 - y0) - ay * (x2 - x0) == 0:
                first_bad = idx
                break
            rows.append((ax, ay, ax * y0 - ay * x0, bx, by, bx * y1 - by * x1,
                         cx, cy, cx * y2 - cy * x2))
        return rows, first_bad, scale

    def _containing(self, p: Point2, first: bool) -> list[int]:
        """Indices of the closed triangles containing p, in index order.

        The scan raises the ``Triangle`` error at the first degenerate
        triangle it reaches; with ``first`` it ends at the first hit.
        """
        rows, first_bad, scale = self._edge_table
        (qx, qy), d = common_denominator((p.x, p.y))
        qx *= scale
        qy *= scale
        hits = []
        for idx, (ax, ay, ak, bx, by, bk, cx, cy, ck) in enumerate(rows):
            s1 = ax * qy - ay * qx - ak * d
            s2 = bx * qy - by * qx - bk * d
            s3 = cx * qy - cy * qx - ck * d
            if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0):
                hits.append(idx)
                if first:
                    return hits
        if first_bad is not None:
            self.triangle(first_bad)  # raises DegenerateTriangle
        return hits

    def triangles_containing(self, p: Point2) -> list[int]:
        """Indices of every closed triangle containing p, in index order."""
        return self._containing(p, first=False)

    def first_containing(self, p: Point2) -> int | None:
        """Lowest index of a closed triangle containing p, or None."""
        hits = self._containing(p, first=True)
        return hits[0] if hits else None


def _ear_clip_indices(vertices: list[Point2], ring: list[int]) -> Triangulation:
    """Triangulate the simple polygon ``ring`` (indices into ``vertices``, CCW) by
    ear clipping.

    Emits |ring|-2 triangles in clip order: each clipped triangle adjoins,
    via its chord edge, the part of the polygon triangulated after it. Collinear
    boundary vertices are tolerated; a zero-area ear is skipped (its middle
    vertex dropped) only when no proper ear is available.
    """
    triangles: list[tuple[int, int, int]] = []
    ring = list(ring)
    guard = 0
    while len(ring) > 3:
        guard += 1
        if guard > 4 * len(vertices) ** 2:
            raise NotSimple("ear clipping failed to converge; polygon not simple?")
        clipped = False
        n = len(ring)
        for pos in range(n):
            i_prev, i_cur, i_next = ring[pos - 1], ring[pos], ring[(pos + 1) % n]
            a, b, c = vertices[i_prev], vertices[i_cur], vertices[i_next]
            if cross(a, b, c) <= 0:
                continue
            ear = Triangle(a, b, c)
            blocked = False
            for other in ring:
                if other in (i_prev, i_cur, i_next):
                    continue
                q = vertices[other]
                if q in (a, b, c):
                    continue
                if ear.contains(q):
                    blocked = True
                    break
            if not blocked:
                triangles.append((i_prev, i_cur, i_next))
                del ring[pos]
                clipped = True
                break
        if clipped:
            continue
        # no proper ear: drop a collinear middle vertex (zero-area ear)
        dropped = False
        for pos in range(len(ring)):
            i_prev, i_cur, i_next = ring[pos - 1], ring[pos], ring[(pos + 1) % len(ring)]
            a, b, c = vertices[i_prev], vertices[i_cur], vertices[i_next]
            if cross(a, b, c) == 0:
                del ring[pos]
                dropped = True
                break
        if not dropped:
            raise NotSimple("no ear found; polygon is not simple")
    if len(ring) == 3:
        a, b, c = (vertices[i] for i in ring)
        if cross(a, b, c) != 0:
            triangles.append((ring[0], ring[1], ring[2]))
    return Triangulation(tuple(vertices), tuple(triangles))


MAX_GRID_SUBDIVISION = 256   # cells per side: (n + 1)^2 vertices and 2n^2 triangles


def grid_triangulation(rect: Rectangle, n: int) -> Triangulation:
    """2n^2 right triangles on an n x n cell grid, diagonals lower-left to upper-right.

    ``n`` runs from 1 to ``MAX_GRID_SUBDIVISION``; any other value is refused
    with GeomError before a vertex is made.
    """
    if n < 1:
        raise GeomError("grid subdivision must be >= 1")
    if n > MAX_GRID_SUBDIVISION:
        raise GeomError(f"grid subdivision must be <= {MAX_GRID_SUBDIVISION}, got {n}")
    # x_min + i*(x_max - x_min)/n is (xm*n + i*(x1 - xm))/(r*n) over the lift
    # (xm, ym, x1, y1)/r of the rectangle: one Fraction per grid line
    (xm, ym, x1, y1), r = common_denominator(
        [to_fraction(v) for v in (rect.x_min, rect.y_min, rect.x_max, rect.y_max)])
    xs = [Fraction(xm * n + i * (x1 - xm), r * n) for i in range(n + 1)]
    ys = [Fraction(ym * n + j * (y1 - ym), r * n) for j in range(n + 1)]
    vertices = [Point2(x, y) for y in ys for x in xs]

    triangles = []
    for j in range(n):
        for i in range(n):
            # vertex (i, j) is v = j*(n + 1) + i; diagonal from (i, j) to (i+1, j+1)
            v = j * (n + 1) + i
            triangles.append((v, v + 1, v + n + 2))
            triangles.append((v, v + n + 2, v + n + 1))
    return Triangulation(tuple(vertices), tuple(triangles))

