"""Exact candidate-line enumeration and vectorized crossing counts.

The variation factor of an ordered point list S is the maximum, over all
lines in the plane, of the number of crossing segments of S. The maximum is
computed exactly by enumerating a finite candidate family of lines that is
complete for the point set (and for every list drawn from it).

Completeness argument
---------------------
Write a line as { p : u . p = t } with normal u and offset t. The sign
pattern of a finite point set Q with respect to the line is constant on open
cells of the (direction, offset) parameter space, and changes only where the
boundary of a cell is crossed:

* As u rotates, the order of the projections u . q (q in Q) changes exactly
  when u is orthogonal to some difference q - q', i.e. at the normals of
  lines through point pairs. Between two consecutive critical normals the
  projection order is constant, so one representative direction per open arc
  (any positive combination of the two arc endpoints) realizes every pattern
  available on that arc.
* For a fixed direction, the pattern as a function of t changes exactly at
  the projection values u . q. Offsets at each projection value (points on
  the line) together with one offset per open gap (midpoints) therefore
  realize every pattern available for that direction.

The family built here contains all pair normals, one interior direction per
arc between consecutive pair normals, all point-projection offsets and all
mid-gap offsets. Hence every achievable sign pattern on the point set is
achieved by some candidate line, so the maximum crossing count over the
family equals the maximum over all lines. A list S drawn from the point set
only refines this argument: its critical directions and offsets are a subset
of the set's, and every open arc/gap for S contains a candidate of the full
family in its interior, so one family serves all sublists.

Coordinates are scaled to integers once per point set; all candidate lines
then have integer coefficients and every sign is an exact integer sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .geom import Line, Point2

_INT64_SAFE = 1 << 62


# Defined here so that the sign-table size cap can raise a typed error;
# ``variation`` re-exports both and adds the other kinds.
class VariationError(ValueError):
    pass


class InstanceTooLarge(VariationError):
    pass


def scale_to_ints(points: tuple[Point2, ...]) -> tuple[list[tuple[int, int]], int]:
    """Common-denominator integer coordinates (exact)."""
    scale = 1
    for p in points:
        scale = math.lcm(scale, p.x.denominator, p.y.denominator)
    ints = [(int(p.x * scale), int(p.y * scale)) for p in points]
    return ints, scale


def _canon_normal(a: int, b: int) -> tuple[int, int]:
    """Reduce to coprime and normalize into the upper half-plane (angle in [0, pi))."""
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return a, b


def _angle_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (1 if c < 0 else -1)


def candidate_normals(int_points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Pair normals plus one strictly-interior direction per angular arc."""
    distinct = sorted(set(int_points))
    normals: set[tuple[int, int]] = set()
    for i in range(len(distinct)):
        xi, yi = distinct[i]
        for j in range(i + 1, len(distinct)):
            xj, yj = distinct[j]
            normals.add(_canon_normal(-(yj - yi), xj - xi))
    if not normals:
        return [(0, 1)]
    ordered = sorted(normals, key=cmp_to_key(_angle_cmp))
    extra: set[tuple[int, int]] = set()
    if len(ordered) == 1:
        a, b = ordered[0]
        extra.add(_canon_normal(-b, a))
    else:
        for u, v in zip(ordered, ordered[1:]):
            extra.add(_canon_normal(u[0] + v[0], u[1] + v[1]))
        last, first = ordered[-1], ordered[0]
        wa, wb = last[0] - first[0], last[1] - first[1]
        if (wa, wb) != (0, 0):
            extra.add(_canon_normal(wa, wb))
    return sorted(normals | extra)


def _canon_line(a: int, b: int, c: int) -> tuple[int, int, int]:
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    if g:
        a, b, c = a // g, b // g, c // g
    lead = a if a != 0 else b
    if lead < 0:
        a, b, c = -a, -b, -c
    return a, b, c


def candidate_lines(int_points: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Complete candidate family, lexicographically sorted integer triples."""
    lines: set[tuple[int, int, int]] = set()
    for a, b in candidate_normals(int_points):
        projections = sorted({a * x + b * y for x, y in set(int_points)})
        for t in projections:
            lines.add(_canon_line(a, b, t))
        for t1, t2 in zip(projections, projections[1:]):
            lines.add(_canon_line(2 * a, 2 * b, t1 + t2))
    return sorted(lines)


@dataclass(frozen=True)
class SignTable:
    """Exact signs of every candidate line against every point of a sample."""

    points: tuple[Point2, ...]
    scale: int
    lines: np.ndarray      # (L, 3) int64 or object; rows sorted lexicographically
    signs: np.ndarray      # (L, P) int8; sign(a*x + b*y - c)

    def line_at(self, row: int) -> Line:
        a, b, c = (int(v) for v in self.lines[row])
        # scaled coordinates: a*X + b*Y = c with X = scale*x, so divide c by scale
        return Line.from_coeffs(a, b, Fraction(c, self.scale))

    @property
    def n_lines(self) -> int:
        return self.signs.shape[0]


_MAX_CANDIDATE_LINES = 2_000_000


def build_sign_table(points: tuple[Point2, ...]) -> SignTable:
    int_pts, scale = scale_to_ints(points)
    distinct = len(set(int_pts))
    # ~(2 pairs + bisectors) * (2 offsets per projection) candidate lines
    est = (distinct * (distinct - 1) + 2) * (2 * distinct)
    if est > _MAX_CANDIDATE_LINES:
        raise InstanceTooLarge(
            f"candidate family for {distinct} distinct points would hold ~{est} "
            f"lines; the exact machinery is meant for desk-scale samples")
    rows = candidate_lines(int_pts)
    max_abc = max(max(abs(a), abs(b), abs(c)) for a, b, c in rows)
    max_xy = max((max(abs(x), abs(y)) for x, y in int_pts), default=0)
    bound = 2 * max_abc * max(max_xy, 1) + max_abc
    pts_mat = np.array([[x, y, 1] for x, y in int_pts]).T
    if bound < _INT64_SAFE:
        lines_arr = np.array(rows, dtype=np.int64)
        coeff = lines_arr.copy()
        coeff[:, 2] = -coeff[:, 2]
        residuals = coeff @ pts_mat.astype(np.int64)
        signs = np.sign(residuals).astype(np.int8)
    else:
        lines_arr = np.array(rows, dtype=object)
        signs = np.empty((len(rows), len(int_pts)), dtype=np.int8)
        for r, (a, b, c) in enumerate(rows):
            for p, (x, y) in enumerate(int_pts):
                v = a * x + b * y - c
                signs[r, p] = 0 if v == 0 else (1 if v > 0 else -1)
    return SignTable(points=points, scale=scale, lines=lines_arr, signs=signs)


def _crossing_mask(S: np.ndarray) -> np.ndarray:
    """Crossing segments of sign matrix S of shape (..., m), m >= 2: shape (..., m-1).

    Segment j (from position j to j+1) is a crossing segment when one of:
      1. strictly opposite signs,
      2. j = 0 and position 0 on the line,
      3. j > 0, position j on the line, position j-1 off it,
      4. j = m-2, position j off the line, position j+1 on it.
    """
    A = S[..., :-1]
    B = S[..., 1:]
    crossing = (A * B) < 0
    crossing[..., 0] |= S[..., 0] == 0
    if S.shape[-1] > 2:
        crossing[..., 1:] |= (S[..., 1:-1] == 0) & (S[..., :-2] != 0)
    crossing[..., -1] |= (S[..., -2] != 0) & (S[..., -1] == 0)
    return crossing


def _counts_from_matrix(S: np.ndarray) -> np.ndarray:
    """Crossing counts per row for sign matrix S of shape (..., m), m >= 1.

    Single-point convention: for m = 1 the count is 1 iff the point is on the line.
    """
    if S.shape[-1] == 1:
        return (S[..., 0] == 0).astype(np.int32)
    return _crossing_mask(S).sum(axis=-1, dtype=np.int32)


def vf_of_indices(table: SignTable, idx) -> tuple[int, int]:
    """(variation factor, row of a lex-smallest witness line) for one index list."""
    idx = np.asarray(idx, dtype=np.intp)
    counts = _counts_from_matrix(table.signs[:, idx])
    row = int(np.argmax(counts))  # first max = lex-smallest line (rows sorted)
    return int(counts[row]), row


def vf_batch(table: SignTable, idx_batch: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Variation factors for a batch of equal-length index lists, shape (N,)."""
    n_lists = idx_batch.shape[0]
    out = np.empty(n_lists, dtype=np.int32)
    for start in range(0, n_lists, chunk):
        block = idx_batch[start:start + chunk]
        counts = _counts_from_matrix(table.signs[:, block])  # (L, B)
        out[start:start + block.shape[0]] = counts.max(axis=0)
    return out
