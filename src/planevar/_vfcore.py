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

Coordinates are lifted to integers once per point set (``geom``'s integer
lift); all candidate lines then have integer coefficients and exact signs.

Angle order
-----------
The interior directions need the distinct pair normals in angular order.
Canonical normals are coprime with angle in [0, pi) (b > 0, or b = 0 < a), so
two of them are equal exactly when their cross product u x v = u_a v_b -
u_b v_a is 0, and u comes before v exactly when u x v > 0. ``_by_angle``
sorts the normals by the float key ``arctan2(b, a)``, ties broken by (a, b),
and then checks every adjacent cross product exactly (int64, or Python
integers on object arrays). A 0 is a repeat of the previous normal and is
dropped; if every product is >= 0, the remaining chain of products > 0
proves the order, whatever rounding the key took. Otherwise it falls back to
an exact comparison sort (``cmp_to_key(_angle_cmp)``). That happens only
when the float key misorders two normals, or when a component does not fit
a float at all. The first needs scaled coordinates in the millions: two
distinct pair normals with components <= 2M differ in angle by at least
1/(8M^2), far above the key's rounding error of a few 1e-16 for smaller M.

Integer range
-------------
Let M be the largest |x| or |y| over the scaled points. Then

* pair differences, and so pair normals, have components <= 2M; an interior
  direction is the sum or difference of two pair normals or a pair normal
  turned by a right angle, so every normal component is <= 4M (reducing by
  a gcd only shrinks it);
* projections u . q are <= 4M*M + 4M*M = 8M^2 in absolute value;
* mid-gap lines (2a, 2b, t1 + t2) have coefficients <= 8M and offsets
  <= 16M^2;
* residuals a*x + b*y - c, and every partial sum of them, are
  <= 8M*M + 8M*M + 16M^2 = 32M^2.

So when 32M^2 <= 2^63 - 1 the whole build is exact in int64; otherwise the
same vectorized code runs on object arrays of Python integers.

Pair form
---------
The crossing segments of a list with signs s_0..s_{m-1}, m >= 2, are
defined by four rules (after Ashton and Doust), which exclude one another.
Segment j runs from position j to j+1, and it is a crossing segment when

1. s_j * s_{j+1} < 0 (strictly opposite signs);
2. j = 0 and s_0 = 0;
3. j > 0, s_j = 0 and s_{j-1} != 0;
4. j = m-2, s_{m-2} != 0 and s_{m-1} = 0.

Regroup the flags by the consecutive pair (s_p, s_{p+1}) they read:

* rule 1 on segment p is [s_p * s_{p+1} < 0];
* rule 3 on segment p+1 (p+1 <= m-2) and rule 4 on segment m-2 (p = m-2)
  both test "s_p off the line, s_{p+1} on it";
* rule 2 is [s_0 = 0] and reads the first point alone.

So every pair p = 0..m-2 contributes [s_p s_{p+1} < 0] + [s_p != 0 = s_{p+1}],
and the count of a list is

    [s_0 = 0] + sum over p of E(s_p, s_{p+1}),  E(a, b) = |a| - [a * b > 0],

which for m = 1 is the single-point convention. E(a, b) is 1 exactly when a
is off the line and b is not strictly on a's side. This sum is the only
count: ``_counts_from_matrix`` takes it over a gathered sign matrix,
``_sweep_counts`` takes it in interval form over one list (below), and
``variation.vf_line`` lists the segment each term flags. A list's
count vector over the L distinct sign patterns of a sign table is therefore
one "first" row of L terms plus one pair row per consecutive pair:

* ``vf_batch`` serves ``variation.var_exact_small``, which caps P at
  ``_EXACT_MAX_POINTS = 7``, so ``empty_level`` tabulates every pair row and
  every first row once per table, (P + 1) * P * L cells. A call steps from
  one level of lists to the next: a list of length m is a list of length
  m - 1, its parent, plus one index, so its count vector is the parent's
  plus one 0/1 row (the first row when the parent is the empty list, whose
  counts are all 0), and its vf is the largest entry of that sum. A step's
  parent rows need not cover the level before: ``var_exact_small`` steps
  only the parents its branch and bound keeps, each still indexed by its
  row in the full level, so a child's counts and vf are those of full
  enumeration and only the dropped subtrees go unbuilt.
* ``PackedCounts`` serves ``variation.var_search``, where P can reach ~100,
  so it computes a pair row on first use and keeps it in one P x P table
  of rows, read as ``tab[a][b]``. An annealing move
  keeps a prefix of c and a suffix of d entries of the current list, and
  ``variation._propose`` returns that span with the new list, so ``delta``
  scans nothing: the new counts are the old ones minus the pair rows of the
  old middle plus those of the new middle, one to four rows for insert,
  delete and replace, at most two per list position for swap and reverse.
  ``variation._anneal_once`` carries the list's jump terms over the same
  span.
  Its rows are not arrays but Python ints, one field of w =
  ``max_len.bit_length() + 1`` bits per pattern (SIMD within a register;
  Lamport, "Multiple byte processing with full-word instructions", CACM
  18(8), 1975). Point p keeps two masks,
  pos_p and neg_p, with a 1 at bit w*i where pattern i gives p the sign +1
  or -1, and their complements within the fields; so E(a, b) = (pos_a &
  ~pos_b) | (neg_a & ~neg_b), the first row of p is the mask of its zero
  signs, and adding or removing a row is one integer + or -. Integers are
  exact, so the fields of a list's counts are its counts, each in [0,
  max_len] < 2^(w-1), no borrow crosses a field, and any valid span gives
  the same int. The largest field is found by probing: with ONES the mask
  of every field's bit 0 and HIGH that of its top bit, some field is >= t
  (1 <= t <= 2^(w-1)) exactly when (X + (2^(w-1) - t) * ONES) & HIGH != 0,
  since no field then carries out. The probe steps t up or down from a
  hint, the count of the list one move before, so a proposal usually costs
  two probes. The constants are kept for the t probed, never for every t
  up to ``max_len``, which has no upper bound.

One list: per-direction sweep
-----------------------------
``vf_sweep`` counts a single list over the whole family without a sign
table. Fix a normal n and write u_p = n . q_p, so s_p = sign(u_p - t) for
the line at offset t. E(s_p, s_{p+1}) is 1 exactly when t != u_p and t lies
in the closed interval between u_p and u_{p+1}:

* u_p < u_{p+1}: E is 1 for t in (u_p, u_{p+1}];
* u_p > u_{p+1}: E is 1 for t in [u_{p+1}, u_p);
* u_p = u_{p+1}: E is never 1;

and the first term [s_0 = 0] is 1 at the single offset t = u_0.

The candidate offsets of n are its distinct projections v_0 < ... < v_{d-1}
and the gap midpoints. Give v_i the position 2i and the midpoint of gap i
the position 2i + 1. With r_p the rank of u_p among the v_i, pair p is 1
exactly on the positions 2r_p + 1 .. 2r_{p+1} (rising) or 2r_{p+1} ..
2r_p - 1 (falling), one contiguous run. So one difference array over
(direction, position), filled by ``np.bincount`` and summed along the
positions, plus 1 at position 2r_0, gives the count of every candidate line
in O(N (k + m)) cells for N directions, k distinct points and m list
entries, instead of the ~2k^3 * m signs of the table. Positions past 2d - 2
hold no run and count 0, below the vf >= 1 of any list.

``_dense_ranks`` ranks the k distinct points, an (N, k) array, and maps each
list entry to its point. ``_sweep_counts`` is this counts pass: it works in
blocks of ``_SWEEP_BLOCK`` consecutive pairs, gathering the block's ranks and
adding its runs to the one difference array, so its memory stays O(N (k +
max d + block)) however long the list. ``vf_sweep`` adds the witness pass.
The counts pass also serves the suite's criterion 1: one ``_dense_ranks`` of
the longer list counts it and, with that entry deleted from the index
vector, the list one point shorter, since one family serves every sublist.

Each cell is a line of the family: position 2i is (a, b, v_i) and 2i + 1 is
(2a, 2b, v_i + v_{i+1}); both are (2a, 2b, v_lo + v_hi) with lo = hi on a
projection. ``_canonical_rows`` puts cells in the form ``candidate_lines``
lists, and distinct cells are distinct lines, since canonical normals are
distinct directions. So the witness, the lex-smallest canonical maximal
cell, is the first maximal row of ``candidate_lines``; only the maximal
cells are canonicalised. ``build_sign_table`` reads the many-list
estimators' table off the same ranks (``_dense_ranks``): point p has sign
sign(2 r_p - pos) on the cell at position pos, negated when the normal has
a < 0, the one case in which ``_canonical_rows`` negates a canonical
normal's row (b > 0, or b = 0 < a).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .geom import Line, Point2, common_denominator

_INT64_MAX = (1 << 63) - 1
_SIGN_BLOCK = 4096     # sign-table rows filled at once
_SWEEP_BLOCK = 256     # list pairs one sweep pass gathers at once


# Defined here so that the sign-table size cap can raise a typed error;
# ``variation`` re-exports both and adds the other kinds.
class VariationError(ValueError):
    pass


class InstanceTooLarge(VariationError):
    pass


def scale_to_ints(points: tuple[Point2, ...]) -> tuple[list[tuple[int, int]], int]:
    """(integer points, scale): the coordinates lifted over one denominator."""
    flat, scale = common_denominator([c for p in points for c in (p.x, p.y)])
    return list(zip(flat[::2], flat[1::2])), scale


def _angle_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (1 if c < 0 else -1)


_ROT = np.array([-1, 1])   # (y, x) * _ROT = (-y, x): a quarter turn


def _by_angle(normals: np.ndarray) -> np.ndarray:
    """The distinct rows of canonical ``normals`` in increasing angle ("Angle order"
    in the module docstring)."""
    try:
        f = normals.astype(np.float64)
    except OverflowError:          # a component past the float range
        f = None
    if f is not None:
        o = normals[np.lexsort((normals[:, 1], normals[:, 0], np.arctan2(f[:, 1], f[:, 0])))]
        cross = o[:-1, 0] * o[1:, 1] - o[:-1, 1] * o[1:, 0]
        if (cross >= 0).all():
            keep = np.ones(len(o), dtype=bool)
            keep[1:] = cross > 0       # cross = 0: the same canonical normal again
            return o[keep]
    exact = sorted(set(map(tuple, normals.tolist())), key=cmp_to_key(_angle_cmp))
    return np.array(exact, dtype=normals.dtype)


def candidate_normals(pts: np.ndarray) -> np.ndarray:
    """Pair normals plus one strictly-interior direction per angular arc of the
    distinct points ``pts``, a (k, 2) array as ``_distinct_points`` builds it.

    Rows (a, b) are coprime with angle in [0, pi) (b > 0, or b = 0 < a), sorted
    lexicographically, in an (N, 2) array of the dtype of ``pts``.
    """
    if len(pts) < 2:
        return np.array([[0, 1]], dtype=pts.dtype)
    # by x, then by y downwards: q_j - q_i for i < j turns to (-dy, dx) in [0, pi)
    pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
    rot = pts[:, ::-1] * _ROT
    idx = np.arange(len(pts))
    normals = (rot - rot[:, None])[idx[:, None] < idx]
    normals //= np.gcd(normals[:, 0], normals[:, 1])[:, None]
    ordered = _by_angle(normals)
    if len(ordered) == 1:
        extra = ordered[:, ::-1] * _ROT                      # the perpendicular
    else:
        # the sum of neighbours, and last - first for the arc through angle pi
        extra = np.concatenate([ordered[:-1] + ordered[1:], ordered[-1:] - ordered[:1]])
    extra //= np.gcd(extra[:, 0], extra[:, 1])[:, None]
    if extra[-1, 1] < 0 or (extra[-1, 1] == 0 and extra[-1, 0] < 0):
        extra[-1] *= -1            # a sum of neighbours never points below the axis
    out = np.concatenate([ordered, extra])     # disjoint: each extra is inside its own arc
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def _coeff_dtype(int_points: list[tuple[int, int]]):
    """int64 when every residual provably fits, else object (Python integers).

    For M = max scaled |coordinate|: normal components <= 4M, projections
    <= 8M^2, mid-gap offsets <= 16M^2 and residuals <= 32M^2 (derived in the
    module docstring, "Integer range"), so 32M^2 <= 2^63 - 1 keeps every
    intermediate value of the build exact in int64.
    """
    m = max((max(abs(x), abs(y)) for x, y in int_points), default=0)
    return np.int64 if 32 * m * m <= _INT64_MAX else object


def _distinct_points(int_points: list[tuple[int, int]]) -> tuple[list, np.ndarray]:
    """The distinct points in sorted order, as a list of tuples and as one
    (k, 2) array in ``_coeff_dtype``'s dtype."""
    uniq = sorted(set(int_points))
    return uniq, np.array(uniq, dtype=_coeff_dtype(uniq)).reshape(-1, 2)


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Line rows (a, b, c) in canonical form, in place: divide by the gcd, then
    make the leading coefficient positive (as ``geom.Line.from_coeffs`` does)."""
    rows //= np.gcd(np.gcd(rows[:, 0], rows[:, 1]), rows[:, 2])[:, None]
    lead = np.where(rows[:, 0] != 0, rows[:, 0], rows[:, 1])
    rows[lead < 0] *= -1
    return rows


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices that sort line rows (a, b, c) lexicographically."""
    return np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))


# No production path calls candidate_lines or vf_of_indices: the tests use them
# as oracles of the family and of a list's count, and perfbench/tracer.py (with
# tests/test_tracer_guard.py) looks up candidate_lines, build_sign_table and
# vf_of_indices by name when it installs its spans. Moving the two into the
# tests waits for the layer trace to drop those spans (ROADMAP, item 1).
def candidate_lines(int_points: list[tuple[int, int]]) -> np.ndarray:
    """Complete candidate family: unique integer rows (a, b, c), sorted lexicographically.

    The array is int64 or object (Python integers), as ``_coeff_dtype`` decides.
    """
    _, pts = _distinct_points(int_points)                                     # (k, 2)
    normals = candidate_normals(pts)                                          # (N, 2)
    proj = np.sort(normals @ pts.T, axis=1)                                   # (N, k)
    # offsets at the projections, then at the midpoints of the open gaps
    on_point = np.column_stack([np.repeat(normals, len(pts), axis=0), proj.ravel()])
    r, j = np.nonzero(proj[:, 1:] != proj[:, :-1])
    mid_gap = np.column_stack([2 * normals[r], proj[r, j] + proj[r, j + 1]])
    rows = _canonical_rows(np.concatenate([on_point, mid_gap]))
    rows = rows[_lex_order(rows)]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


@dataclass(frozen=True)
class SignTable:
    """The distinct sign patterns of a sample's candidate family; counts read nothing else."""

    signs: np.ndarray      # (L, P) int8; one distinct row of sign(a*x + b*y - c) per pattern
    n_lines: int           # lines in the candidate family, before deduplication


_MAX_CANDIDATE_LINES = 2_000_000


def _refuse_large_family(distinct: int) -> None:
    """Raise InstanceTooLarge when the candidate family of ``distinct`` points is past the cap."""
    # ~(2 pairs + bisectors) * (2 offsets per projection) candidate lines
    est = (distinct * (distinct - 1) + 2) * (2 * distinct)
    if est > _MAX_CANDIDATE_LINES:
        raise InstanceTooLarge(
            f"candidate family for {distinct} distinct points would hold ~{est} "
            f"lines; the exact machinery is meant for desk-scale samples")


def _dense_ranks(points: tuple[Point2, ...]):
    """(scale, normals (N, 2), each direction's distinct projections in order
    (flat), their count per direction (N,), dense rank of each distinct point's
    projection among them (N, k), each entry's distinct point (m,)) over the N
    candidate normals."""
    int_pts, scale = scale_to_ints(points)
    uniq, pts = _distinct_points(int_pts)                                   # (k, 2)
    _refuse_large_family(len(uniq))
    normals = candidate_normals(pts)                                        # (N, 2)
    proj = normals @ pts.T                                                  # (N, k)
    row = np.arange(len(proj))[:, None]
    order = np.argsort(proj, axis=1)      # ties share a rank, so any order serves
    ranked = proj[row, order]
    new = np.ones(proj.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    rank = np.empty(proj.shape, dtype=np.intp)
    rank[row, order] = np.cumsum(new, axis=1) - 1
    at = {q: i for i, q in enumerate(uniq)}
    idx = np.array([at[q] for q in int_pts], dtype=np.intp)
    return scale, normals, ranked[new], new.sum(axis=1), rank, idx


def build_sign_table(points: tuple[Point2, ...]) -> SignTable:
    """The distinct sign patterns of the candidate family on ``points``, off the ranks.

    The signs are filled in int16: ``_refuse_large_family`` keeps the distinct
    points k to about 100, so a rank r_p and a position pos lie below 2k <= 200
    and 2 r_p - pos lies in (-200, 200), well inside int16's range.

    The rows are filled ``_SIGN_BLOCK`` lines at a time, and each block's rows
    go into one set as byte strings, so the family's signs are never held at
    once. The distinct rows come out in the byte order of their int8 signs
    (0, 1, then -1 as 0xff), the order a sort of the rows as ``np.void``
    gives. ``signs`` is a writable, C-contiguous int8 array.
    """
    _, normals, _, per_dir, rank, idx = _dense_ranks(points)
    rank = rank[:, idx]
    cells = 2 * per_dir - 1                              # positions 0..2d-2 per direction
    line_dir = np.repeat(np.arange(len(cells)), cells)
    line_pos = (np.arange(len(line_dir))
                - np.repeat(np.cumsum(cells) - cells, cells)).astype(np.int16)
    twice = (2 * rank).astype(np.int16)
    flip = np.where(normals[:, 0] < 0, np.int16(-1), np.int16(1))[:, None]
    # a void item's tolist() keeps its trailing zero bytes
    n_cols = rank.shape[1]
    as_bytes = np.dtype((np.void, n_cols))
    buf = np.empty((_SIGN_BLOCK, n_cols), dtype=np.int8)
    keys: set[bytes] = set()
    for start in range(0, len(line_dir), _SIGN_BLOCK):
        block = slice(start, start + _SIGN_BLOCK)
        d = line_dir[block]
        signs = buf[:len(d)]
        signs[...] = np.sign(twice[d] - line_pos[block, None]) * flip[d]
        keys.update(signs.view(as_bytes).ravel().tolist())
    distinct = np.frombuffer(bytearray().join(sorted(keys)), dtype=np.int8).reshape(-1, n_cols)
    return SignTable(signs=distinct, n_lines=len(line_dir))


def _run_diff(r: np.ndarray, base: np.ndarray, size: int) -> np.ndarray:
    """The difference array, flat over (direction, position), of the runs of the
    consecutive pairs in rank columns ``r`` (N, b); ``base`` is each direction's
    first cell."""
    # pair p adds 1 on the positions [start, stop); empty when r_p = r_{p+1}
    here, after = r[:, :-1], r[:, 1:]
    up = here < after
    start = np.where(up, 2 * here + 1, 2 * after)
    start += base
    stop = np.where(up, 2 * after + 1, 2 * here)
    stop += base
    diff = np.bincount(start.ravel(), minlength=size)
    diff -= np.bincount(stop.ravel(), minlength=size)
    return diff


def _sweep_counts(per_dir: np.ndarray, rank: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(N, 2 max d) count of the list of distinct points ``idx`` (m >= 1 entries)
    on every cell of the N directions, each with ``per_dir`` distinct
    projections, where ``rank`` (N, k) holds each distinct point's rank."""
    n_dirs = len(per_dir)
    row = np.arange(n_dirs)[:, None]
    width = 2 * int(per_dir.max())       # positions 0..2d-2, and one past the last
    size = n_dirs * width
    base = row * width
    # _SWEEP_BLOCK pairs at a time, so the temporaries stay (N, _SWEEP_BLOCK)
    diff = _run_diff(rank[:, idx[:_SWEEP_BLOCK + 1]], base, size)
    for lo in range(_SWEEP_BLOCK, len(idx) - 1, _SWEEP_BLOCK):
        diff += _run_diff(rank[:, idx[lo:lo + _SWEEP_BLOCK + 1]], base, size)
    counts = np.cumsum(diff.reshape(n_dirs, width), axis=1)
    counts[row[:, 0], 2 * rank[:, idx[0]]] += 1                             # [s_0 = 0]
    return counts


def vf_sweep(points: tuple[Point2, ...]) -> tuple[int, Line]:
    """(variation factor, lex-smallest canonical witness line) of one list, without
    a table ("One list: per-direction sweep" in the module docstring)."""
    scale, normals, vals, per_dir, rank, idx = _dense_ranks(points)
    counts = _sweep_counts(per_dir, rank, idx)
    vf = int(counts.max())
    # the maximal cells as lines (2a, 2b, v_lo + v_hi); lo = hi on a projection
    d, pos = np.nonzero(counts == vf)
    first = np.cumsum(per_dir) - per_dir
    offsets = vals[first[d] + pos // 2] + vals[first[d] + (pos + 1) // 2]
    rows = _canonical_rows(np.column_stack([2 * normals[d], offsets]))
    a, b, c = (int(v) for v in rows[_lex_order(rows)[0]])
    return vf, Line.from_coeffs(a, b, Fraction(c, scale))


def _pair_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E(a, b) = |a| - [a * b > 0] of the pair form, as booleans (broadcasting)."""
    e = a * b <= 0
    e &= a != 0         # in place: one temporary fewer at the peak
    return e


def _counts_from_matrix(S: np.ndarray) -> np.ndarray:
    """Pair-form crossing counts per row of sign matrix S of shape (..., m), m >= 1.

    For m = 1 the empty pair sum leaves the single-point convention [s_0 = 0].
    """
    return (S[..., 0] == 0) + _pair_terms(S[..., :-1], S[..., 1:]).sum(axis=-1, dtype=np.int32)


def vf_of_indices(table: SignTable, idx) -> int:
    """Variation factor of one index list: its largest count over the table's patterns."""
    return int(_counts_from_matrix(table.signs[:, np.asarray(idx, dtype=np.intp)]).max())


class PackedCounts:
    """Crossing counts of index lists of at most ``max_len`` points, packed into one int.

    A count vector over the table's L patterns is the Python int whose field i,
    bits w*i .. w*i + w - 1 with w = ``max_len.bit_length() + 1``, holds the
    count on pattern i ("Pair form" in the module docstring). ``full`` counts
    a list; ``delta`` turns the counts of one list into those of another
    through the pairs in which the two differ; ``vf`` reads the largest field.
    Pair rows are computed on first use and kept in one P x P table, read as
    ``tab[a][b]``, so one instance should serve every list drawn from its table.
    """

    def __init__(self, table: SignTable, max_len: int):
        S = table.signs.T                                   # (P, L)
        n_pts, n_rows = S.shape
        w = max_len.bit_length() + 1

        def masks(cond: np.ndarray) -> list[int]:
            """Per point, the int with bit w*i set where ``cond[point, i]`` holds."""
            fields = np.zeros((len(cond), n_rows, w), dtype=bool)
            fields[:, :, 0] = cond
            packed = np.packbits(fields.reshape(len(cond), -1), axis=1, bitorder="little")
            return [int.from_bytes(row.tobytes(), "little") for row in packed]

        self._pos, self._neg = masks(S > 0), masks(S < 0)
        ones = masks(np.ones((1, n_rows), dtype=bool))[0]
        # E(a, b) = (pos_a & ~pos_b) | (neg_a & ~neg_b) reads the complements as
        # non-negative masks: & with a negative int costs about twice as much
        self._not_pos = [ones ^ pos for pos in self._pos]
        self._not_neg = [ones ^ neg for neg in self._neg]
        self._first = [ones ^ pos ^ neg for pos, neg in zip(self._pos, self._neg)]
        self._high = ones << (w - 1)            # each field's top bit
        # tab[a][b] is E(a, b) once the pair has been met, None before
        self._tab: list[list[int | None]] = [[None] * n_pts for _ in range(n_pts)]
        self._offsets = _Offsets(1 << (w - 1), ones)    # for the t probed only

    def _pair(self, a: int, b: int) -> int:
        """E(a, b) over every pattern: 1 where a is off the line and b not on its side."""
        row = self._tab[a][b]
        if row is None:
            row = self._tab[a][b] = ((self._pos[a] & self._not_pos[b])
                                     | (self._neg[a] & self._not_neg[b]))
        return row

    def full(self, idx) -> int:
        """Packed count vector of one index list, as ``_counts_from_matrix`` gives it."""
        counts = self._first[idx[0]]
        for a, b in zip(idx, idx[1:]):
            counts += self._pair(a, b)
        return counts

    def delta(self, counts: int, old, new, c: int, d: int) -> int:
        """Packed count vector of list ``new``, given ``counts`` of list ``old``,
        where the two lists share their first ``c`` and their last ``d`` entries
        and c + d <= min(len(old), len(new)), as the move that made ``new`` says.

        Only the pairs that touch the middles change. The sums are exact
        integers, so every field of the result is the new count, in [0,
        ``max_len``], no borrow between fields survives, and every valid span,
        (0, 0) included, gives the same int.
        """
        tab, pair = self._tab, self._pair
        if c:
            lo = c - 1
        else:
            lo = 0
            counts += self._first[new[0]] - self._first[old[0]]
        # the pairs (lst[p], lst[p + 1]) for p from lo up to the suffix's first
        # entry; a row not yet met reads None, and a row of zeros (E(a, a), or a
        # and b at one point) is computed again
        a = old[lo]
        for b in old[lo + 1:len(old) + 1 - d]:
            counts -= tab[a][b] or pair(a, b)
            a = b
        a = new[lo]
        for b in new[lo + 1:len(new) + 1 - d]:
            counts += tab[a][b] or pair(a, b)
            a = b
        return counts

    def vf(self, counts: int, hint: int) -> int:
        """The largest field of ``counts``, probed up or down from ``hint`` in
        [0, ``max_len``], such as the count of a list one move away.

        Some field is >= t exactly when ``(counts + offsets[t]) & high`` is
        nonzero ("Pair form" in the module docstring).
        """
        offsets, high = self._offsets, self._high
        t = hint
        if t > 0 and not (counts + offsets[t]) & high:
            t -= 1
            while t > 0 and not (counts + offsets[t]) & high:
                t -= 1
            return t
        while (counts + offsets[t + 1]) & high:
            t += 1
        return t


class _Offsets(dict):
    """t -> (2^(w-1) - t) * ONES, the probe constant of t, made on first use."""

    def __init__(self, half: int, ones: int):
        super().__init__()
        self._half, self._ones = half, ones

    def __missing__(self, t: int) -> int:
        offset = self[t] = (self._half - t) * self._ones
        return offset


@dataclass(frozen=True)
class Level:
    """Index lists of one length, each a list of the level before plus one index,
    with each list's count on every pattern and its vf, the largest of them.

    ``rows`` are the rows a level step adds, shared by every level of a table:
    row a * P + b is E(a, b) over the table's patterns, and row P * P + b is
    [s_b = 0], the step from the empty list. Counts are int8: a count is at
    most one term per point, and ``var_exact_small`` caps lists at
    ``_EXACT_MAX_LEN = 6`` points.
    """

    rows: np.ndarray             # ((P + 1) * P, L) int8
    n_pts: int                   # P
    length: int
    last: np.ndarray             # (N,) each list's last index; P for the empty list
    vf: np.ndarray               # (N,) int32
    counts: np.ndarray           # (N, L) int8


def empty_level(table: SignTable) -> Level:
    """The level of the empty list, with count 0 on every pattern."""
    S = table.signs.T                                    # (P, L)
    n_pts, n_rows = S.shape
    rows = np.concatenate([_pair_terms(S[:, None, :], S[None, :, :]).reshape(-1, n_rows),
                           S == 0]).astype(np.int8)
    return Level(rows=rows, n_pts=n_pts, length=0, last=np.array([n_pts]),
                 vf=np.zeros(1, dtype=np.int32), counts=np.zeros((1, n_rows), dtype=np.int8))


def vf_batch(prev: Level, step: np.ndarray) -> Level:
    """The level one index longer than ``prev``: list i is list ``step[i, 0]`` of
    ``prev`` followed by index ``step[i, 1]``; ``step`` is an (N, 2) intp array.

    A list's counts are its parent's plus one 0/1 row, and its vf is their
    largest entry ("Pair form" in the module docstring).
    """
    parent, index = step[:, 0], step[:, 1]
    code = np.take(prev.last, parent) * prev.n_pts + index
    counts = np.take(prev.counts, parent, axis=0) + np.take(prev.rows, code, axis=0)
    return Level(rows=prev.rows, n_pts=prev.n_pts, length=prev.length + 1, last=index,
                 vf=counts.max(axis=1).astype(np.int32), counts=counts)
