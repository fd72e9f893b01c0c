"""Curve variation, exact variation factors, and the two-dimensional variation.

The two-dimensional variation of a sampled function is the supremum over
ordered point lists of (curve variation) / (variation factor). Exhaustive
enumeration under a length cap yields exact values on tiny samples; simulated
annealing yields certified lower bounds with witnesses everywhere else. All
geometry is exact; function values are exact when the inputs are rational
reals and floating otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _vfcore
from ._vfcore import InstanceTooLarge, VariationError
from .geom import Line, Point2, common_denominator, cross, side_of


class PointOutsideDomain(VariationError):
    pass


class NonRealCoefficients(VariationError):
    pass


class MismatchedEstimate(VariationError):
    pass


def is_exact_number(v) -> bool:
    """True for exact rational reals (int or Fraction); bool is not a number here."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


# The value rule: a reduction over sample values is exact when every value is
# exact and complex-float otherwise. These helpers are its one implementation.

def all_exact(values) -> bool:
    """True when every value is exact."""
    return all(is_exact_number(v) for v in values)


def float_overflow(exc: OverflowError) -> VariationError:
    """The typed error for a value past the float range."""
    return VariationError(f"values overflow floating point: {exc}")


def _on_floats(reduce, values):
    """``reduce`` of the values as complex floats; past the float range, VariationError."""
    try:
        return reduce([complex(v) for v in values])
    except OverflowError as exc:
        raise float_overflow(exc) from None


def magnitudes(values) -> list:
    """|v| per value."""
    vals = list(values)
    if all_exact(vals):
        return [abs(v) for v in vals]
    return _on_floats(lambda c: [abs(v) for v in c], vals)


def jump_sum(values):
    """Sum of |consecutive jumps|; Fraction(0) or 0.0 for a single value.
    A float sum past the float range is VariationError."""
    vals = list(values)
    if all_exact(vals):
        return sum((abs(vals[i] - vals[i - 1]) for i in range(1, len(vals))), Fraction(0))
    total = _on_floats(lambda c: float(sum(abs(c[i] - c[i - 1]) for i in range(1, len(c)))), vals)
    if not math.isfinite(total):
        raise float_overflow(OverflowError(f"jump sum {total!r}"))
    return total


FLOAT_TOL = 1e-9  # how far two values may differ when either is a float


def values_agree(a, b) -> bool:
    """a == b when both are exact, otherwise |a - b| <= FLOAT_TOL."""
    if is_exact_number(a) and is_exact_number(b):
        return a == b
    return _on_floats(lambda c: abs(c[0] - c[1]) <= FLOAT_TOL, (a, b))


@dataclass(frozen=True)
class SampledFunction:
    """Finite map from plane sample points to complex (or exact rational) values."""

    points: tuple[Point2, ...]
    values: tuple

    def __post_init__(self):
        if not self.points:
            raise VariationError("empty sample")
        if len(self.points) != len(self.values):
            raise VariationError("points/values length mismatch")
        index = {}
        for i, p in enumerate(self.points):
            if p in index:
                raise VariationError(f"duplicate sample point {p}")
            index[p] = i
        object.__setattr__(self, "_index", index)

    def value(self, p: Point2):
        idx = self._index.get(p)  # type: ignore[attr-defined]
        if idx is None:
            raise PointOutsideDomain(f"{p} not in sample")
        return self.values[idx]

    def __contains__(self, p: Point2) -> bool:
        return p in self._index  # type: ignore[attr-defined]

    def restrict(self, points) -> "SampledFunction":
        pts = tuple(points)
        return SampledFunction(pts, tuple(self.value(p) for p in pts))

    @property
    def is_rational_real(self) -> bool:
        return all_exact(self.values)


@dataclass(frozen=True)
class PlanarCoeffs:
    """Coefficients of the plane F(x, y) = a*x + b*y + c."""

    a: object
    b: object
    c: object

    def eval(self, p: Point2):
        try:
            return self.a * p.x + self.b * p.y + self.c
        except OverflowError as exc:    # a float beside an exact value past its range
            raise float_overflow(exc) from None

    @property
    def is_real(self) -> bool:
        return all(not isinstance(v, complex) or v.imag == 0 for v in (self.a, self.b, self.c))


@dataclass(frozen=True)
class VarEstimate:
    """Certified lower bound (sometimes exact value) for the 2-D variation."""

    value: object
    witness: tuple[Point2, ...]
    witness_vf: int
    exact: bool
    method: str  # exhaustive_small | anneal | planar | onedim
    seed: int | None = None
    stats: dict = field(default_factory=dict, compare=False, repr=False)


def cvar(f: SampledFunction, S) -> object:
    """Curve variation: sum of |value jumps| along the ordered list S."""
    pts = list(S)
    if not pts:
        raise VariationError("empty point list")
    return jump_sum(f.value(p) for p in pts)


def vf_line(S, line: Line) -> tuple[int, list[int]]:
    """Crossing-segment count of the list S on one line, with segment indices.

    Single-point convention: count 1 iff the point lies on the line.
    """
    pts = list(S)
    if not pts:
        raise VariationError("empty point list")
    signs = np.array([side_of(line, p).value for p in pts], dtype=np.int8)
    if len(pts) == 1:
        return int(_vfcore._counts_from_matrix(signs)), []
    # the pair form's terms, each on its segment ("Pair form" in _vfcore): pair p
    # marks segment p, or p + 1 when it lands on the line (p + 1 <= m - 2), and
    # [s_0 = 0] marks segment 0
    pair = np.arange(len(pts) - 1)
    segment = np.where(signs[1:] == 0, np.minimum(pair + 1, len(pts) - 2), pair)
    idx = [0] * int(signs[0] == 0) + segment[_vfcore._pair_terms(signs[:-1], signs[1:])].tolist()
    return len(idx), idx


@dataclass(frozen=True)
class VfResult:
    vf: int
    witness: Line


def vf_exact(S) -> VfResult:
    """Maximum crossing count over all lines, via the complete candidate family.

    ``_vfcore.vf_sweep`` counts the family one direction at a time, without a
    sign table. Ties are broken toward the lexicographically smallest
    canonical candidate line. For a single-point list the count is 1 (a line
    through the point).
    """
    pts = tuple(S)
    if not pts:
        raise VariationError("empty point list")
    count, witness = _vfcore.vf_sweep(pts)
    return VfResult(vf=count, witness=witness)


def is_collinear(points) -> bool:
    pts = list(dict.fromkeys(points))
    if len(pts) <= 2:
        return True
    a, b = pts[0], pts[1]
    return all(cross(a, b, p) == 0 for p in pts[2:])


def var_planar(coeffs: PlanarCoeffs, sigma) -> object:
    """max - min of a real planar function over the sample (exact)."""
    return var_planar_estimate(coeffs, sigma).value


def var_planar_estimate(coeffs: PlanarCoeffs, sigma) -> VarEstimate:
    """VarEstimate form of the planar formula (two-extreme-point witness)."""
    if not coeffs.is_real:
        raise NonRealCoefficients("planar variation formula needs real coefficients")
    pts = tuple(sigma)
    if not pts:
        raise VariationError("empty sample")
    vals = [coeffs.eval(p) for p in pts]
    lo = min(range(len(pts)), key=lambda i: (vals[i], pts[i].x, pts[i].y))
    hi = max(range(len(pts)), key=lambda i: (vals[i], -pts[i].x, -pts[i].y))
    witness = (pts[lo],) if vals[lo] == vals[hi] else (pts[lo], pts[hi])
    return VarEstimate(value=vals[hi] - vals[lo], witness=witness,
                       witness_vf=1, exact=True, method="planar")


def var_collinear(f: SampledFunction) -> VarEstimate:
    """Exact variation for samples lying on one line (one-dimensional reduction).

    On a line the variation equals the one-dimensional variation of the values
    in projection order. That monotone list of distinct points has variation
    factor 1: the carrier line counts [s_0 = 0] = 1, and any other line meets
    the carrier at most once, so the signs along the list change at most once
    and give at most one crossing term.
    """
    pts = f.points
    if not is_collinear(pts):
        raise VariationError("sample is not collinear")
    p0 = pts[0]
    ref = pts[1] if len(pts) > 1 else p0     # sample points are distinct
    dx, dy = ref.x - p0.x, ref.y - p0.y
    witness = tuple(sorted(pts, key=lambda p: dx * (p.x - p0.x) + dy * (p.y - p0.y)))
    return VarEstimate(value=cvar(f, witness), witness=witness,
                       witness_vf=1, exact=True, method="onedim")


# ---------------------------------------------------------------------------
# exhaustive small-instance maximum

_EXACT_MAX_POINTS = 7
_EXACT_MAX_LEN = 6


def _extensions(last: np.ndarray, k: int) -> np.ndarray:
    """(parent row, index) of every list one index longer than the lists whose last
    indices are ``last``: each list followed by every index in range(k) other
    than its last, in lexicographic order when the lists are. A last index of
    k (the empty list) excludes none."""
    return np.argwhere(np.arange(k) != last[:, None])


def _lists(steps: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The index lists at ``rows`` of the level that ``steps[-1]`` made, rebuilt
    along the parent rows, as a (len(rows), len(steps)) array."""
    out = np.empty((len(rows), len(steps)), dtype=np.intp)
    for col in range(len(steps) - 1, -1, -1):
        out[:, col] = steps[col][rows, 1]
        rows = steps[col][rows, 0]
    return out


def _diff_matrix(f: SampledFunction, max_len: int) -> np.ndarray:
    """Floating |f_i - f_j| for every pair of sample indices; VariationError
    when ``max_len`` times the largest is past the float range, so that no
    sum of a list's jumps, nor a bound on one, can overflow."""
    vals_c = _on_floats(np.array, f.values)
    with np.errstate(over="ignore"):
        diff = np.abs(vals_c[:, None] - vals_c[None, :])
    j_max = float(diff.max())
    if not math.isfinite(j_max * max_len):
        raise float_overflow(OverflowError(f"{max_len} jumps of up to {j_max!r}"))
    return diff


def _point_ranks(f: SampledFunction) -> list[int]:
    """Rank of each sample point in (x, y) order. Witness order: largest value,
    fewest points, then the smallest sequence of point ranks."""
    k = len(f.points)
    rank = [0] * k
    for r, i in enumerate(sorted(range(k), key=lambda i: (f.points[i].x, f.points[i].y))):
        rank[i] = r
    return rank


def var_exact_small(f: SampledFunction, max_len: int) -> VarEstimate:
    """Exact maximum of cvar/vf over all lists of at most ``max_len`` points.

    The value is exact with respect to the length cap (a certified lower
    bound for the full supremum). The lists are built level by level from
    the empty list: a list of length m is a list of length m - 1 plus one
    index (``_extensions``, in lexicographic order), and a level is only the
    (parent row, index) pairs. ``_vfcore.vf_batch`` carries the counts from
    each level to the next, and each list's jump sum J is its parent's plus
    one jump, the same left-to-right sum as adding all m - 1 jumps.

    A list's score orders the lists by value. On rational values, lifted to
    integers z_i over one denominator D, the value is J / (D * vf) with J an
    integer; vf <= max_len divides s = lcm(1, ..., max_len), so the score
    J * (s // vf) is the value times D * s, exact. It is int64 while
    2 * max_len * s * max |z| fits and object (Python ints) past that, as
    ``_vfcore._coeff_dtype`` decides. On other values the score is the float
    J / vf, and ``_diff_matrix`` refuses values whose jump sums could overflow.

    Branch and bound (Land and Doig, 1960): before a level is stepped, a
    parent with jump sum J, vf v and r levels left is dropped when the score
    of J + reach[last] + (r - 1) * J_max at vf max(v, 1), times 1 + 1e-12 on
    floats for rounding, lies strictly below the best score so far;
    ``reach[i]`` is the largest jump from point i and J_max the largest of
    all. A descendant's jump sum is at most that, and its vf at least v, since
    appending a point never lowers vf. So every list at the best score is
    stepped; a level that no parent survives into is not.

    The winner has the best score, then the fewest points, then the smallest
    sequence of point ranks (``_point_ranks``): the lists at the best score of
    the shortest level that holds one are rebuilt along their parent rows and
    ordered by ``np.lexsort``. ``stats`` names the ``exact_path`` (``rational``
    or ``float``), counts the lists at the best score as ``rechecked`` and
    gives the ``lists`` stepped at each level after pruning.
    """
    k = len(f.points)
    if k > _EXACT_MAX_POINTS:
        raise InstanceTooLarge(f"{k} points > {_EXACT_MAX_POINTS} (exhaustive cap)")
    if max_len > _EXACT_MAX_LEN:
        raise InstanceTooLarge(f"max_len {max_len} > {_EXACT_MAX_LEN} (exhaustive cap)")
    if max_len < 1:
        raise VariationError("max_len must be >= 1")

    table = _vfcore.build_sign_table(f.points)
    top = 1 if k == 1 else max_len
    rational = f.is_rational_real
    if rational:
        z, den = common_denominator(f.values)
        s = math.lcm(*range(1, top + 1))
        fits = 2 * top * s * max(map(abs, z)) <= _vfcore._INT64_MAX
        dtype = np.int64 if fits else object
        diff = np.array([[abs(b - a) for b in z] for a in z], dtype=dtype)
        weight = np.array([s // max(v, 1) for v in range(top + 1)], dtype=dtype)
        slack = 1

        def score(jump_sum, vf):
            return jump_sum * np.take(weight, vf)
    else:
        diff = _diff_matrix(f, top)
        slack = 1 + 1e-12

        def score(jump_sum, vf):
            return jump_sum / np.maximum(vf, 1)
    # row k: the jump from the empty list, 0
    jumps = np.concatenate([diff, np.zeros((1, k), dtype=diff.dtype)])
    reach = jumps.max(axis=1)
    j_max = reach.max()
    jumps = jumps.ravel()

    steps: list[np.ndarray] = []
    per_len: list[tuple[np.ndarray, np.ndarray]] = []
    level = _vfcore.empty_level(table)
    cv = np.zeros(1, dtype=jumps.dtype)
    best = None
    for left in range(top, 0, -1):
        parents = np.arange(len(cv))
        if best is not None:
            bound = score(cv + np.take(reach, level.last) + (left - 1) * j_max, level.vf) * slack
            parents = parents[~(bound < best)]
            if not len(parents):
                break
        step = _extensions(np.take(level.last, parents), k)
        step[:, 0] = np.take(parents, step[:, 0])
        parent = step[:, 0]
        cv = np.take(cv, parent) + np.take(jumps, np.take(level.last, parent) * k + step[:, 1])
        level = _vfcore.vf_batch(level, step)
        steps.append(step)
        obj = score(cv, level.vf)
        per_len.append((level.vf, obj))
        best = obj.max() if best is None else max(best, obj.max())

    ties = [np.flatnonzero(obj == best) for _, obj in per_len]
    m = next(m for m, rows in enumerate(ties, 1) if len(rows))
    seqs = _lists(steps[:m], ties[m - 1])
    win = np.lexsort(np.take(_point_ranks(f), seqs).T[::-1])[0]
    value = Fraction(int(best), den * s) if rational else float(best)
    stats = {"table_rows": table.n_lines, "distinct_rows": len(table.signs),
             "exact_path": "rational" if rational else "float",
             "rechecked": sum(len(rows) for rows in ties),
             "lists": tuple(len(step) for step in steps)}
    return VarEstimate(value=value, witness=tuple(f.points[i] for i in seqs[win]),
                       witness_vf=int(per_len[m - 1][0][ties[m - 1][win]]),
                       exact=True, method="exhaustive_small", stats=stats)


# ---------------------------------------------------------------------------
# simulated annealing search

MAX_RESTARTS = 100_000   # restarts of one search; each runs a whole annealing schedule
MAX_ITERS = 10_000_000   # proposals of one restart
COOLING = 0.995          # the temperature's factor per proposal


@dataclass(frozen=True)
class SearchConfig:
    iters: int = 2000
    restarts: int = 8
    seed: int = 0
    max_len: int = 12

    def __post_init__(self):
        if self.seed < 0:
            raise VariationError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise VariationError(f"restarts must be >= 1, got {self.restarts}")
        if self.restarts > MAX_RESTARTS:
            raise VariationError(f"restarts must be <= {MAX_RESTARTS}, got {self.restarts}")
        if self.iters < 0:
            raise VariationError(f"iters must be >= 0, got {self.iters}")
        if self.iters > MAX_ITERS:
            raise VariationError(f"iters must be <= {MAX_ITERS}, got {self.iters}")
        if self.max_len < 2:
            raise VariationError(f"max_len must be >= 2, got {self.max_len}")


class _Draws:
    """The draws of ``np.random.default_rng(seed)``, replayed from raw PCG64 words.

    ``integers`` and ``random`` return what the same calls on the Generator
    return, in the same order, for the 64-bit words of the same stream. The
    words are pulled in blocks through ``random_raw`` and read as Python
    ints, which saves the per-call overhead of the Generator methods.

    - ``integers(low, high)`` is Lemire's bounded draw on 32-bit halves
      (Lemire, "Fast random integer generation in an interval", ACM TOMACS
      29, 2019), as ``random_bounded_uint64_fill`` runs it for a range below
      2^32: a half u gives ``low + (u*n >> 32)`` unless the low 32 bits of
      ``u*n`` lie below ``(2^32 - n) % n``, which draws again. A word
      yields its low half first and keeps its high half for the next 32-bit
      draw, as PCG64's ``has_uint32`` buffer does. A range of one consumes
      nothing.
    - ``random()`` is ``(u64 >> 11) * 2^-53`` of a whole word and leaves
      the buffered half alone.

    NEP 19 allows the Generator's streams to change between numpy versions;
    ``test_draws_replay_the_generator`` compares the replay with
    ``np.random.default_rng`` over a long mixed stream.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")
    _BLOCK = 512

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._words: list[int] = []
        self._pos = self._BLOCK         # the first draw reads the first block
        self._half: int | None = None

    def _refill(self) -> int:
        """Read the next block of words; the position of its first word, 0."""
        self._words = self._bitgen.random_raw(self._BLOCK).tolist()
        return 0

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) when ``high`` is None."""
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        if not 0 < n < 1 << 32:
            raise VariationError(f"draw range {n} outside [1, 2**32)")
        while True:
            u = self._half
            if u is None:
                pos = self._pos
                if pos == self._BLOCK:
                    pos = self._refill()
                word = self._words[pos]
                self._pos = pos + 1
                self._half = word >> 32
                u = word & 0xFFFFFFFF
            else:
                self._half = None
            m = u * n
            # Lemire's threshold (2^32 - n) % n is below n: only a low part below n needs it
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= ((1 << 32) - n) % n:
                return low + (m >> 32)

    def random(self) -> float:
        """A float in [0, 1)."""
        pos = self._pos
        if pos == self._BLOCK:
            pos = self._refill()
        self._pos = pos + 1
        return (self._words[pos] >> 11) * (1.0 / (1 << 53))


def _float_sum(terms: list) -> float:
    """``float(np.array(terms).sum())`` bit for bit, for a list of floats.

    numpy adds the pairwise sum of a float64 vector to the reduction's
    initial 0.0. Under 8 terms that sum is a plain loop, and a loop that
    starts at 0.0 gives the same bits. Up to 128 terms it runs 8 strided
    accumulators, combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    tail in order. Longer vectors are split in halves recursively; from 128
    terms on this calls numpy itself, since ``SearchConfig.max_len`` has no
    upper bound. ``test_float_sum_matches_numpy`` guards the replica.
    """
    n = len(terms)
    if n < 8:
        total = 0.0
        for v in terms:
            total += v
        return total
    if n >= 128:
        return float(np.array(terms).sum())
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        r0 += terms[i]
        r1 += terms[i + 1]
        r2 += terms[i + 2]
        r3 += terms[i + 3]
        r4 += terms[i + 4]
        r5 += terms[i + 5]
        r6 += terms[i + 6]
        r7 += terms[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in terms[stop:]:
        total += v
    return 0.0 + total


def _anneal_once(pairs: _vfcore.PackedCounts, diff, k, cfg: SearchConfig, seed_entropy) -> dict:
    rng = _Draws(seed_entropy)
    t0 = float(diff.max())
    start = int(np.argmax(diff))
    cur = [start // k, start % k]
    if cur[0] == cur[1]:
        cur = [0, 1]
    rows = diff.tolist()
    # the hot loop reads only locals; a list's objective is the float sum of its
    # jump terms over max(vf, 1), and the current list's terms are carried
    propose, delta, vf_of, float_sum = _propose, pairs.delta, pairs.vf, _float_sum
    random, exp, cooling = rng.random, math.exp, COOLING
    iters, max_len = cfg.iters, cfg.max_len

    cur_counts = pairs.full(cur)
    cur_vf = vf_of(cur_counts, 0)
    cur_terms = [rows[cur[0]][cur[1]]]
    cur_obj = float_sum(cur_terms) / (cur_vf or 1)
    best_obj, best_idx, best_vf = cur_obj, list(cur), cur_vf
    max_seen = cur_obj
    temp = t0 if t0 > 0 else 1.0
    proposals = accepted = attempts = 0
    while proposals < iters and attempts < 3 * iters:
        attempts += 1
        move = propose(rng, cur, k, max_len)
        if move is None:
            continue
        cand, c, d = move
        counts = delta(cur_counts, cur, cand, c, d)
        vf = vf_of(counts, cur_vf)
        # the terms of the pairs that delta swaps, between the kept prefix and
        # suffix; the rest are the current list's
        lo = c - 1 if c else 0
        terms = cur_terms[:lo]
        a = cand[lo]
        for b in cand[lo + 1:len(cand) + 1 - d]:
            terms.append(rows[a][b])
            a = b
        terms += cur_terms[len(cur) - d:]
        obj = float_sum(terms) / (vf or 1)
        proposals += 1
        if obj > max_seen:
            max_seen = obj
        change = obj - cur_obj
        if change >= 0 or (temp > 1e-300 and random() < exp(change / temp)):
            cur, cur_obj, cur_counts, cur_vf, cur_terms = cand, obj, counts, vf, terms
            accepted += 1
        if obj > best_obj:
            best_obj, best_idx, best_vf = obj, cand, vf
        temp *= cooling
    return {"obj": best_obj, "idx": best_idx, "vf": best_vf, "max_seen": max_seen,
            "proposals": proposals, "accepted": accepted, "attempts": attempts,
            "temperature": temp}


def _propose(rng, cur: list[int], k: int, max_len: int):
    """A random move of ``cur``: (the new list, c, d), or None for a move that
    would repeat an index next to itself or has nothing to act on.

    ``cur`` must have no equal neighbours. The start list of a restart has
    none, and no move returns one, so this holds along every walk. The checks
    rest on it: an insert's two neighbours are distinct, and a swap or reverse
    can only make equal neighbours at the pairs around the entries it moves.

    The move is drawn as a code into (replace, swap, reverse, insert, delete),
    with insert only while the list is shorter than ``max_len`` and delete
    only while it is longer than 2 (code 3 is delete when insert is out). A
    new entry is drawn from the indices that equal none of its neighbours, in
    ascending order, by one draw stepped past each banned index at or below it.

    The new list keeps the first c and the last d entries of ``cur``, with
    c + d <= the length of either list: (pos, n - pos) for an insert at pos,
    (pos, n - 1 - pos) for a delete or replace at pos, and (i, n - 1 - j)
    for a swap or reverse of i < j, where n = len(cur).
    """
    n = len(cur)
    grow = n < max_len
    move = rng.integers(3 + grow + (n > 2))
    if move == 0 or move == 3 and grow:             # replace or insert at pos
        insert = move == 3
        pos = rng.integers(n + insert)
        lo = pos - 1 if pos else 0
        # a replace's outer neighbours may be equal; an insert's two never are
        banned = sorted(cur[lo:pos + 1]) if insert else sorted(set(cur[lo:pos + 2]))
        n_allowed = k - len(banned)
        if n_allowed <= 0:
            return None
        value = rng.integers(n_allowed)
        for b in banned:
            if value >= b:
                value += 1
        if insert:
            return cur[:pos] + [value] + cur[pos:], pos, n - pos
        return cur[:pos] + [value] + cur[pos + 1:], pos, n - 1 - pos
    if move >= 3:                                   # delete at pos
        pos = rng.integers(n)
        if 0 < pos < n - 1 and cur[pos - 1] == cur[pos + 1]:
            return None
        return cur[:pos] + cur[pos + 1:], pos, n - 1 - pos
    if move == 1:                                   # swap i < j
        if n < 2:
            return None
        i = rng.integers(n)
        j = rng.integers(n)
        if i == j:
            return None
        if i > j:
            i, j = j, i
        a, b = cur[i], cur[j]
        if (i and cur[i - 1] == b or j < n - 1 and cur[j + 1] == a
                or j - i > 1 and (cur[i + 1] == b or cur[j - 1] == a)):
            return None
        out = list(cur)
        out[i], out[j] = b, a
        return out, i, n - 1 - j
    if n < 3:                                       # reverse cur[i..j], i < j
        return None
    i = rng.integers(n - 1)
    j = rng.integers(i + 1, n)
    if i and cur[i - 1] == cur[j] or j < n - 1 and cur[j + 1] == cur[i]:
        return None
    return cur[:i] + cur[j:i - 1 if i else None:-1] + cur[j + 1:], i, n - 1 - j


def var_search(f: SampledFunction, config: SearchConfig | None = None) -> VarEstimate:
    """Certified lower bound for the variation by simulated annealing.

    Deterministic for a fixed seed: restarts run one after another, restart r
    uses the r-th spawn of the root seed sequence, and the best result is the
    first in witness order (``_point_ranks``). The witness value
    is recomputed exactly. ``stats`` counts proposals and accepted moves over
    all restarts, and ``attempts``, the ``_propose`` calls, of which
    1 - proposals / attempts proposed nothing; ``final_temperature`` is the
    warmest restart's last temperature. A one-point sample has one list and
    no move: its ``stats`` has the same keys, with no proposal, attempt or
    accepted move.

    A proposal makes no numpy call at all, unless its list has 128 points or
    more (``_float_sum``); ``_Draws`` refills its words once per 512. The
    counts are ``_vfcore.PackedCounts`` ints: ``_propose`` returns the prefix
    and suffix its move keeps, ``delta`` adds and removes the pair rows
    between them, and the variation factor is probed from the current
    list's. The jump terms of the current list are carried, and a proposal
    looks up only those between the same prefix and suffix. The loop holds
    every method it calls in a local and writes the objective out inline.
    Each restart replays ``np.random.default_rng(seed)`` from raw PCG64 words
    (``_Draws``), and sums the list's jumps in numpy's pairwise order
    (``_float_sum``). Both give the same ints and float bits as the Generator
    and ``ndarray.sum`` would. So the proposals, the accept decisions and
    every output byte are those of the Generator-driven search. NEP 19 lets a
    numpy upgrade change Generator streams; ``test_draws_replay_the_generator``
    and ``test_float_sum_matches_numpy`` then fail and name the numpy version.
    """
    cfg = config or SearchConfig()
    k = len(f.points)
    table = _vfcore.build_sign_table(f.points)
    if k == 1:
        # the one list has no jump and no move: nothing is proposed, and the
        # temperature stays at the start a zero jump table gives
        results = [{"max_seen": 0.0, "proposals": 0, "accepted": 0, "attempts": 0,
                    "temperature": 1.0}]
        witness, vf = (f.points[0],), 1
        value = cvar(f, witness)
    else:
        diff = _diff_matrix(f, cfg.max_len)
        pairs = _vfcore.PackedCounts(table, cfg.max_len)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
        results = [_anneal_once(pairs, diff, k, cfg, s) for s in children]
        rank = _point_ranks(f)
        best = min(results, key=lambda r: (-r["obj"], len(r["idx"]),
                                           [rank[i] for i in r["idx"]]))
        witness = tuple(f.points[i] for i in best["idx"])
        vf = best["vf"]
        value = cvar(f, witness) / vf
    stats = {
        "proposals": int(sum(r["proposals"] for r in results)),
        "max_objective_seen": float(max(r["max_seen"] for r in results)),
        "accepted": int(sum(r["accepted"] for r in results)),
        "attempts": int(sum(r["attempts"] for r in results)),
        "final_temperature": float(max(r["temperature"] for r in results)),
        "restarts": cfg.restarts,
        "table_rows": table.n_lines,
        "distinct_rows": len(table.signs),
    }
    return VarEstimate(value=value, witness=witness, witness_vf=vf,
                       exact=False, method="anneal", seed=cfg.seed, stats=stats)


# ---------------------------------------------------------------------------
# witness recomputation

def verify_estimate(f: SampledFunction, est: VarEstimate) -> None:
    """Recompute the estimate's value from its witness; raise on mismatch."""
    try:
        cv = cvar(f, est.witness)
    except PointOutsideDomain as exc:
        raise MismatchedEstimate(str(exc)) from exc
    vf = est.witness_vf
    value = cv / vf if vf > 1 else cv
    if isinstance(value, Fraction) and isinstance(est.value, Fraction):
        ok = value == est.value
    else:
        ok = math.isclose(float(value), float(est.value), rel_tol=1e-9, abs_tol=1e-12)
    if not ok:
        raise MismatchedEstimate(
            f"estimate value {est.value} does not match witness recomputation {value}")
