"""Variation on compact subsets of the real line.

Covers the one-dimensional variation, the gap-interpolating extension to the
enclosing interval (an isometry for the variation norm), the absolute-
continuity modulus as a budgeted maximization over non-overlapping interval
families, and the standard example generators (alternating reciprocals,
Cantor-function levels, one-over-n samples) with exact rational data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction

from .geom import to_fraction
from .variation import InstanceTooLarge, _on_floats, all_exact, jump_sum, magnitudes


class OnedimError(ValueError):
    pass


class GridOutsideJ(OnedimError):
    pass


@dataclass(frozen=True)
class RealSample:
    """Strictly increasing finite tuple of exact rationals."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.points:
            raise OnedimError("empty sample")
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise OnedimError("sample points must be strictly increasing")

    @staticmethod
    def of(values) -> "RealSample":
        return RealSample(tuple(sorted({to_fraction(v) for v in values})))

    @property
    def lo(self) -> Fraction:
        return self.points[0]

    @property
    def hi(self) -> Fraction:
        return self.points[-1]


@dataclass(frozen=True)
class RealFunction1D:
    """Finite map sample point -> value (complex, or exact rational real)."""

    sample: RealSample
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.sample.points):
            raise OnedimError("values must align with the sample")

    @staticmethod
    def from_pairs(pairs) -> "RealFunction1D":
        items = sorted(((to_fraction(x), v) for x, v in pairs), key=lambda kv: kv[0])
        return RealFunction1D(RealSample(tuple(x for x, _ in items)),
                              tuple(v for _, v in items))

    def at(self, x) -> object:
        x = to_fraction(x)
        try:
            idx = self.sample.points.index(x)
        except ValueError:
            raise OnedimError(f"{x} not in sample") from None
        return self.values[idx]


def var_1d(f: RealFunction1D):
    """Variation over the sample: the full increasing list dominates, so the
    value is the plain sum of consecutive |value jumps| (exact when rational)."""
    return jump_sum(f.values)


def bv_norm_1d(f: RealFunction1D):
    return max(magnitudes(f.values)) + var_1d(f)


def _iota_value(f: RealFunction1D, x: Fraction):
    """f at a sample point; inside a gap (a, b), the value on the segment
    between f(a) and f(b). ``x`` must lie in [lo, hi]."""
    pts = f.sample.points
    i = bisect_left(pts, x)
    if pts[i] == x:
        return f.values[i]
    a, b = pts[i - 1], pts[i]
    fa, fb = f.values[i - 1], f.values[i]
    t = (x - a) / (b - a)
    if all_exact((fa, fb)):
        return fa + (fb - fa) * t
    v = _on_floats(lambda c: c[0] + (c[1] - c[0]) * t, (fa, fb))
    # the same bits as the float expression; a float when neither end is complex
    return v if isinstance(fa, complex) or isinstance(fb, complex) else v.real


def iota_extend(f: RealFunction1D, grid: RealSample) -> RealFunction1D:
    """Extend by linear interpolation across sample gaps onto sample ∪ grid.

    The extension is an isometry for the variation: interpolated values lie on
    the segment between the gap endpoints, so the jump sums telescope.
    """
    sample = f.sample
    for x in grid.points:
        if not (sample.lo <= x <= sample.hi):
            raise GridOutsideJ(f"grid point {x} outside [{sample.lo}, {sample.hi}]")
    merged = sorted(set(sample.points) | set(grid.points))
    return RealFunction1D(RealSample(tuple(merged)), tuple(_iota_value(f, x) for x in merged))


# ---------------------------------------------------------------------------
# absolute-continuity modulus

@dataclass(frozen=True)
class AcModulus:
    """Max jump-sum over non-overlapping interval families with bounded length.

    Budget convention is closed (total length <= delta). ``exact`` is False
    when the greedy fallback produced the (still feasible, certified) witness.
    """

    value: object
    witness: tuple[tuple[Fraction, Fraction], ...]
    exact: bool


_AC_EXACT_CAP = 24
_AC_MAX_PAIRS = 25_000    # sample pairs within delta that the greedy family may rank


def ac_modulus(f: RealFunction1D, delta, mode: str = "auto") -> AcModulus:
    """Maximize sum |f(t)-f(s)| over families of non-overlapping (s, t) with
    endpoints in the sample and total length <= delta.

    Exact branch-and-bound (suffix variation as the admissible bound) up to 24
    points; beyond that, ``auto`` falls back to a greedy feasible family whose
    value is computed exactly but flagged inexact. ``mode="exact"`` raises
    InstanceTooLarge instead of falling back. The greedy family ranks every
    sample pair within ``delta``, so past ``_AC_MAX_PAIRS`` such pairs it
    raises InstanceTooLarge before it builds one. Taken intervals have disjoint
    interiors, so sorted by start they are sorted by end too.
    """
    delta = to_fraction(delta)
    if delta <= 0:
        raise OnedimError("delta must be positive")
    ts = f.sample.points
    n = len(ts)
    rational = all_exact(f.values)
    vals = f.values if rational else _on_floats(tuple, f.values)

    def jump(i: int, j: int):
        return abs(vals[j] - vals[i])

    if mode not in ("auto", "exact", "greedy"):
        raise OnedimError(f"unknown mode {mode!r}")
    if mode == "exact" and n > _AC_EXACT_CAP:
        raise InstanceTooLarge(f"{n} points > {_AC_EXACT_CAP} for exact mode")
    use_exact = mode == "exact" or (mode == "auto" and n <= _AC_EXACT_CAP)
    if not use_exact:
        pairs = 0
        for i, t in enumerate(ts):
            pairs += bisect_right(ts, t + delta, i + 1) - i - 1
            if pairs > _AC_MAX_PAIRS:
                raise InstanceTooLarge(f"more than {_AC_MAX_PAIRS} sample pairs lie within "
                                       f"delta; the greedy family is meant for desk-scale "
                                       f"samples")

    zero = Fraction(0) if rational else 0.0
    if n < 2:
        return AcModulus(zero, (), True)

    suffix = [zero] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] + jump(i, i + 1)

    if use_exact:
        best_val = zero
        best_wit: tuple[tuple[int, int], ...] = ()

        def dfs(start: int, budget, acc, chosen):
            nonlocal best_val, best_wit
            if acc > best_val:
                best_val = acc
                best_wit = chosen
            for i in range(start, n - 1):
                if acc + suffix[i] <= best_val:
                    break  # suffix bound decreases with i
                for j in range(i + 1, n):
                    length = ts[j] - ts[i]
                    if length > budget:
                        break
                    dfs(j, budget - length, acc + jump(i, j), chosen + ((i, j),))

        dfs(0, delta, zero, ())
        witness = tuple((ts[i], ts[j]) for i, j in best_wit)
        return AcModulus(best_val, witness, True)

    # greedy fallback: take intervals by jump density, then shortness
    cands = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            length = ts[j] - ts[i]
            if length > delta:
                break
            w = jump(i, j)
            if w > 0:
                cands.append((w / length, -length, -i, -j, i, j, w, length))
    cands.sort(reverse=True)
    taken: list[tuple[int, int]] = []     # sorted (start, end) index pairs
    total = zero
    remaining = delta
    for _, _, _, _, i, j, w, length in cands:
        if length > remaining:
            continue
        k = bisect_left(taken, (j,))          # taken[:k] start before j
        if k and i < taken[k - 1][1]:
            continue
        insort(taken, (i, j))
        total = total + w
        remaining -= length
    witness = tuple((ts[i], ts[j]) for i, j in taken)
    return AcModulus(total, witness, False)


# ---------------------------------------------------------------------------
# example generators (exact rational data)

def _reciprocals(ks) -> RealFunction1D:
    """The reciprocal_alternating sample restricted to the given k."""
    pairs = [(Fraction(0), Fraction(0))]
    pairs += [(Fraction(1, k), Fraction((-1) ** k, k)) for k in ks]
    return RealFunction1D.from_pairs(pairs)


def reciprocal_alternating(n: int) -> RealFunction1D:
    """Sample {0} ∪ {1/k : k <= n} with value (-1)^k / k at 1/k and 0 at 0."""
    return _reciprocals(range(1, n + 1))


def reciprocal_odd(n: int) -> RealFunction1D:
    return _reciprocals(range(1, n + 1, 2))


def reciprocal_even(n: int) -> RealFunction1D:
    return _reciprocals(range(2, n + 1, 2))


def cantor_level(k: int) -> RealFunction1D:
    """Endpoints of the level-k middle-thirds intervals with Cantor-function values."""
    if k < 0 or k > 10:
        raise OnedimError("cantor level must be in 0..10")
    intervals = [(Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    for _ in range(k):
        nxt = []
        for a, b, fa, fb in intervals:
            third = (b - a) / 3
            mid = (fa + fb) / 2
            nxt.append((a, a + third, fa, mid))
            nxt.append((b - third, b, mid, fb))
        intervals = nxt
    pairs = {}
    for a, b, fa, fb in intervals:
        pairs[a] = fa
        pairs[b] = fb
    return RealFunction1D.from_pairs(pairs.items())


def one_over_n(n: int) -> RealFunction1D:
    """Sample {0} ∪ {1/m : m <= n}; values f(x) = x (a simple continuous member)."""
    pairs = [(Fraction(0), Fraction(0))]
    for m in range(1, n + 1):
        pairs.append((Fraction(1, m), Fraction(1, m)))
    return RealFunction1D.from_pairs(pairs)


_EXAMPLE_KINDS = {
    "reciprocal-alternating": reciprocal_alternating,
    "reciprocal-odd": reciprocal_odd,
    "reciprocal-even": reciprocal_even,
    "cantor": cantor_level,
    "one-over-n": one_over_n,
}


MAX_EXAMPLE_N = 100_000      # the size argument of make_example, for every kind


def make_example(kind: str, n: int) -> RealFunction1D:
    """The example ``kind`` of size ``n``; n above ``MAX_EXAMPLE_N`` is refused
    with OnedimError before any sample point is made."""
    try:
        gen = _EXAMPLE_KINDS[kind]
    except KeyError:
        raise OnedimError(f"unknown example kind {kind!r}; "
                          f"choose from {sorted(_EXAMPLE_KINDS)}") from None
    if n > MAX_EXAMPLE_N:
        raise OnedimError(f"example size must be <= {MAX_EXAMPLE_N}, got {n}")
    return gen(n)

