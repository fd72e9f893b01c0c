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
from .geom import AffineMap, Line, Point2, cross, dist_sq, side_of


class PointOutsideDomain(VariationError):
    pass


class NonRealCoefficients(VariationError):
    pass


class DomainTooSmall(VariationError):
    pass


class MismatchedEstimate(VariationError):
    pass


class SingularMap(VariationError):
    pass


def is_exact_number(v) -> bool:
    """True for exact rational reals (int or Fraction); bool is not a number here."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


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

    @staticmethod
    def from_pairs(pairs) -> "SampledFunction":
        pts, vals = zip(*pairs)
        return SampledFunction(tuple(pts), tuple(vals))

    @staticmethod
    def from_callable(points, fn) -> "SampledFunction":
        pts = tuple(points)
        return SampledFunction(pts, tuple(fn(p) for p in pts))

    def value(self, p: Point2):
        idx = self._index.get(p)  # type: ignore[attr-defined]
        if idx is None:
            raise PointOutsideDomain(f"{p} not in sample")
        return self.values[idx]

    def index_of(self, p: Point2) -> int:
        idx = self._index.get(p)  # type: ignore[attr-defined]
        if idx is None:
            raise PointOutsideDomain(f"{p} not in sample")
        return idx

    def __contains__(self, p: Point2) -> bool:
        return p in self._index  # type: ignore[attr-defined]

    def restrict(self, points) -> "SampledFunction":
        pts = tuple(points)
        return SampledFunction(pts, tuple(self.value(p) for p in pts))

    @property
    def is_rational_real(self) -> bool:
        return all(is_exact_number(v) for v in self.values)

    def sup_abs(self):
        if self.is_rational_real:
            return max(abs(v) for v in self.values)
        return max(abs(complex(v)) for v in self.values)

    def diameter_sq(self) -> Fraction:
        pts = self.points
        return max((dist_sq(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]),
                   default=Fraction(0))


@dataclass(frozen=True)
class PlanarCoeffs:
    """Coefficients of the plane F(x, y) = a*x + b*y + c."""

    a: object
    b: object
    c: object

    def eval(self, p: Point2):
        return self.a * p.x + self.b * p.y + self.c

    @property
    def is_real(self) -> bool:
        return all(not isinstance(v, complex) or v.imag == 0 for v in (self.a, self.b, self.c))

    def grad_norm_sq(self):
        if isinstance(self.a, complex) or isinstance(self.b, complex):
            return abs(complex(self.a)) ** 2 + abs(complex(self.b)) ** 2
        return self.a * self.a + self.b * self.b


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
    vals = [f.value(p) for p in pts]
    exact = all(is_exact_number(v) for v in vals)
    if len(vals) == 1:
        return Fraction(0) if exact else 0.0
    if exact:
        return sum((abs(vals[i] - vals[i - 1]) for i in range(1, len(vals))),
                   Fraction(0))
    cvals = [complex(v) for v in vals]
    return float(sum(abs(cvals[i] - cvals[i - 1]) for i in range(1, len(cvals))))


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
    idx = np.flatnonzero(_vfcore._crossing_mask(signs)).tolist()
    return len(idx), idx


@dataclass(frozen=True)
class VfResult:
    vf: int
    witness: Line


def vf_exact(S) -> VfResult:
    """Maximum crossing count over all lines, via the complete candidate family.

    Ties are broken toward the lexicographically smallest canonical candidate
    line. For a single-point list the count is 1 (a line through the point).
    """
    pts = tuple(S)
    if not pts:
        raise VariationError("empty point list")
    table = _vfcore.build_sign_table(pts)
    count, row = _vfcore.vf_of_indices(table, np.arange(len(pts)))
    return VfResult(vf=count, witness=table.line_at(row))


def is_collinear(points) -> bool:
    pts = list(dict.fromkeys(points))
    if len(pts) <= 2:
        return True
    a, b = pts[0], pts[1]
    return all(cross(a, b, p) == 0 for p in pts[2:])


def var_planar(coeffs: PlanarCoeffs, sigma) -> object:
    """max - min of a real planar function over the sample (exact)."""
    if not coeffs.is_real:
        raise NonRealCoefficients("planar variation formula needs real coefficients")
    pts = tuple(sigma)
    if not pts:
        raise VariationError("empty sample")
    vals = [coeffs.eval(p) for p in pts]
    return max(vals) - min(vals)


def var_planar_estimate(coeffs: PlanarCoeffs, sigma) -> VarEstimate:
    """VarEstimate form of the planar formula (two-extreme-point witness)."""
    if not coeffs.is_real:
        raise NonRealCoefficients("planar variation formula needs real coefficients")
    pts = tuple(sigma)
    vals = [coeffs.eval(p) for p in pts]
    lo = min(range(len(pts)), key=lambda i: (vals[i], pts[i].x, pts[i].y))
    hi = max(range(len(pts)), key=lambda i: (vals[i], -pts[i].x, -pts[i].y))
    if vals[lo] == vals[hi]:
        return VarEstimate(value=vals[hi] - vals[lo], witness=(pts[lo],),
                           witness_vf=1, exact=True, method="planar")
    return VarEstimate(value=vals[hi] - vals[lo], witness=(pts[lo], pts[hi]),
                       witness_vf=1, exact=True, method="planar")


def var_collinear(f: SampledFunction) -> VarEstimate:
    """Exact variation for samples lying on one line (one-dimensional reduction).

    On a line the variation equals the one-dimensional variation of the values
    in projection order; the monotone list has variation factor 1.
    """
    if not is_collinear(f.points):
        raise VariationError("sample is not collinear")
    pts = list(f.points)
    if len(pts) == 1:
        zero = Fraction(0) if f.is_rational_real else 0.0
        return VarEstimate(value=zero, witness=(pts[0],), witness_vf=1,
                           exact=True, method="onedim")
    p0 = pts[0]
    ref = next((p for p in pts[1:] if p != p0), None)
    if ref is None:
        raise VariationError("degenerate sample")
    dx, dy = ref.x - p0.x, ref.y - p0.y
    ordered = sorted(pts, key=lambda p: dx * (p.x - p0.x) + dy * (p.y - p0.y))
    witness = tuple(ordered)
    value = cvar(f, witness)
    vf = vf_exact(witness).vf
    return VarEstimate(value=value if vf == 1 else value / vf, witness=witness,
                       witness_vf=vf, exact=True, method="onedim")


# ---------------------------------------------------------------------------
# exhaustive small-instance maximum

_EXACT_MAX_POINTS = 7
_EXACT_MAX_LEN = 6


def _index_sequences(k: int, m: int) -> np.ndarray:
    if m == 1:
        return np.arange(k, dtype=np.intp).reshape(-1, 1)
    prev = _index_sequences(k, m - 1)
    n = prev.shape[0]
    rep = np.repeat(prev, k, axis=0)
    last = np.tile(np.arange(k, dtype=np.intp), n)
    mask = rep[:, -1] != last
    return np.concatenate([rep[mask], last[mask, None]], axis=1)


def _diff_matrix(f: SampledFunction) -> np.ndarray:
    """Floating |f_i - f_j| for every pair of sample indices."""
    vals_c = np.array([complex(v) for v in f.values])
    return np.abs(vals_c[:, None] - vals_c[None, :])


def _witness_key(f: SampledFunction, value, seq) -> tuple:
    """Witness order: largest value, then fewest points, then lex-smallest coordinates."""
    return (-value, len(seq), tuple((f.points[i].x, f.points[i].y) for i in seq))


def var_exact_small(f: SampledFunction, max_len: int) -> VarEstimate:
    """Exact maximum of cvar/vf over all lists of at most ``max_len`` points.

    The value is exact with respect to the length cap (a certified lower
    bound for the full supremum). A vectorized floating pass ranks all
    candidate lists; every list within a 1e-9 relative window of the float
    maximum is then re-evaluated in exact arithmetic, which is sound because
    the float evaluation error of these short sums is ~1e-15 relative.
    """
    k = len(f.points)
    if k > _EXACT_MAX_POINTS:
        raise InstanceTooLarge(f"{k} points > {_EXACT_MAX_POINTS} (exhaustive cap)")
    if max_len > _EXACT_MAX_LEN:
        raise InstanceTooLarge(f"max_len {max_len} > {_EXACT_MAX_LEN} (exhaustive cap)")
    if max_len < 1:
        raise VariationError("max_len must be >= 1")

    table = _vfcore.build_sign_table(f.points)
    diff = _diff_matrix(f)

    per_len: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    best_float = 0.0
    top = 1 if k == 1 else max_len
    for m in range(1, top + 1):
        seqs = _index_sequences(k, m)
        vf = _vfcore.vf_batch(table, seqs)
        if m == 1:
            cv = np.zeros(len(seqs))
        else:
            cv = diff[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
        obj = cv / np.maximum(vf, 1)
        per_len.append((seqs, vf, obj))
        if len(obj):
            best_float = max(best_float, float(obj.max()))

    threshold = best_float - 1e-9 * (1.0 + abs(best_float))
    rational = f.is_rational_real
    if rational:
        exact_diff = {}
        for i in range(k):
            for j in range(k):
                exact_diff[(i, j)] = abs(f.values[i] - f.values[j])

    best_value = None
    best_key = None
    best_seq = None
    best_vf = 1
    for seqs, vf, obj in per_len:
        for row in np.nonzero(obj >= threshold)[0]:
            seq = tuple(int(v) for v in seqs[row])
            v = int(vf[row])
            if rational:
                total = sum((exact_diff[(seq[i], seq[i - 1])] for i in range(1, len(seq))),
                            Fraction(0))
                val = total / v
            else:
                val = float(obj[row])
            key = _witness_key(f, val, seq)
            if best_key is None or key < best_key:
                best_key = key
                best_value = val
                best_seq = seq
                best_vf = v
    assert best_seq is not None
    witness = tuple(f.points[i] for i in best_seq)
    return VarEstimate(value=best_value, witness=witness, witness_vf=best_vf,
                       exact=True, method="exhaustive_small")


# ---------------------------------------------------------------------------
# simulated annealing search

@dataclass(frozen=True)
class SearchConfig:
    iters: int = 2000
    restarts: int = 8
    seed: int = 0
    max_len: int = 12
    cooling: float = 0.995

    def __post_init__(self):
        if self.restarts < 1:
            raise VariationError(f"restarts must be >= 1, got {self.restarts}")
        if self.iters < 0:
            raise VariationError(f"iters must be >= 0, got {self.iters}")
        if self.max_len < 2:
            raise VariationError(f"max_len must be >= 2, got {self.max_len}")
        if not 0 < self.cooling <= 1:
            raise VariationError(f"cooling must lie in (0, 1], got {self.cooling}")


def _anneal_once(table, diff, k, cfg: SearchConfig, seed_entropy) -> dict:
    rng = np.random.default_rng(seed_entropy)
    t0 = float(diff.max())
    start = int(np.argmax(diff))
    cur = [start // k, start % k]
    if cur[0] == cur[1]:
        cur = [0, 1 % k] if k > 1 else [0]

    def evaluate(idx):
        vf, _ = _vfcore.vf_of_indices(table, idx)
        cv = float(diff[idx[:-1], idx[1:]].sum()) if len(idx) > 1 else 0.0
        return cv / max(vf, 1), vf

    cur_arr = np.asarray(cur, dtype=np.intp)
    cur_obj, cur_vf = evaluate(cur_arr)
    best = {"obj": cur_obj, "idx": list(cur), "vf": cur_vf}
    max_seen = cur_obj
    temp = t0 if t0 > 0 else 1.0
    proposals = 0
    attempts = 0
    while proposals < cfg.iters and attempts < 3 * cfg.iters:
        attempts += 1
        cand = _propose(rng, cur, k, cfg.max_len)
        if cand is None:
            continue
        idx = np.asarray(cand, dtype=np.intp)
        obj, vf = evaluate(idx)
        proposals += 1
        if obj > max_seen:
            max_seen = obj
        delta = obj - cur_obj
        if delta >= 0 or (temp > 1e-300 and rng.random() < math.exp(delta / temp)):
            cur, cur_obj = cand, obj
        if obj > best["obj"]:
            best = {"obj": obj, "idx": cand, "vf": vf}
        temp *= cfg.cooling
    best["max_seen"] = max_seen
    best["proposals"] = proposals
    return best


def _propose(rng, cur: list[int], k: int, max_len: int):
    moves = ["replace", "swap", "reverse"]
    if len(cur) < max_len:
        moves.append("insert")
    if len(cur) > 2:
        moves.append("delete")
    move = moves[int(rng.integers(len(moves)))]
    out = list(cur)
    n = len(out)
    if move == "insert":
        pos = int(rng.integers(n + 1))
        banned = set()
        if pos > 0:
            banned.add(out[pos - 1])
        if pos < n:
            banned.add(out[pos])
        allowed = [j for j in range(k) if j not in banned]
        if not allowed:
            return None
        out.insert(pos, allowed[int(rng.integers(len(allowed)))])
        return out
    if move == "delete":
        pos = int(rng.integers(n))
        if 0 < pos < n - 1 and out[pos - 1] == out[pos + 1]:
            return None
        del out[pos]
        return out
    if move == "replace":
        pos = int(rng.integers(n))
        banned = {out[pos]}
        if pos > 0:
            banned.add(out[pos - 1])
        if pos < n - 1:
            banned.add(out[pos + 1])
        allowed = [j for j in range(k) if j not in banned]
        if not allowed:
            return None
        out[pos] = allowed[int(rng.integers(len(allowed)))]
        return out
    if move == "swap":
        if n < 2:
            return None
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            return None
        out[i], out[j] = out[j], out[i]
    else:  # reverse
        if n < 3:
            return None
        i = int(rng.integers(n - 1))
        j = int(rng.integers(i + 1, n))
        out[i:j + 1] = reversed(out[i:j + 1])
    for a, b in zip(out, out[1:]):
        if a == b:
            return None
    return out


def var_search(f: SampledFunction, config: SearchConfig | None = None) -> VarEstimate:
    """Certified lower bound for the variation by simulated annealing.

    Deterministic for a fixed seed: restarts run one after another, restart r
    uses the r-th spawn of the root seed sequence, and the best result is the
    first in witness order (objective, length, coordinates). The witness value
    is recomputed exactly.
    """
    cfg = config or SearchConfig()
    k = len(f.points)
    if k == 1:
        zero = Fraction(0) if f.is_rational_real else 0.0
        return VarEstimate(value=zero, witness=(f.points[0],), witness_vf=1,
                           exact=False, method="anneal", seed=cfg.seed)
    table = _vfcore.build_sign_table(f.points)
    diff = _diff_matrix(f)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    results = [_anneal_once(table, diff, k, cfg, s) for s in children]
    best = min(results, key=lambda r: _witness_key(f, r["obj"], r["idx"]))
    witness = tuple(f.points[i] for i in best["idx"])
    exact_cv = cvar(f, witness)
    vf = best["vf"]
    value = exact_cv / vf if vf > 1 else exact_cv
    stats = {
        "proposals": int(sum(r["proposals"] for r in results)),
        "max_objective_seen": float(max(r["max_seen"] for r in results)),
        "restarts": cfg.restarts,
    }
    return VarEstimate(value=value, witness=witness, witness_vf=vf,
                       exact=False, method="anneal", seed=cfg.seed, stats=stats)


# ---------------------------------------------------------------------------
# norms and invariance helpers

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


def bv_norm(f: SampledFunction, est: VarEstimate):
    """sup |f| + variation estimate; exact whenever the estimate is."""
    verify_estimate(f, est)
    return f.sup_abs() + est.value


def lipschitz_ratio_sq(f: SampledFunction):
    """Exact max of |df|^2 / |dx|^2 over point pairs (Fraction when rational)."""
    pts = f.points
    if len(pts) < 2:
        raise DomainTooSmall("need at least two sample points")
    rational = f.is_rational_real
    best = Fraction(0) if rational else 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d2 = dist_sq(pts[i], pts[j])
            if rational:
                num = (f.values[i] - f.values[j]) ** 2
                ratio = Fraction(num) / d2
            else:
                num = abs(complex(f.values[i]) - complex(f.values[j])) ** 2
                ratio = num / float(d2)
            if ratio > best:
                best = ratio
    return best


def lipschitz_constant(f: SampledFunction) -> float:
    """Largest |value difference| / euclidean distance over all point pairs."""
    return math.sqrt(float(lipschitz_ratio_sq(f)))


def affine_pushforward(f: SampledFunction, phi: AffineMap) -> SampledFunction:
    """Transport the sample through an invertible affine map (values unchanged)."""
    if phi.det == 0:
        raise SingularMap("affine map must be invertible")
    return SampledFunction(tuple(phi.apply(p) for p in f.points), f.values)
