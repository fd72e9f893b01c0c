"""Curve variation, variation factors, and the 2-D variation estimates."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planevar import _vfcore, variation
from planevar._vfcore import (
    _counts_from_matrix,
    build_sign_table,
    candidate_lines,
    candidate_normals,
    empty_level,
    vf_batch,
    vf_of_indices,
)
from planevar.ctpp import BumpSpec, CtppFunction, make_bumps, validate_ctpp
from planevar.geom import (
    AffineMap,
    GeomError,
    Line,
    P,
    Rectangle,
    common_denominator,
    dist_sq,
    grid_triangulation,
    side_of,
    to_fraction,
)
from planevar.suite import _crossing_count_reference, vf_pattern_oracle
from planevar.variation import (
    MAX_ITERS,
    MAX_RESTARTS,
    _Draws,
    _extensions,
    _float_sum,
    _lists,
    _propose,
    InstanceTooLarge,
    MismatchedEstimate,
    NonRealCoefficients,
    PlanarCoeffs,
    PointOutsideDomain,
    SampledFunction,
    SearchConfig,
    VarEstimate,
    VariationError,
    all_exact,
    cvar,
    is_collinear,
    is_exact_number,
    jump_sum,
    magnitudes,
    values_agree,
    var_collinear,
    var_exact_small,
    var_planar,
    var_planar_estimate,
    var_search,
    verify_estimate,
    vf_exact,
    vf_line,
)


def _affine(m00, m01, m10, m11, t0=0, t1=0) -> AffineMap:
    """An ``AffineMap`` with its entries made exact."""
    return AffineMap(*(to_fraction(v) for v in (m00, m01, m10, m11, t0, t1)))


def _line_through(p, q) -> Line:
    """The line through two distinct points, in ``Line.from_coeffs``' canonical form."""
    a, b = q.y - p.y, p.x - q.x
    return Line.from_coeffs(a, b, a * p.x + b * p.y)


def _pushforward(f: SampledFunction, phi: AffineMap) -> SampledFunction:
    """The sample carried through ``phi``: image points, the same values."""
    return SampledFunction(tuple(phi.apply(p) for p in f.points), f.values)


def _bv_norm(f: SampledFunction, est: VarEstimate):
    """sup |f| + var(f), with the estimate first recomputed from its witness."""
    verify_estimate(f, est)
    return max(magnitudes(f.values)) + est.value


def _lipschitz(f: SampledFunction) -> float:
    """Largest |f(p) - f(q)| / |p - q| over the point pairs of an exact sample."""
    pairs = itertools.combinations(zip(f.points, f.values), 2)
    return math.sqrt(max(Fraction((u - v) ** 2) / dist_sq(p, q) for (p, u), (q, v) in pairs))


def rand_point(rng, span=6, den=6):
    return P(Fraction(rng.randint(-span * den, span * den), den),
             Fraction(rng.randint(-span * den, span * den), den))


SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
F_X = SampledFunction(SQUARE, tuple(p.x for p in SQUARE))

RECIP_PTS = (P(1, 0), P(Fraction(1, 2), 0), P(Fraction(1, 3), 0), P(Fraction(1, 4), 0))
RECIP = SampledFunction(
    RECIP_PTS, (Fraction(-1), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)))


class TestCvar:
    def test_constant_zero(self):
        f = SampledFunction(SQUARE, (5, 5, 5, 5))
        assert cvar(f, SQUARE) == 0

    def test_zigzag(self):
        pts = (P(0, 0), P(1, 0))
        f = SampledFunction(pts, (Fraction(0), Fraction(1)))
        assert cvar(f, [pts[0], pts[1], pts[0], pts[1]]) == 3

    def test_alternating_reciprocals(self):
        assert cvar(RECIP, RECIP_PTS) == Fraction(35, 12)

    def test_point_outside_domain(self):
        with pytest.raises(PointOutsideDomain):
            cvar(F_X, [P(5, 5)])

    def test_single_point_zero(self):
        assert cvar(F_X, [SQUARE[0]]) == 0

    def test_complex_values(self):
        f = SampledFunction((P(0, 0), P(1, 0)), (0j, 3 + 4j))
        assert cvar(f, f.points) == pytest.approx(5.0)


class TestVfLine:
    def test_strict_crossing(self):
        count, idx = vf_line([P(0, 0), P(1, 0)], Line.from_coeffs(1, 0, Fraction(1, 2)))
        assert (count, idx) == (1, [0])

    def test_start_on_line(self):
        count, idx = vf_line([P(0, 0), P(1, 0)], Line.from_coeffs(0, 1, 0))
        assert (count, idx) == (1, [0])

    def test_touch_and_leave(self):
        count, idx = vf_line([P(0, 0), P(1, 1), P(2, 0)], Line.from_coeffs(0, 1, 0))
        assert (count, idx) == (2, [0, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=10))
    @example([0, 0])
    @example([1, 0])
    @example([1, 0, -1, 0, 0, 1, 0])
    def test_segments_follow_the_four_rules(self, signs):
        """Each pair-form term names its segment as ``_crossing_mask`` flags it."""
        pts = [P(i, s) for i, s in enumerate(signs)]          # side of y = 0 is sign(s)
        mask = _crossing_mask(np.array(signs, dtype=np.int8))
        assert vf_line(pts, Line.from_coeffs(0, 1, 0)) == (int(mask.sum()),
                                                          np.flatnonzero(mask).tolist())

    def test_single_point_convention(self):
        assert vf_line([P(0, 5)], Line.from_coeffs(1, 0, 0)) == (1, [])
        assert vf_line([P(1, 5)], Line.from_coeffs(1, 0, 0)) == (0, [])

    def test_never_exceeds_exact(self):
        rng = random.Random(5)
        for _ in range(50):
            pts = [rand_point(rng) for _ in range(rng.randint(2, 7))]
            res = vf_exact(pts)
            for _ in range(20):
                p, q = rand_point(rng), rand_point(rng)
                if p == q:
                    continue
                count, _ = vf_line(pts, _line_through(p, q))
                assert count <= res.vf


class TestVfExact:
    def test_single_point(self):
        assert vf_exact([P(0, 0)]).vf == 1

    def test_zigzag_three(self):
        res = vf_exact([P(0, 0), P(1, 0), P(0, 0), P(1, 0)])
        assert res.vf == 3
        assert res.witness == Line(2, 0, 1)  # x = 1/2

    def test_monotone_collinear_one(self):
        assert vf_exact([P(-1, 0), P(0, 0), P(1, 0)]).vf == 1

    def test_witness_attains(self):
        rng = random.Random(11)
        for _ in range(40):
            pts = [rand_point(rng) for _ in range(rng.randint(1, 8))]
            res = vf_exact(pts)
            count, _ = vf_line(pts, res.witness)
            assert count == res.vf
            assert 1 <= res.vf <= max(len(pts) - 1, 1)

    def test_reversal_invariance(self):
        rng = random.Random(13)
        for _ in range(40):
            pts = [rand_point(rng) for _ in range(rng.randint(2, 7))]
            assert vf_exact(pts).vf == vf_exact(list(reversed(pts))).vf

    def test_collinear_between_insertion_preserves_vf(self):
        # inserting a point on the segment between its neighbours never changes vf
        rng = random.Random(17)
        for _ in range(60):
            pts = [rand_point(rng) for _ in range(rng.randint(2, 6))]
            j = rng.randrange(len(pts) - 1)
            t = Fraction(rng.randint(1, 7), 8)
            mid = P(pts[j].x + (pts[j + 1].x - pts[j].x) * t,
                    pts[j].y + (pts[j + 1].y - pts[j].y) * t)
            plus = pts[:j + 1] + [mid] + pts[j + 1:]
            assert vf_exact(pts).vf == vf_exact(plus).vf

    def test_insertion_monotonicity_small(self):
        rng = random.Random(19)
        for _ in range(150):
            pts = [rand_point(rng) for _ in range(rng.randint(2, 8))]
            w = rand_point(rng)
            pos = rng.randint(0, len(pts))
            plus = pts[:pos] + [w] + pts[pos:]
            assert vf_exact(pts).vf <= vf_exact(plus).vf


class TestVarPlanar:
    def test_fx_on_square(self):
        assert var_planar(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                          SQUARE) == 1

    def test_constant(self):
        assert var_planar(PlanarCoeffs(Fraction(0), Fraction(0), Fraction(7)),
                          SQUARE) == 0

    def test_two_points(self):
        assert var_planar(PlanarCoeffs(Fraction(2), Fraction(3), Fraction(0)),
                          (P(0, 0), P(1, 1))) == 5

    def test_complex_rejected(self):
        with pytest.raises(NonRealCoefficients):
            var_planar(PlanarCoeffs(1j, 0, 0), SQUARE)

    @pytest.mark.parametrize("fn", [var_planar, var_planar_estimate])
    def test_empty_sample_rejected(self, fn):
        with pytest.raises(VariationError, match="empty sample"):
            fn(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)), ())

    def test_estimate_witness_consistent(self):
        est = var_planar_estimate(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                                  SQUARE)
        assert est.exact and est.method == "planar" and est.witness_vf == 1
        f = SampledFunction(SQUARE, tuple(p.x for p in SQUARE))
        verify_estimate(f, est)


class TestVarExactSmall:
    def test_two_point_modulus(self):
        f = SampledFunction((P(0, 0), P(1, 1)), (0j, 3 + 4j))
        est = var_exact_small(f, 3)
        assert est.value == pytest.approx(5.0)

    def test_back_and_forth_matches_single_pass(self):
        f = SampledFunction((P(0, 0), P(1, 0)), (Fraction(0), Fraction(1)))
        est = var_exact_small(f, 4)
        assert est.value == 1 and est.exact

    def test_collinear_reciprocals(self):
        est = var_exact_small(RECIP, 4)
        assert est.value == Fraction(35, 12)
        assert est.value == var_collinear(RECIP).value

    def test_matches_planar_formula(self):
        rng = random.Random(23)
        for _ in range(20):
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=3, den=4)
                if p not in pts:
                    pts.append(p)
            coeffs = PlanarCoeffs(Fraction(rng.randint(-8, 8), 4),
                                  Fraction(rng.randint(-8, 8), 4), Fraction(0))
            f = SampledFunction(tuple(pts), tuple(coeffs.eval(p) for p in pts))
            assert var_exact_small(f, 4).value == var_planar(coeffs, pts)

    def test_restriction_monotonicity(self):
        rng = random.Random(29)
        for _ in range(15):
            pts = []
            while len(pts) < 6:
                p = rand_point(rng, span=3, den=3)
                if p not in pts:
                    pts.append(p)
            vals = tuple(Fraction(rng.randint(-12, 12), 4) for _ in pts)
            f = SampledFunction(tuple(pts), vals)
            sub = f.restrict(pts[:4])
            assert var_exact_small(sub, 4).value <= var_exact_small(f, 4).value

    def test_guards(self):
        pts = tuple(P(i, 0) for i in range(8))
        f = SampledFunction(pts, tuple(Fraction(i) for i in range(8)))
        with pytest.raises(InstanceTooLarge):
            var_exact_small(f, 4)
        with pytest.raises(InstanceTooLarge):
            var_exact_small(RECIP, 7)


class TestVarSearch:
    def test_single_point(self):
        f = SampledFunction((P(0, 0),), (Fraction(3),))
        assert var_search(f).value == 0

    def test_corners_match_planar(self):
        est = var_search(F_X, SearchConfig(iters=400, restarts=4, seed=0))
        assert est.value == 1
        assert not est.exact and est.method == "anneal"

    def test_pyramid_lower_bound(self):
        pts = tuple(P(i, 0) for i in (-1, 0, 1)) + tuple(
            P(i, j) for i in (-1, 0, 1) for j in (-1, 1))
        from planevar.ctpp import pyramid_bump
        f = SampledFunction(pts, tuple(pyramid_bump(p) for p in pts))
        est = var_search(f, SearchConfig(iters=2000, restarts=4, seed=1))
        assert est.value >= 2

    def test_determinism(self):
        e1 = var_search(F_X, SearchConfig(iters=300, restarts=3, seed=42))
        e2 = var_search(F_X, SearchConfig(iters=300, restarts=3, seed=42))
        assert e1.value == e2.value and e1.witness == e2.witness

    def test_never_above_exact_cap(self):
        rng = random.Random(31)
        for _ in range(10):
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=3, den=3)
                if p not in pts:
                    pts.append(p)
            vals = tuple(Fraction(rng.randint(-8, 8), 2) for _ in pts)
            f = SampledFunction(tuple(pts), vals)
            exact = var_exact_small(f, 6)
            search = var_search(f, SearchConfig(iters=800, restarts=4, seed=7,
                                                max_len=6))
            assert search.value <= exact.value


class TestNormsAndMaps:
    def test_bv_norm_constant(self):
        pts = SQUARE
        f = SampledFunction(pts, (Fraction(5),) * 4)
        est = var_exact_small(f, 3)
        assert _bv_norm(f, est) == 5

    def test_bv_norm_planar(self):
        est = var_planar_estimate(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                                  SQUARE)
        assert _bv_norm(F_X, est) == 2

    def test_bv_norm_mismatch(self):
        wrong = VarEstimate(value=Fraction(9), witness=(SQUARE[0], SQUARE[1]),
                            witness_vf=1, exact=True, method="planar")
        with pytest.raises(MismatchedEstimate):
            verify_estimate(F_X, wrong)

    def test_lipschitz_examples(self):
        assert _lipschitz(SampledFunction(SQUARE, (1, 1, 1, 1))) == 0
        two = SampledFunction((P(0, 0), P(1, 0)), (Fraction(0), Fraction(1)))
        assert _lipschitz(two) == 1

    def test_planar_lipschitz_bounded_by_gradient(self):
        rng = random.Random(37)
        for _ in range(20):
            a = Fraction(rng.randint(-6, 6), 2)
            b = Fraction(rng.randint(-6, 6), 2)
            coeffs = PlanarCoeffs(a, b, Fraction(1))
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=4, den=4)
                if p not in pts:
                    pts.append(p)
            f = SampledFunction(tuple(pts), tuple(coeffs.eval(p) for p in pts))
            grad = math.sqrt(float(a * a + b * b))
            assert _lipschitz(f) <= grad + 1e-12

    def test_lip_diameter_bound(self):
        rng = random.Random(41)
        for _ in range(10):
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=3, den=3)
                if p not in pts:
                    pts.append(p)
            vals = tuple(Fraction(rng.randint(-10, 10), 4) for _ in pts)
            f = SampledFunction(tuple(pts), vals)
            est = var_exact_small(f, 5)
            diam = math.sqrt(float(max(dist_sq(a, b) for a in f.points for b in f.points)))
            assert float(est.value) <= diam * _lipschitz(f) + 1e-9

    def test_affine_identity_and_translation(self):
        shift = _affine(1, 0, 0, 1, 1, 1)
        est = var_exact_small(F_X, 4)
        assert vf_exact(est.witness).vf == vf_exact(
            tuple(shift.apply(p) for p in est.witness)).vf

    def test_affine_invariance_of_var(self):
        rng = random.Random(43)
        rot90 = _affine(0, -1, 1, 0)
        for _ in range(8):
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=3, den=2)
                if p not in pts:
                    pts.append(p)
            vals = tuple(Fraction(rng.randint(-8, 8), 2) for _ in pts)
            f = SampledFunction(tuple(pts), vals)
            assert var_exact_small(f, 4).value == \
                var_exact_small(_pushforward(f, rot90), 4).value
            while True:
                phi = _affine(*(Fraction(rng.randint(-4, 4), 2) for _ in range(4)),
                              rng.randint(-2, 2), rng.randint(-2, 2))
                if phi.det != 0:
                    break
            assert var_exact_small(f, 4).value == \
                var_exact_small(_pushforward(f, phi), 4).value

    def test_singular_map_rejected(self):
        # AffineMap.inverse refuses a map of determinant 0
        with pytest.raises(GeomError, match="^singular affine map$"):
            _affine(1, 1, 1, 1).inverse()

    def test_product_norm_lower_bound(self):
        # search lower bound of a product never exceeds the product of exact norms
        pts = tuple(P(Fraction(i, 2), 0) for i in range(5))
        cf = PlanarCoeffs(Fraction(1, 2), Fraction(0), Fraction(1, 4))
        cg = PlanarCoeffs(Fraction(-1, 3), Fraction(0), Fraction(1))
        f = SampledFunction(pts, tuple(cf.eval(p) for p in pts))
        g = SampledFunction(pts, tuple(cg.eval(p) for p in pts))
        prod = SampledFunction(pts, tuple(a * b for a, b in zip(f.values, g.values)))
        bf = _bv_norm(f, var_planar_estimate(cf, pts))
        bg = _bv_norm(g, var_planar_estimate(cg, pts))
        est = var_search(prod, SearchConfig(iters=1500, restarts=4, seed=3))
        assert _bv_norm(prod, est) <= bf * bg


def test_is_collinear():
    assert is_collinear((P(0, 0), P(1, 1), P(2, 2)))
    assert not is_collinear((P(0, 0), P(1, 1), P(2, 0)))


def test_var_search_repeats_under_one_seed():
    cfg = SearchConfig(iters=300, restarts=4, seed=5)
    first = var_search(F_X, cfg)
    again = var_search(F_X, cfg)
    assert first.value == again.value
    assert first.witness == again.witness
    assert first.stats["max_objective_seen"] == again.stats["max_objective_seen"]


def test_var_collinear_requires_collinear():
    with pytest.raises(Exception):
        var_collinear(F_X)


@st.composite
def collinear_samples(draw):
    """1-30 distinct points on one line, in any order, with small integer values."""
    base = (draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
    step = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
    ts = draw(st.lists(st.fractions(-10, 10, max_denominator=4), min_size=1, max_size=30,
                       unique=True))
    pts = tuple(P(base[0] + t * step[0], base[1] + t * step[1]) for t in ts)
    vals = tuple(draw(st.lists(st.integers(-3, 3), min_size=len(pts), max_size=len(pts))))
    return SampledFunction(pts, vals)


@settings(max_examples=60, deadline=None)
@given(collinear_samples())
def test_var_collinear_witness_has_variation_factor_one(f):
    """The sweep confirms the factor that ``var_collinear`` states without it."""
    est = var_collinear(f)
    assert est.witness_vf == 1 == vf_exact(est.witness).vf
    assert sorted(est.witness, key=lambda p: (p.x, p.y)) in (list(est.witness),
                                                             list(est.witness)[::-1])
    assert est.value == cvar(f, est.witness)


def test_var_collinear_takes_samples_past_the_sweep_cap():
    """150 points on y = 2x: more distinct points than the candidate family allows."""
    pts = tuple(P(i, 2 * i) for i in range(150))
    f = SampledFunction(pts[::-1], tuple(i % 3 for i in range(150)))
    with pytest.raises(InstanceTooLarge):
        vf_exact(pts)
    est = var_collinear(f)
    assert est.witness_vf == 1 and est.exact
    assert est.witness in (pts, pts[::-1])
    assert est.value == cvar(f, pts) == 198   # 49 cycles of jumps 1, 1, 2, then 1, 1


@pytest.mark.parametrize("m", range(1, 10))
def test_counts_from_matrix_matches_reference(m):
    """The production crossing kernel against the suite's scalar oracle."""
    rng = np.random.default_rng(m)
    flat = rng.integers(-1, 2, size=(300, m)).astype(np.int8)
    flat[:40] = 0  # all-on-line rows, plus zeros scattered through the rest
    counts = _counts_from_matrix(flat)
    assert counts.tolist() == [_crossing_count_reference(row.tolist()) for row in flat]
    batched = flat.reshape(30, 10, m)
    counts3 = _counts_from_matrix(batched)
    assert counts3.shape == (30, 10)
    assert counts3.ravel().tolist() == counts.tolist()


def test_sign_table_size_refusal_is_typed():
    pts = tuple(P(i, i * i % 97) for i in range(120))
    with pytest.raises(InstanceTooLarge):
        build_sign_table(pts)


def test_vf_exact_refuses_the_same_sets_with_the_same_text():
    pts = tuple(P(i, i * i % 97) for i in range(120))
    with pytest.raises(InstanceTooLarge) as table_refusal:
        build_sign_table(pts)
    with pytest.raises(InstanceTooLarge) as sweep_refusal:
        vf_exact(pts)
    assert str(sweep_refusal.value) == str(table_refusal.value)
    assert str(sweep_refusal.value).startswith("candidate family for 120 distinct points")
    _vfcore._refuse_large_family(100)
    with pytest.raises(InstanceTooLarge):
        _vfcore._refuse_large_family(101)


@pytest.mark.parametrize("bad", [dict(restarts=0), dict(iters=-1), dict(iters=MAX_ITERS + 1),
                                 dict(max_len=1)])
def test_search_config_rejects_bad_values(bad):
    with pytest.raises(VariationError):
        SearchConfig(**bad)


def test_search_config_refuses_restarts_past_the_cap():
    """Refused when the config is built, before any seed is spawned; no search runs here."""
    SearchConfig(restarts=MAX_RESTARTS)
    for restarts in (MAX_RESTARTS + 1, 99999999999999999999):
        with pytest.raises(VariationError, match=f"restarts must be <= {MAX_RESTARTS}, got"):
            SearchConfig(restarts=restarts)


@pytest.mark.parametrize("vals", [[1.5 + 2j, 10**400], [Fraction(10**400, 3), 0.5],
                                  [1.7e308 + 1.7e308j, 0]])
def test_float_reductions_refuse_values_past_the_float_range(vals):
    for reduce in (magnitudes, jump_sum, lambda v: values_agree(*v)):
        with pytest.raises(VariationError, match="values overflow floating point"):
            reduce(vals)


def test_estimates_refuse_an_exact_value_past_the_float_range():
    f = SampledFunction((P(0, 0), P(1, 0), P(0, 1)), (1.5 + 2j, 10**400, 0))
    with pytest.raises(VariationError, match="values overflow floating point"):
        var_exact_small(f, 2)
    with pytest.raises(VariationError, match="values overflow floating point"):
        var_search(f, SearchConfig(iters=10, restarts=1))


def test_is_exact_number():
    assert is_exact_number(3) and is_exact_number(Fraction(1, 3))
    assert not is_exact_number(True)
    assert not is_exact_number(0.5)
    assert not is_exact_number(1j)


# --- the shared value reductions ---------------------------------------------

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
floats = st.floats(min_value=-1e100, max_value=1e100)
complexes = st.complex_numbers(max_magnitude=1e100)
inexact_lists = st.lists(st.one_of(floats, complexes, fractions), min_size=1, max_size=12) \
    .filter(lambda vals: not all_exact(vals))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=12))
@example([Fraction(0), Fraction(1, 10**12)])
def test_reductions_on_fractions_match_plain_expressions(vals):
    assert all_exact(vals)
    jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert jump_sum(vals) == sum(jumps, Fraction(0))
    assert isinstance(jump_sum(vals), Fraction)
    assert magnitudes(vals) == [abs(v) for v in vals]
    assert max(magnitudes(vals)) == max(abs(v) for v in vals)
    assert values_agree(vals[0], vals[-1]) == (vals[0] == vals[-1])


@settings(max_examples=200, deadline=None)
@given(inexact_lists)
def test_reductions_on_floats_are_bit_identical_to_the_old_expressions(vals):
    # the per-site expressions these helpers replaced, kept as the oracle
    cvals = [complex(v) for v in vals]
    old_jump_sum = float(sum(abs(cvals[i] - cvals[i - 1]) for i in range(1, len(cvals))))
    old_magnitudes = [abs(complex(v)) for v in vals]
    assert _bits([jump_sum(vals)]) == _bits([old_jump_sum])
    assert _bits(magnitudes(vals)) == _bits(old_magnitudes)
    a, b = vals[0], vals[-1]
    assert values_agree(a, b) == (abs(complex(a) - complex(b)) <= 1e-9)


def test_exact_values_agree_only_when_equal():
    # exact values are compared for equality, not within FLOAT_TOL
    assert not values_agree(Fraction(0), Fraction(1, 10**12))
    assert values_agree(Fraction(1, 3), Fraction(2, 6))
    assert values_agree(0.0, 1e-12)
    assert values_agree(Fraction(0), 1e-12)


def test_single_value_jump_sum_keeps_its_type():
    assert jump_sum([Fraction(3)]) == 0 and isinstance(jump_sum([Fraction(3)]), Fraction)
    assert jump_sum([2.5]) == 0.0 and isinstance(jump_sum([2.5]), float)


def _old_validate_edges(g, tol=1e-9):
    """The all-four endpoint rule that validate_ctpp used before values_agree."""
    out = []
    for (i, j), t1, t2 in g.tri.shared_edges():
        pa, pb = g.tri.vertices[i], g.tri.vertices[j]
        c1, c2 = g.coeffs[t1], g.coeffs[t2]
        va1, va2 = c1.eval(pa), c2.eval(pa)
        vb1, vb2 = c1.eval(pb), c2.eval(pb)
        if all(is_exact_number(v) for v in (va1, va2, vb1, vb2)):
            bad = va1 != va2 or vb1 != vb2
        else:
            bad = abs(complex(va1) - complex(va2)) > tol or \
                abs(complex(vb1) - complex(vb2)) > tol
        if bad:
            out.append(((i, j), (t1, t2)))
    return out


_GRID = grid_triangulation(Rectangle.of(0, 1, 0, 1), 2)
# Exact planes that pairwise meet along grid lines, so neighbours can agree at
# one endpoint of an edge and not the other; their float images agree within
# tol, and the complex one is x up to 1e-12.
_EXACT_PLANES = [PlanarCoeffs(0, 0, 0), PlanarCoeffs(1, 0, 0), PlanarCoeffs(0, 1, 0),
                 PlanarCoeffs(1, 1, Fraction(-1, 2)), PlanarCoeffs(Fraction(1, 3), -2, 1)]
_PLANES = _EXACT_PLANES + \
    [PlanarCoeffs(float(c.a), float(c.b), float(c.c)) for c in _EXACT_PLANES] + \
    [PlanarCoeffs(1 + 0j, 0.0, 1e-12)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, len(_PLANES) - 1), min_size=len(_GRID.triangles),
                max_size=len(_GRID.triangles)))
def test_validate_ctpp_matches_the_all_four_rule(choice):
    g = CtppFunction(_GRID, tuple(_PLANES[k] for k in choice))
    got = [(v.edge, v.triangles) for v in validate_ctpp(g)]
    assert got == _old_validate_edges(g)


# --- distinct-pattern sign tables --------------------------------------------

coords = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def point_lists_with_runs(draw, max_size=10):
    """At most ``max_size`` points on a coarse grid: repeats and collinear runs are common."""
    pts = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=max_size))
    if len(pts) >= 2 and draw(st.booleans()):
        # a collinear run through the first point, in the direction of the second
        (x0, y0), (x1, y1) = pts[0], pts[1]
        steps = draw(st.lists(st.integers(-2, 3), max_size=max_size - len(pts)))
        pts += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in steps]
    return tuple(P(x, y) for x, y in pts)


def _line_of(row, scale: int) -> Line:
    """The line of a ``candidate_lines`` row over coordinates scaled by ``scale``."""
    a, b, c = (int(v) for v in row)
    return Line.from_coeffs(a, b, Fraction(c, scale))


def _reference_table(pts):
    """(lines, signs): every ``candidate_lines`` row as a Line, and the (L, P)
    signs of the sample's exact residuals on them, duplicate patterns included."""
    int_pts, scale = _vfcore.scale_to_ints(pts)
    rows = candidate_lines(int_pts).astype(object)
    residuals = rows @ np.array([[x, y, -1] for x, y in int_pts], dtype=object).T
    signs = (residuals > 0).astype(np.int8) - (residuals < 0).astype(np.int8)
    return [_line_of(row, scale) for row in rows], signs


def _sides(lines, pts) -> list[list[int]]:
    """``side_of`` every point of ``pts`` on every line."""
    return [[side_of(line, p).value for p in pts] for line in lines]


def _patterns(signs) -> set[tuple[int, ...]]:
    return {tuple(row) for row in np.asarray(signs).tolist()}


def _assert_table_holds(table, lines, signs):
    """The table has one row per distinct pattern of ``signs`` and counts every line."""
    assert table.signs.dtype == np.int8
    assert table.n_lines == len(lines)
    assert len(table.signs) == len(_patterns(table.signs))
    assert _patterns(table.signs) == _patterns(signs)


@settings(max_examples=100, deadline=None)
@given(point_lists_with_runs())
@example((P(0, 0),))
@example((P(1, 2),) * 3 + (P(3, 3),))
def test_sign_table_holds_the_patterns_of_the_reference_family(pts):
    """The table read off the ranks against the per-line enumerator in Python integers."""
    int_pts, scale = _vfcore.scale_to_ints(pts)
    lines = [_line_of(row, scale) for row in _candidate_lines_reference(int_pts)]
    _assert_table_holds(build_sign_table(pts), lines, _sides(lines, pts))


@settings(max_examples=80, deadline=None)
@given(point_lists_with_runs(), st.data())
def test_distinct_table_counts_as_the_full_table(pts, data):
    """Every list and batch counts the same on the distinct patterns as on all lines."""
    lines, signs = _reference_table(pts)
    table = build_sign_table(pts)
    _assert_table_holds(table, lines, signs)

    index = st.integers(0, len(pts) - 1)
    for idx in data.draw(st.lists(st.lists(index, min_size=1, max_size=8),
                                  min_size=1, max_size=5)):
        assert vf_of_indices(table, idx) == int(_segment_rule_counts(signs[:, idx]).max())
    m = data.draw(st.integers(1, 6))
    batch = np.array(data.draw(st.lists(st.lists(index, min_size=m, max_size=m),
                                        min_size=1, max_size=20)), dtype=np.intp)
    assert _vf_of_lists(table, batch).tolist() == \
        _batch_oracle(_table_of_signs(signs), batch).tolist()


@settings(max_examples=200, deadline=None)
@given(point_lists_with_runs(max_size=8))
@example((P(0, 0),))
@example((P(0, 0), P(1, 0), P(0, 0), P(1, 0)))
@example((P(-1, 0), P(0, 0), P(0, 0), P(1, 0), P(Fraction(1, 2), 0)))
def test_vf_exact_matches_the_pattern_oracle(pts):
    """The pair-form count over the candidate family against two independent
    counts: the suite's pattern oracle and ``vf_line``'s segment rules."""
    res = vf_exact(pts)
    assert res.vf == vf_pattern_oracle(pts)
    assert vf_line(pts, res.witness)[0] == res.vf


BIG = 2 ** 40     # scaled |coordinate| far past INT64_M: object coefficients


@settings(max_examples=200, deadline=None)
@given(point_lists_with_runs(max_size=12))
@example((P(0, 0),))
@example((P(1, 2),) * 5)
@example(tuple(P(3 * t, 1 - 2 * t) for t in (0, 2, -1, 1, 2, 5, 0, 3)))
@example((P(0, 0), P(BIG, 1), P(1, BIG), P(BIG, BIG), P(BIG // 2, BIG // 2), P(0, 0)))
def test_vf_exact_matches_the_sign_table(pts):
    """The per-direction sweep against every candidate line read for the whole list:
    the witness is the first maximal ``candidate_lines`` row."""
    lines, signs = _reference_table(pts)
    counts = _segment_rule_counts(signs)
    row = int(np.argmax(counts))
    res = vf_exact(pts)
    assert (res.vf, res.witness) == (int(counts[row]), lines[row])
    assert vf_of_indices(build_sign_table(pts), np.arange(len(pts))) == res.vf


@settings(max_examples=150, deadline=None)
@given(point_lists_with_runs(max_size=8), st.data())
def test_vf_exact_does_not_drop_when_a_point_is_inserted(pts, data):
    pos = data.draw(st.integers(0, len(pts)))
    new = data.draw(st.sampled_from(pts) | st.builds(P, coords, coords))   # a repeat or not
    longer = pts[:pos] + (new,) + pts[pos:]
    assert vf_exact(longer).vf >= vf_exact(pts).vf


@settings(max_examples=150, deadline=None)
@given(point_lists_with_runs())
@example((P(0, 0),))
@example((P(0, 0), P(1, 0), P(0, 0), P(1, 0)))
def test_sweep_counts_on_shared_ranks_give_every_sublists_vf(plus):
    """One ``_dense_ranks`` of a list counts the list and each list one point
    shorter, with that entry deleted from the index vector, as their own sweeps do."""
    _, _, _, per_dir, rank, idx = _vfcore._dense_ranks(plus)
    assert int(_vfcore._sweep_counts(per_dir, rank, idx).max()) == vf_exact(plus).vf
    for pos in range(len(plus) if len(plus) > 1 else 0):
        shorter = np.delete(idx, pos)
        assert int(_vfcore._sweep_counts(per_dir, rank, shorter).max()) == \
            vf_exact(plus[:pos] + plus[pos + 1:]).vf


@settings(max_examples=150, deadline=None)
@given(point_lists_with_runs(), st.integers(1, 3))
@example((P(0, 0),), 1)
@example((P(0, 0), P(1, 0), P(0, 0), P(1, 0), P(2, 0)), 2)
def test_blocked_sweep_counts_equal_one_block(pts, block):
    """Counting a list in blocks of 1-3 pairs gives every cell the count of one
    pass over the whole list."""
    _, _, _, per_dir, rank, idx = _vfcore._dense_ranks(pts)
    whole = _vfcore._sweep_counts(per_dir, rank, idx)
    assert len(idx) <= _vfcore._SWEEP_BLOCK            # the default is one block here
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_vfcore, "_SWEEP_BLOCK", block)
        blocked = _vfcore._sweep_counts(per_dir, rank, idx)
    assert blocked.dtype == whole.dtype
    assert np.array_equal(blocked, whole)


# invertible maps with integer entries and translation
int_affine_maps = st.tuples(*[st.integers(-3, 3)] * 6).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] != 0).map(lambda m: _affine(*m))


@settings(max_examples=150, deadline=None)
@given(point_lists_with_runs(max_size=6), int_affine_maps)
@example((P(0, 0), P(1, 0), P(0, 0), P(2, 0)), _affine(2, 1, 1, 1, 3, -1))
def test_vf_exact_is_invariant_under_integer_affine_maps(pts, phi):
    res = vf_exact(pts)
    image = tuple(phi.apply(p) for p in pts)
    assert vf_exact(image).vf == res.vf
    w = res.witness
    on = ((P(0, Fraction(w.c, w.b)), P(1, Fraction(w.c - w.a, w.b))) if w.b
          else (P(Fraction(w.c, w.a), 0), P(Fraction(w.c, w.a), 1)))
    assert vf_line(image, _line_through(*(phi.apply(p) for p in on)))[0] == res.vf


@settings(max_examples=60, deadline=None)
@given(point_lists_with_runs(max_size=6), int_affine_maps, st.data())
def test_var_exact_small_is_invariant_under_integer_affine_maps(pts, phi, data):
    sample = tuple(dict.fromkeys(pts))     # distinct points; collinear runs survive
    values = data.draw(st.lists(fractions, min_size=len(sample), max_size=len(sample)))
    f = SampledFunction(sample, tuple(values))
    g = _pushforward(f, phi)
    max_len = data.draw(st.integers(1, 4))
    est, moved = var_exact_small(f, max_len), var_exact_small(g, max_len)
    assert moved.value == est.value
    # the image of the witness attains the same value on the image sample
    image = tuple(phi.apply(p) for p in est.witness)
    assert cvar(g, image) / vf_exact(image).vf == est.value


def test_distinct_table_with_object_coefficients():
    """Coordinates past the int64-safe bound take the object-array path."""
    big = 2 ** 40
    pts = (P(0, 0), P(big, 1), P(1, big), P(big, big), P(big // 2, big // 2), P(0, 0))
    int_pts, _ = _vfcore.scale_to_ints(pts)
    assert candidate_lines(int_pts).dtype == object
    lines, signs = _reference_table(pts)
    assert signs.tolist() == _sides(lines, pts)
    table = build_sign_table(pts)
    _assert_table_holds(table, lines, signs)
    assert len(table.signs) < table.n_lines
    idx = np.arange(len(pts))
    assert vf_of_indices(table, idx) == int(_segment_rule_counts(signs).max())


# --- candidate family and sign table ------------------------------------------

def _canon_line_reference(a: int, b: int, c: int) -> tuple[int, int, int]:
    g = math.gcd(a, b, c)
    if g:
        a, b, c = a // g, b // g, c // g
    lead = a if a != 0 else b
    if lead < 0:
        a, b, c = -a, -b, -c
    return a, b, c


def _canon_normal(a: int, b: int) -> tuple[int, int]:
    """Reduce to coprime and normalize into the upper half-plane (angle in [0, pi))."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return a, b


def _candidate_normals_reference(int_points) -> list[tuple[int, int]]:
    """Pair normals and arc directions in Python integers: a set per pair, a comparison sort."""
    distinct = sorted(set(int_points))
    normals: set[tuple[int, int]] = set()
    for i in range(len(distinct)):
        xi, yi = distinct[i]
        for j in range(i + 1, len(distinct)):
            xj, yj = distinct[j]
            normals.add(_canon_normal(-(yj - yi), xj - xi))
    if not normals:
        return [(0, 1)]

    def by_angle(u, v):
        c = u[0] * v[1] - u[1] * v[0]
        return 0 if c == 0 else (1 if c < 0 else -1)

    ordered = sorted(normals, key=functools.cmp_to_key(by_angle))
    extra: set[tuple[int, int]] = set()
    if len(ordered) == 1:
        a, b = ordered[0]
        extra.add(_canon_normal(-b, a))
    else:
        for u, v in zip(ordered, ordered[1:]):
            extra.add(_canon_normal(u[0] + v[0], u[1] + v[1]))
        last, first = ordered[-1], ordered[0]
        extra.add(_canon_normal(last[0] - first[0], last[1] - first[1]))
    return sorted(normals | extra)


def _normals(int_points) -> np.ndarray:
    """``candidate_normals`` of the distinct points, prepared as ``_dense_ranks`` prepares them."""
    return candidate_normals(_vfcore._distinct_points(int_points)[1])


def _candidate_lines_reference(int_points) -> list[tuple[int, int, int]]:
    """The per-line enumerator in Python integers: one canonical triple per offset, a set, a sort."""
    lines: set[tuple[int, int, int]] = set()
    for a, b in _normals(int_points).tolist():
        projections = sorted({a * x + b * y for x, y in set(int_points)})
        for t in projections:
            lines.add(_canon_line_reference(a, b, t))
        for t1, t2 in zip(projections, projections[1:]):
            lines.add(_canon_line_reference(2 * a, 2 * b, t1 + t2))
    return sorted(lines)


# Largest scaled |coordinate| for which every residual fits in int64 (32 M^2 <= 2^63 - 1).
INT64_M = 2 ** 29 - 1


@st.composite
def int_point_lists(draw):
    """1-12 integer points: repeats, collinear runs, one or two distinct points, huge offsets."""
    small = st.integers(-4, 4)
    shape = draw(st.sampled_from(["free", "one", "two", "run"]))
    if shape == "one":
        pts = [(draw(small), draw(small))] * draw(st.integers(1, 4))
    elif shape == "two":
        p, q = (draw(small), draw(small)), (draw(small), draw(small))
        pts = draw(st.lists(st.sampled_from([p, q]), min_size=2, max_size=6))
    else:
        pts = draw(st.lists(st.tuples(small, small), min_size=1, max_size=12))
        if shape == "run" and len(pts) >= 2 and pts[0] != pts[1]:
            (x0, y0), (x1, y1) = pts[0], pts[1]
            steps = draw(st.lists(st.integers(-3, 3), max_size=12 - len(pts)))
            pts += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in steps]
        pts += draw(st.lists(st.sampled_from(pts), max_size=12 - len(pts)))
    stretch = draw(st.sampled_from([1, 7, 2 ** 20]))
    offset = draw(st.sampled_from([0, INT64_M - 4 * 2 ** 20, INT64_M + 1, 2 ** 40]))
    return [(offset + stretch * x, y - offset) for x, y in pts]


@settings(max_examples=200, deadline=None)
@given(int_point_lists())
def test_candidate_lines_match_the_reference_enumerator(pts):
    lines = candidate_lines(pts)
    assert lines.tolist() == [list(row) for row in _candidate_lines_reference(pts)]
    m = max(max(abs(x), abs(y)) for x, y in pts)
    assert lines.dtype == (np.int64 if m <= INT64_M else object)


@settings(max_examples=200, deadline=None)
@given(int_point_lists(), st.sampled_from([None, INT64_M, INT64_M + 1, 10**400]))
def test_candidate_normals_match_the_reference(pts, m):
    """The numpy pass against the Python one, as drawn or mirrored so that the
    largest |coordinate| is exactly m: the int64 bound, one past it, or no float."""
    if m is not None:
        lo_x, lo_y = min(x for x, _ in pts), min(y for _, y in pts)
        pts = [(m - (x - lo_x), m - (y - lo_y)) for x, y in pts]
    normals = _normals(pts)
    assert normals.tolist() == [list(row) for row in _candidate_normals_reference(pts)]
    top = max(max(abs(x), abs(y)) for x, y in pts)
    assert normals.dtype == (np.int64 if top <= INT64_M else object)


def _count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that appends to the returned list per call."""
    calls, inner = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("pts, exact_sort", [
    # normals (1, 0), (10^20, 1) and (10^20 + 1, 1): the last two have one float
    # angle, and the tie-break by a puts them in the wrong order
    ([(0, 0), (1, -10**20), (1, -10**20 - 1)], True),
    # normals with components of 10^400 do not fit a float
    ([(0, 0), (10**400, 1), (1, 10**400), (10**400, 10**400), (0, 0)], True),
    # ordinary points: the float order passes its exact check
    ([(0, 0), (3, 1), (1, 4), (5, 2), (2, 6), (3, 1), (4, 2)], False),
])
def test_candidate_normals_fall_back_to_the_exact_sort(monkeypatch, pts, exact_sort):
    calls = _count_calls(monkeypatch, _vfcore, "_angle_cmp")
    normals = _normals(pts)
    assert normals.tolist() == [list(row) for row in _candidate_normals_reference(pts)]
    assert bool(calls) == exact_sort


@pytest.mark.parametrize("m, dtype", [(INT64_M, np.int64), (INT64_M + 1, object)])
def test_sign_table_dtype_switch_is_exact_on_both_sides(m, dtype):
    """Just below the bound int64 residuals reach past 2^62; just above, Python integers."""
    pts = (P(-m + 1, m), P(-(m // 2), m // 2), P(-1, -m + 1), P(-m, -m), P(m - 1, m),
           P(-m, -m))
    int_pts, _ = _vfcore.scale_to_ints(pts)
    assert candidate_lines(int_pts).dtype == dtype
    lines, signs = _reference_table(pts)
    assert max(abs(line.residual(p)) for line in lines for p in pts) > 2 ** 62
    assert signs.tolist() == _sides(lines, pts)
    _assert_table_holds(build_sign_table(pts), lines, signs)


def _void_sort_distinct(signs: np.ndarray) -> np.ndarray:
    """The distinct rows of an (L, P) int8 array, deduplicated as the sign table
    once was: ``np.sort`` over the rows as ``np.void``, each run's first kept."""
    keys = np.sort(np.ascontiguousarray(signs).view(np.dtype((np.void, signs.shape[1]))).ravel())
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new].view(np.int8).reshape(-1, signs.shape[1])


def _family_signs(pts) -> np.ndarray:
    """The (L, P) int8 signs of every ``candidate_lines`` row on ``pts``, duplicate
    patterns included, from int64 residuals (small coordinates only)."""
    int_pts, _ = _vfcore.scale_to_ints(pts)
    rows = candidate_lines(int_pts)
    assert rows.dtype == np.int64
    xyz = np.array([[x, y, -1] for x, y in int_pts], dtype=np.int64).T
    return np.concatenate([np.sign(rows[i:i + 4096] @ xyz).astype(np.int8)
                           for i in range(0, len(rows), 4096)])


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21, 34, 55, 100])
def test_sign_table_rows_equal_the_void_sort_dedupe(k):
    """The set-of-bytes dedupe against the void sort, row for row. Repeats of
    the last point end many rows in zero bytes, which must survive as bytes."""
    rng = random.Random(k)
    cells = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    pts = tuple(P(x, y) for x, y in rng.sample(cells, k))
    pts += pts[-1:] * rng.randint(1, 3)
    table = build_sign_table(pts)
    want = _void_sort_distinct(_family_signs(pts))
    assert table.signs.dtype == np.int8 and table.signs.flags.c_contiguous
    assert table.signs.flags.writeable
    assert table.signs.shape == want.shape and np.array_equal(table.signs, want)
    assert (table.signs[:, -2:] == 0).all(axis=1).any()


def test_sign_table_peak_memory_stays_near_its_size():
    """45 distinct points on a 1/32 lattice with a collinear run and repeats."""
    rng = random.Random(45)
    run = [(Fraction(t, 32) - 1, Fraction(2 * t, 32) - 2) for t in range(11)]
    others: list = []
    while len(others) < 34:
        p = (Fraction(rng.randint(-128, 128), 32), Fraction(rng.randint(-128, 128), 32))
        if p not in run and p not in others:
            others.append(p)
    lst = others[:20] + run + others[20:]
    for _ in range(9):
        lst.insert(rng.randint(0, len(lst)), rng.choice(lst))
    pts = tuple(P(x, y) for x, y in lst)
    tracemalloc.start()
    try:
        table = build_sign_table(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_lines > 100_000
    # n_lines * (P + 24) bytes: the family as int8 signs plus int64 (a, b, c) rows
    assert peak < 3 * table.n_lines * (len(pts) + 24)


# Values recorded from the code before sign tables were deduplicated: the
# search and the exhaustive maximum must not move by a single proposal.

def test_var_search_on_the_pyramid_is_unchanged():
    bumps = make_bumps(BumpSpec.of(Fraction(1, 2), Fraction(1)))
    grid = tuple(P(Fraction(i, 2) - 1, Fraction(j, 2) - 1)
                 for j in range(5) for i in range(5))
    f = SampledFunction(grid, tuple(bumps.pyramid(p) for p in grid))
    est = var_search(f, SearchConfig(iters=3000, restarts=4, seed=2013))
    assert est.value == 2
    assert est.witness == (P(-1, 1), P(0, 0), P(1, -1))
    assert est.witness_vf == 1
    assert est.stats["proposals"] == 12000
    assert est.stats["max_objective_seen"] == 2.0
    assert (est.stats["table_rows"], est.stats["distinct_rows"]) == (1952, 684)


SEVEN = (P(0, 0), P(3, 1), P(1, 4), P(5, 2), P(2, 6), P(6, 5), P(4, 7))
SEVEN_VALUES = (Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(5, 3), 0,
                Fraction(-7, 4), Fraction(4))


@pytest.mark.parametrize("max_len, value, order", [
    (5, Fraction(113, 12), (2, 1, 3, 5, 6)),
    (6, Fraction(137, 12), (2, 1, 3, 5, 6, 4)),
])
def test_var_exact_small_on_seven_points_is_unchanged(max_len, value, order):
    est = var_exact_small(SampledFunction(SEVEN, SEVEN_VALUES), max_len=max_len)
    assert est.value == value
    assert est.witness == tuple(SEVEN[i] for i in order)
    assert est.witness_vf == 2
    assert (est.stats["table_rows"], est.stats["distinct_rows"]) == (426, 94)


# Recorded before the float pass extended curve variation by prefix: any bit
# drift in the float objective moves these values (summing each list's jumps in
# ascending order instead of along the list changes both).
SEVEN_COMPLEX = (2.89 + 3.72j, 3.24 + 0.55j, 1.71 - 2.31j, 2.65 + 0.59j, -1.72 - 3.49j,
                 2.83 + 3.92j, -3.29 + 2.4j)


@pytest.mark.parametrize("max_len, value, order", [
    (5, "12.177126042161847", (0, 4, 6, 5, 1)),
    (6, "13.741763799614821", (1, 0, 4, 6, 5, 3)),
])
def test_var_exact_small_float_path_on_seven_points_is_unchanged(max_len, value, order):
    est = var_exact_small(SampledFunction(SEVEN, SEVEN_COMPLEX), max_len=max_len)
    assert repr(est.value) == value
    assert est.witness == tuple(SEVEN[i] for i in order)
    assert est.witness_vf == 2


# The window counts equal the number of lists the code before the level-carried
# kernel rechecked on the same samples.
@pytest.mark.parametrize("values, path, rechecked", [
    (SEVEN_VALUES, "rational", {5: 2, 6: 2}),
    (SEVEN_COMPLEX, "float", {5: 2, 6: 2}),
    (tuple(2 * p.x - p.y + 1 for p in SEVEN), "rational", {5: 150, 6: 650}),
], ids=["rational", "complex", "planar"])
def test_var_exact_small_stats_name_the_exact_path(values, path, rechecked):
    for max_len, n in rechecked.items():
        stats = var_exact_small(SampledFunction(SEVEN, values), max_len).stats
        assert (stats["exact_path"], stats["rechecked"]) == (path, n)


@functools.lru_cache(maxsize=4096)    # every list of one five-point sample
def _oracle_vf(pts) -> int:
    return vf_pattern_oracle(pts)


def _fraction_cvar(values) -> Fraction:
    """Sum of |jumps| in Fractions, written out apart from ``jump_sum``."""
    return sum((abs(Fraction(b) - Fraction(a)) for a, b in zip(values, values[1:])), Fraction(0))


def _float_cvar(values) -> float:
    """Sum of |jumps| as complex floats, left to right, the order of the float pass."""
    return sum(abs(complex(b) - complex(a)) for a, b in zip(values, values[1:]))


def _var_exact_small_oracle(f, max_len, jump_total=_fraction_cvar):
    """(value, witness, witness_vf) by scoring every list with the pattern oracle
    and the lex-smallest tie-break: largest value, fewest points, smallest
    coordinates."""
    best = None
    for m in range(1, max_len + 1):
        for seq in itertools.product(range(len(f.points)), repeat=m):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            pts = tuple(f.points[i] for i in seq)
            vf = _oracle_vf(pts)
            value = jump_total([f.values[i] for i in seq]) / vf
            key = (-value, m, tuple((p.x, p.y) for p in pts))
            if best is None or key < best[0]:
                best = (key, value, pts, vf)
    return best[1:]


ORACLE_SAMPLES = {
    "general": SEVEN[:5],
    "collinear": (P(0, 0), P(2, 2), P(1, 1), P(3, 1), P(-1, -1)),   # four on y = x
    "lattice": (P(0, 0), P(1, 0), P(2, 0), P(0, 1), P(1, 1)),
}


@pytest.mark.parametrize("values", ["planar", "random"])
@pytest.mark.parametrize("name", ORACLE_SAMPLES)
def test_var_exact_small_matches_a_brute_force_oracle(name, values):
    """Every length cap up to 5 on the first k <= 5 points; planar values tie
    across many lists, so the tie-break decides the witness."""
    rng = random.Random(f"{name}/{values}")
    for k in range(1, 6):
        pts = ORACLE_SAMPLES[name][:k]
        if values == "planar":
            a, b, c = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
            vals = tuple(a * p.x + b * p.y + c for p in pts)
        else:
            vals = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in pts)
        f = SampledFunction(pts, vals)
        for max_len in range(1, 6):
            est = var_exact_small(f, max_len)
            assert (est.value, est.witness, est.witness_vf) == _var_exact_small_oracle(f, max_len)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=4, unique=True),
       st.data())
def test_var_exact_small_matches_the_pattern_oracle(pts, data):
    values = data.draw(st.lists(fractions, min_size=len(pts), max_size=len(pts)))
    f = SampledFunction(tuple(P(x, y) for x, y in pts), tuple(values))
    max_len = data.draw(st.integers(1, 4))
    est = var_exact_small(f, max_len)
    assert (est.value, est.witness, est.witness_vf) == _var_exact_small_oracle(f, max_len)


# Branch and bound drops a parent against the window of the levels finished so
# far. Equal values leave J_max = 0, two values tie across many lists, complex
# values take the float path, and the lists pin how much each sample prunes.
@pytest.mark.parametrize("values, jump_total, lists", [
    ((Fraction(3, 2),) * 6, _fraction_cvar, (6, 30, 150, 750)),
    ((0, 1, 1, 0, 1, 0), _fraction_cvar, (6, 30, 150, 630)),
    (SEVEN_COMPLEX[:6], _float_cvar, (6, 30, 150, 320)),
    (SEVEN_VALUES[:6], _fraction_cvar, (6, 30, 150, 255)),
], ids=["all-equal", "two-valued", "complex", "rational"])
def test_var_exact_small_pruning_matches_the_oracle(values, jump_total, lists):
    f = SampledFunction(SEVEN[:6], values)
    est = var_exact_small(f, max_len=4)
    assert (est.value, est.witness, est.witness_vf) == _var_exact_small_oracle(f, 4, jump_total)
    assert est.stats["lists"] == lists


def _unpruned_maximum(f, max_len):
    """(value, witness, witness_vf) over every list of the lex levels, each list's
    vf stepped by ``vf_batch`` with no pruning and its value in Fractions."""
    table = build_sign_table(f.points)
    level = empty_level(table)
    best = None
    for step, lists in _lex_levels(len(f.points), max_len):
        level = vf_batch(level, step)
        for seq, vf in zip(lists, level.vf.tolist()):
            value = _fraction_cvar([f.values[i] for i in seq]) / vf
            key = (-value, len(seq), tuple((f.points[i].x, f.points[i].y) for i in seq))
            if best is None or key < best[0]:
                best = (key, value, tuple(f.points[i] for i in seq), vf)
    return best[1:]


def test_var_exact_small_skips_a_level_that_no_parent_survives_into():
    """Four collinear points carry the maximum at vf 1. Every five-point parent's
    bound lies below the window, so the six-point level is never stepped."""
    pts = (P(2, -2), P(-3, 1), P(1, 1), P(3, -3), P(-3, 3), P(-2, 2))
    f = SampledFunction(pts, (50, -5, -5, -2, 2, -50))
    est = var_exact_small(f, max_len=6)
    assert est.stats["lists"] == (6, 30, 150, 550, 20)
    assert (est.value, est.witness, est.witness_vf) == _unpruned_maximum(f, 6)
    assert (est.value, est.witness_vf) == (204, 1)


@pytest.mark.parametrize("offset", [0, 10**30], ids=["huge", "huge-offset"])
@pytest.mark.parametrize("name", ORACLE_SAMPLES)
def test_var_exact_small_scores_past_int64_match_the_oracle(name, offset):
    """Lifted integers past int64 take the object path. Around 10^30 the values
    differ in the 31st digit, where floats cannot tell them apart."""
    rng = random.Random(f"{name}/{offset}")
    for k in range(2, 6):
        pts = ORACLE_SAMPLES[name][:k]
        if offset:
            vals = tuple(offset + Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in pts)
        else:
            vals = tuple(Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**4))
                         for _ in pts)
        assert max(abs(v) for v in common_denominator(vals)[0]) > 2**63
        f = SampledFunction(pts, vals)
        for max_len in range(1, 5):
            est = var_exact_small(f, max_len)
            assert est.stats["exact_path"] == "rational"
            assert (est.value, est.witness, est.witness_vf) == _var_exact_small_oracle(f, max_len)


def test_var_exact_small_on_rationals_past_the_float_range():
    """The rational path never converts a value to float, so 10^400 is exact."""
    f = SampledFunction(SEVEN[:3], (10**400, 0, Fraction(1, 3)))
    for max_len in (1, 3):
        est = var_exact_small(f, max_len)
        assert (est.value, est.witness, est.witness_vf) == _var_exact_small_oracle(f, max_len)
    assert (est.value, est.witness_vf) == (10**400, 1)


# Every list ties on constant values, so no parent is dropped and each list
# counts in ``rechecked``; two values tie across 38 lists. The winner is the
# lexsort of the point ranks over the shortest level's ties.
@pytest.mark.parametrize("values, lists, rechecked", [
    ((Fraction(3, 2),) * 7, (7, 42, 252, 1512, 9072, 54432), 65_317),
    ((0, 1, 1, 0, 1, 0, 1), (7, 42, 252, 1512, 3072, 540), 38),
], ids=["constant", "two-valued"])
def test_var_exact_small_ties_on_seven_points_match_the_unpruned_maximum(values, lists,
                                                                          rechecked):
    f = SampledFunction(SEVEN, values)
    est = var_exact_small(f, max_len=6)
    assert (est.stats["lists"], est.stats["rechecked"]) == (lists, rechecked)
    assert (est.value, est.witness, est.witness_vf) == _unpruned_maximum(f, 6)


def test_var_exact_small_counts_only_float_ties_at_the_best_score():
    """``rechecked`` counts the lists whose float score equals the best. The
    1e-9 tie window that the float path used to keep counted 18 here: lists
    such as (0.8 + 0.8) / 2 land a few ulps off the best, 0.8000000000000002."""
    est = var_exact_small(SampledFunction(SEVEN[:3], (0.2, 1.0, 1.0)), max_len=4)
    assert repr(est.value) == "0.8000000000000002"
    assert est.witness == (SEVEN[0], SEVEN[2], SEVEN[0], SEVEN[2])
    assert (est.witness_vf, est.stats["rechecked"]) == (3, 8)


# --- prefix-shared batch kernel -----------------------------------------------

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


def _segment_rule_counts(S):
    """Counts per row of sign matrix S (..., m) by rules 1-4 of ``_crossing_mask``.

    An oracle independent of the pair form that production code counts with.
    """
    if S.shape[-1] == 1:
        return (S[..., 0] == 0).astype(np.int32)    # single-point convention
    return _crossing_mask(S).sum(axis=-1, dtype=np.int32)


def _batch_oracle(table, seqs):
    """The gather-and-mask count: every list rebuilt from all of its segments."""
    return _segment_rule_counts(table.signs[:, seqs]).max(axis=0)


def _vf_of_lists(table, batch):
    """vf_batch along the levels that spell out the rows of ``batch``: row i of
    level j is the first j + 1 entries of row i."""
    n, m = batch.shape
    level = empty_level(table)
    for j in range(m):
        parent = np.arange(n) if j else np.zeros(n, dtype=np.intp)
        level = vf_batch(level, np.column_stack([parent, batch[:, j]]))
    return level.vf


def _lex_levels(k, max_len):
    """(step, lists) per length: every list of range(k) without equal neighbours,
    in lexicographic order, enumerated in Python, with its parent row."""
    lists = [()]
    for _ in range(max_len):
        step = [(r, i) for r, seq in enumerate(lists) for i in range(k) if not seq or seq[-1] != i]
        lists = [lists[r] + (i,) for r, i in step]
        yield np.array(step, dtype=np.intp).reshape(-1, 2), lists


def test_levels_rebuild_every_sequence_once_in_lex_order():
    """Levels of (parent row, index) from ``_extensions``, rebuilt by ``_lists``."""
    for k in range(1, 6):
        steps = []
        last = np.array([k])                  # the empty list
        for m in range(1, 6):
            step = _extensions(last, k)
            steps.append(step)
            last = step[:, 1]
            expected = [list(s) for s in itertools.product(range(k), repeat=m)
                        if all(a != b for a, b in zip(s, s[1:]))]
            seqs = _lists(steps, np.arange(len(step)))
            assert step.dtype == np.intp and seqs.dtype == np.intp
            assert seqs.shape == (len(expected), m)
            assert seqs.tolist() == expected
            rows = np.arange(len(step))[::-3]       # any rows, in any order
            assert _lists(steps, rows).tolist() == [expected[r] for r in rows]


KERNEL_SAMPLES = {
    "general": SEVEN,
    "collinear": tuple(P(i, 2 * i - 3) for i in range(7)),
    "lattice": tuple(P(i % 3, i // 3) for i in range(7)),
}


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", KERNEL_SAMPLES)
def test_vf_batch_matches_the_gather_oracle_up_to_the_caps(name, distinct):
    """Every index list of up to 6 points over the first k <= 7 sample points,
    one level step per length."""
    for k in range(1, 8):
        pts = KERNEL_SAMPLES[name][:k]
        table = build_sign_table(pts) if distinct else _table_of_signs(_reference_table(pts)[1])
        level = empty_level(table)
        for m, (step, lists) in enumerate(_lex_levels(k, 6), 1):
            level = vf_batch(level, step)
            assert level.length == m
            if lists:
                seqs = np.array(lists, dtype=np.intp)
                assert level.vf.tolist() == _batch_oracle(table, seqs).tolist()


@pytest.mark.parametrize("seed", [1, 7, 4096])
@pytest.mark.parametrize("name", KERNEL_SAMPLES)
def test_vf_batch_on_shuffled_and_repeating_batches(name, seed):
    """Parents in any order and repeated, and equal neighbours (E(a, a) is the
    zero row), carried over six levels, counts and vf alike."""
    table = build_sign_table(KERNEL_SAMPLES[name])
    rng = np.random.default_rng(seed)
    level = empty_level(table)
    lists = np.empty((1, 0), dtype=np.intp)
    for m in range(1, 7):
        few = 3 if m % 2 else 7
        step = np.column_stack([rng.integers(0, len(lists), size=400),
                                rng.integers(0, few, size=400)]).astype(np.intp)
        level = vf_batch(level, step)
        lists = np.column_stack([lists[step[:, 0]], step[:, 1]])
        assert level.vf.dtype == np.int32
        assert level.vf.tolist() == _batch_oracle(table, lists).tolist()
        # counts carry every level's vf, the last one's included
        assert level.counts.tolist() == _segment_rule_counts(table.signs[:, lists]).T.tolist()


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_vf_batch_on_an_empty_batch(m):
    table = build_sign_table(SEVEN)
    level = empty_level(table)
    for step, _ in _lex_levels(7, m - 1):
        level = vf_batch(level, step)
    got = vf_batch(level, np.empty((0, 2), dtype=np.intp)).vf
    assert got.dtype == np.int32 and got.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=7, unique=True), st.data())
def test_vf_batch_matches_the_gather_oracle_on_random_samples(pts, data):
    sample = tuple(P(x, y) for x, y in pts)
    full = _table_of_signs(_reference_table(sample)[1])
    index = st.integers(0, len(pts) - 1)
    m = data.draw(st.integers(1, 6))
    batch = np.array(data.draw(st.lists(st.lists(index, min_size=m, max_size=m),
                                        min_size=1, max_size=60)), dtype=np.intp)
    for table in (full, build_sign_table(sample)):
        assert _vf_of_lists(table, batch).tolist() == _batch_oracle(table, batch).tolist()
        depth = min(m, 4)          # every lex list; deeper levels are the caps test's
        level = empty_level(table)
        for step, lists in _lex_levels(len(pts), depth):
            level = vf_batch(level, step)
        if lists:
            seqs = np.array(lists, dtype=np.intp)
            assert level.vf.tolist() == _batch_oracle(table, seqs).tolist()


def test_var_exact_small_calls_vf_batch_once_per_length(monkeypatch):
    """The benchmark reads vf_batch's second argument as the level's lists, on axis 0."""
    calls = []
    kernel = _vfcore.vf_batch

    def spy(prev, step, *args, **kwargs):
        level = kernel(prev, step, *args, **kwargs)
        calls.append((step.shape[0], step.dtype, level.length))
        return level

    monkeypatch.setattr(_vfcore, "vf_batch", spy)
    est = var_exact_small(SampledFunction(SEVEN, SEVEN_VALUES), max_len=6)
    assert [length for _, _, length in calls] == [1, 2, 3, 4, 5, 6]
    # branch and bound: full enumeration steps [7, 42, 252, 1512, 9072, 54432]
    assert [n for n, _, _ in calls] == [7, 42, 252, 1512, 2148, 468]
    assert tuple(n for n, _, _ in calls) == est.stats["lists"]
    assert all(dtype == np.intp for _, dtype, _ in calls)
    assert sum(n for n, _, _ in calls) == 4_429


# --- pair form and incremental annealing counts -------------------------------

def _pair_form_count(signs) -> int:
    """[s_0 = 0] plus |a| - [a * b > 0] over consecutive sign pairs (a, b)."""
    return int(signs[0] == 0) + sum(abs(a) - int(a * b > 0) for a, b in zip(signs, signs[1:]))


def _table_of_signs(signs: np.ndarray):
    """A sign table over the given (L, P) signs, one line per row."""
    return _vfcore.SignTable(signs=np.asarray(signs, dtype=np.int8), n_lines=len(signs))


def _fields(packed: int, max_len: int, n_rows: int) -> list[int]:
    """The counts held in a packed vector: field i is bits w*i .. w*i + w - 1."""
    w = max_len.bit_length() + 1
    return [(packed >> (w * i)) & ((1 << w) - 1) for i in range(n_rows)]


def _packed(fields: list[int], max_len: int) -> int:
    """The packed vector holding ``fields``, as ``_fields`` reads it."""
    w = max_len.bit_length() + 1
    return sum(f << (w * i) for i, f in enumerate(fields))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m), min_size=1, max_size=20)))
def test_pair_form_equals_the_segment_rules(rows):
    S = np.array(rows, dtype=np.int8)
    expected = [_pair_form_count(row.tolist()) for row in S]
    assert _segment_rule_counts(S).tolist() == expected
    assert _counts_from_matrix(S).tolist() == expected
    # the same lists as index lists over a table whose columns are the positions
    m = S.shape[1]
    pairs = _vfcore.PackedCounts(_table_of_signs(S), max_len=m)
    assert _fields(pairs.full(list(range(m))), m, len(S)) == _segment_rule_counts(S).tolist()


def _moves(cur: list[int], k: int):
    """Every insert, delete, replace, swap and reverse of ``cur``, repeats allowed,
    each as (new list, c, d) with the span the move keeps (``_propose``'s rule)."""
    n = len(cur)
    for pos in range(n + 1):
        for v in range(k):
            yield cur[:pos] + [v] + cur[pos:], pos, n - pos
    for pos in range(n):
        yield cur[:pos] + cur[pos + 1:], pos, n - 1 - pos
        for v in range(k):
            yield cur[:pos] + [v] + cur[pos + 1:], pos, n - 1 - pos
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(cur)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield swapped, i, n - 1 - j
            yield cur[:i] + cur[i:j + 1][::-1] + cur[j + 1:], i, n - 1 - j


def _is_span(old: list[int], new: list[int], c: int, d: int) -> bool:
    """Whether ``new`` keeps the first c and the last d entries of ``old``, disjointly."""
    n, m = len(old), len(new)
    return (c >= 0 and d >= 0 and c + d <= min(n, m)
            and old[:c] == new[:c] and old[n - d:] == new[m - d:])


def _spans(old: list[int], new: list[int]):
    """Every span that ``PackedCounts.delta`` may be given for ``old`` -> ``new``:
    (0, 0), the longest common prefix and suffix, and every span between them."""
    top = min(len(old), len(new))
    return [(c, d) for c in range(top + 1) for d in range(top + 1 - c)
            if _is_span(old, new, c, d)]


def _check_every_span(pairs, counts, old, new, want):
    spans = _spans(old, new)
    assert (0, 0) in spans
    for c, d in spans:
        assert pairs.delta(counts, old, new, c, d) == want, (old, new, c, d)


@pytest.mark.parametrize("name", KERNEL_SAMPLES)
@pytest.mark.parametrize("cur", [[0, 1], [3, 0, 4, 0, 6, 2], [6, 5, 4, 3, 2, 1, 0]])
def test_pair_counts_delta_after_every_move(name, cur):
    table = build_sign_table(KERNEL_SAMPLES[name])
    max_len, n_rows = len(cur) + 1, len(table.signs)
    pairs = _vfcore.PackedCounts(table, max_len=max_len)
    counts = pairs.full(cur)
    expected = _segment_rule_counts(table.signs[:, cur]).tolist()
    assert _fields(counts, max_len, n_rows) == expected
    moves = [move for move in _moves(cur, 7) if move[0]]
    news = [new for new, _, _ in moves]
    # both ends of the list, the whole-list reverse and an unchanged list are among them
    assert cur[::-1] in news and cur in news
    for new, c, d in moves:
        assert _is_span(cur, new, c, d), (new, c, d)
        want = _packed(_segment_rule_counts(table.signs[:, new]).tolist(), max_len)
        got = pairs.delta(counts, cur, new, c, d)
        assert got == want, new
        assert pairs.vf(got, max(expected)) == vf_of_indices(table, new)
        # every valid span, from none at all to the widest, gives the same int
        _check_every_span(pairs, counts, cur, new, want)
    assert _fields(counts, max_len, n_rows) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.lists(st.integers(0, 3), min_size=1, max_size=12))
@example([0, 1, 0, 1], [0, 1, 0, 1, 0, 1])     # prefix and suffix of one overlap
@example([2, 1, 2], [2])
@example([1, 2, 3], [1, 2, 3])                  # equal lists: every split of the list
def test_pair_counts_delta_between_any_two_lists(old, new):
    table = build_sign_table(KERNEL_SAMPLES["lattice"][:4])
    pairs = _vfcore.PackedCounts(table, max_len=12)
    want = _packed(_segment_rule_counts(table.signs[:, new]).tolist(), 12)
    _check_every_span(pairs, pairs.full(old), old, new, want)


def test_pair_counts_follow_an_annealing_walk():
    """Counts carried from proposal to proposal stay exact over a long walk."""
    table = build_sign_table(SEVEN)
    pairs = _vfcore.PackedCounts(table, max_len=12)
    rng = np.random.default_rng(3)
    cur = [0, 1]
    counts = pairs.full(cur)
    vf = pairs.vf(counts, 0)
    for _ in range(2000):
        move = _propose(rng, cur, len(SEVEN), 12)
        if move is not None:
            cand, c, d = move
            cur, counts = cand, pairs.delta(counts, cur, cand, c, d)
            expected = _segment_rule_counts(table.signs[:, cur])
            assert _fields(counts, 12, len(table.signs)) == expected.tolist()
            vf = pairs.vf(counts, vf)
            assert vf == int(expected.max())


@pytest.mark.parametrize("source", [np.random.default_rng, _Draws])
@pytest.mark.parametrize("seed, k, max_len", [(0, 2, 4), (1, 3, 3), (5, 9, 12), (8, 25, 12),
                                              (13, 7, 40)])
def test_propose_returns_a_span_the_move_keeps(source, seed, k, max_len):
    """Every span of a walk keeps a prefix and a suffix of the current list,
    disjointly; the walk grows, shrinks and keeps its length, and no list
    repeats an index next to itself."""
    rng = source(np.random.SeedSequence(seed))
    cur, seen = [0, 1], set()
    for _ in range(3000):
        move = _propose(rng, cur, k, max_len)
        if move is None:
            continue
        cand, c, d = move
        n, m = len(cur), len(cand)
        assert cur[:c] == cand[:c] and cur[n - d:] == cand[m - d:] and c + d <= min(n, m)
        assert 2 <= m <= max_len and all(a != b for a, b in zip(cand, cand[1:]))
        seen.add(m - n)
        cur = cand
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("max_len", [2, 3, 7, 8, 15, 16, 127, 128])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_vf_probe_finds_the_largest_field_from_every_hint(max_len, data):
    """w = max_len.bit_length() + 1 steps up after 3, 7, 15 and 127."""
    n = data.draw(st.integers(1, 20))
    fields = data.draw(st.lists(st.integers(0, max_len), min_size=n, max_size=n))
    pairs = _vfcore.PackedCounts(_table_of_signs(np.zeros((n, 1))), max_len=max_len)
    for vec in (fields, [0] * n, [max_len] * n, fields[:-1] + [max_len]):
        packed = _packed(vec, max_len)
        assert _fields(packed, max_len, n) == vec
        for hint in range(max_len + 1):
            assert pairs.vf(packed, hint) == max(vec), (vec, hint)


def test_var_search_with_an_unbounded_max_len_keeps_no_table_per_count():
    """``max_len`` has no upper bound, so the kernel keeps nothing per possible count."""
    f = SampledFunction(SEVEN[:5], SEVEN_VALUES[:5])
    tracemalloc.start()
    try:
        est = var_search(f, SearchConfig(max_len=10**6, iters=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verify_estimate(f, est)
    assert peak < 4 * 2**20


def _draw_skipping(rng, k: int, banned: set[int]) -> int | None:
    """An index in range(k) outside ``banned``, or None when there is none.

    Draws ``rng.integers(k - len(banned))`` and steps the draw past each
    banned index at or below it, which picks the same index as drawing into
    the ascending list of allowed indices.
    """
    n_allowed = k - len(banned)
    if n_allowed <= 0:
        return None
    value = int(rng.integers(n_allowed))
    for b in sorted(banned):
        if value >= b:
            value += 1
    return value


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda k: st.tuples(
    st.just(k), st.sets(st.integers(0, k - 1), max_size=3))), st.integers(0, 2**32 - 1))
def test_draw_skipping_picks_the_allowed_list_entry(k_banned, seed):
    k, banned = k_banned
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    allowed = [j for j in range(k) if j not in banned]
    expected = allowed[int(ref.integers(len(allowed)))] if allowed else None
    assert _draw_skipping(rng, k, banned) == expected
    assert rng.random() == ref.random()       # the same number of draws


# the moves _propose_full_scan draws from, by (len(cur) < max_len) + 2 * (len(cur) > 2)
_MOVES = (("replace", "swap", "reverse"),
          ("replace", "swap", "reverse", "insert"),
          ("replace", "swap", "reverse", "delete"),
          ("replace", "swap", "reverse", "insert", "delete"))


def _propose_full_scan(rng, cur: list[int], k: int, max_len: int):
    """``_propose`` as it was written before it took move codes and checked
    only the neighbours of the entries a swap or reverse moves: moves by name,
    banned indices as a set, and every pair of the new list scanned."""
    n = len(cur)
    moves = _MOVES[(n < max_len) + 2 * (n > 2)]
    move = moves[int(rng.integers(len(moves)))]
    if move == "insert":
        pos = int(rng.integers(n + 1))
        value = _draw_skipping(rng, k, set(cur[max(pos - 1, 0):pos + 1]))
        if value is None:
            return None
        return cur[:pos] + [value] + cur[pos:], pos, n - pos
    if move == "delete":
        pos = int(rng.integers(n))
        if 0 < pos < n - 1 and cur[pos - 1] == cur[pos + 1]:
            return None
        return cur[:pos] + cur[pos + 1:], pos, n - 1 - pos
    if move == "replace":
        pos = int(rng.integers(n))
        value = _draw_skipping(rng, k, set(cur[max(pos - 1, 0):pos + 2]))
        if value is None:
            return None
        return cur[:pos] + [value] + cur[pos + 1:], pos, n - 1 - pos
    out = list(cur)
    if move == "swap":
        if n < 2:
            return None
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            return None
        if i > j:
            i, j = j, i
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
    return out, i, n - 1 - j


@st.composite
def lists_without_equal_neighbours(draw):
    """(cur, k, max_len): a list of 1..max_len indices below k, no two equal
    neighbours, with small k so that repeats a few places apart are common."""
    k = draw(st.integers(2, 9))
    max_len = draw(st.integers(2, 14))
    cur = [draw(st.integers(0, k - 1))]
    for _ in range(draw(st.integers(0, max_len - 1))):
        cur.append(draw(st.integers(0, k - 1).filter(lambda v, last=cur[-1]: v != last)))
    return cur, k, max_len


@pytest.mark.parametrize("source", [np.random.default_rng, _Draws])
@settings(max_examples=300, deadline=None)
@given(lists_without_equal_neighbours(), st.integers(0, 2**32 - 1))
@example(([0, 1], 2, 2), 0)
@example(([3, 1, 3, 1, 3], 4, 5), 1)
def test_propose_matches_the_full_scan_rule(source, case, seed):
    """Neighbour-only checks and move codes against the full-scan rule: the
    same result for every draw, and the same draws taken (the next one agrees)."""
    cur, k, max_len = case
    entropy = np.random.SeedSequence(seed)
    rng, ref = source(entropy), source(entropy)
    for _ in range(20):
        got, want = _propose(rng, cur, k, max_len), _propose_full_scan(ref, cur, k, max_len)
        assert got == want, (cur, k, max_len)
        assert rng.random() == ref.random()


# --- stream-exact annealing -----------------------------------------------------

# NEP 19 lets np.random.Generator streams change between numpy versions, and
# numpy may change its summation order; both replicas in ``variation`` follow
# numpy 2.4 and must fail loudly when numpy stops matching them.
_DRIFT = f"numpy {np.__version__} no longer matches the replay (streams may change, NEP 19)"


@pytest.mark.parametrize("seed", [0, 2013, 2**63 + 5])
def test_draws_replay_the_generator(seed):
    """``_Draws`` against ``np.random.default_rng`` over 100,000 mixed draws."""
    entropy = np.random.SeedSequence(seed)
    gen, draws = np.random.default_rng(entropy), _Draws(entropy)
    plan = random.Random(seed)
    for step in range(100_000):
        kind = plan.randrange(5)
        if kind == 0:      # a range as the annealer draws it; one in 13 is a range of one
            n = plan.randint(1, 13)
            call, got, want = f"integers({n})", draws.integers(n), int(gen.integers(n))
        elif kind == 1:    # wide ranges, where Lemire's rejection happens often
            n = plan.randint(1, 3 * 10**9)
            call, got, want = f"integers({n})", draws.integers(n), int(gen.integers(n))
        elif kind == 2:
            lo = plan.randint(-50, 50)
            hi = lo + plan.randint(1, 3 * 10**9) if plan.random() < 0.5 else lo + 1
            call, got, want = (f"integers({lo}, {hi})", draws.integers(lo, hi),
                               int(gen.integers(lo, hi)))
        else:              # random() takes a whole word, between buffered halves
            call, got, want = "random()", draws.random(), gen.random()
        assert got == want, f"{_DRIFT}: seed {seed}, draw {step} {call}: {got} != {want}"


def test_draws_refuse_ranges_outside_32_bits():
    draws = _Draws(np.random.SeedSequence(0))
    for low, high in ((0, 2**32), (0, 2**40), (5, 5), (3, 1)):
        with pytest.raises(VariationError, match="draw range"):
            draws.integers(low, high)


def _sum_cases(rng, n: int, rows: int) -> np.ndarray:
    """``rows`` float vectors of length n: jumps as the annealer sums them,
    signed values over many orders of magnitude, cancelling values, and zeros."""
    kind = n % 5
    if kind == 0:
        out = rng.random((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
    elif kind == 1:
        out = rng.standard_normal((rows, n)) * np.exp(20 * rng.standard_normal((rows, n)))
    elif kind == 2:
        out = rng.choice([1e16, -1e16, 1.0, -0.5, 3.3, 1e-300, 0.0, -0.0], (rows, n))
    else:
        out = rng.random((rows, n))
    out[: rows // 20] = 0.0                       # all-zero vectors, of both signs
    out[rows // 20: rows // 10] = -0.0
    return out


def test_float_sum_matches_numpy():
    """``_float_sum`` against ``ndarray.sum``, bit for bit, on 100,100 vectors."""
    rng = np.random.default_rng(19)
    for n in range(1, 131):
        block = _sum_cases(rng, n, 770)
        for row, got in zip(block, map(_float_sum, block.tolist())):
            want = float(row.sum())
            assert got.hex() == want.hex(), f"{_DRIFT}: sum of {row.tolist()}: {got} != {want}"


def test_propose_makes_the_same_moves_from_either_source():
    entropy = np.random.SeedSequence(7)
    gen, draws = np.random.default_rng(entropy), _Draws(entropy)
    cur = [0, 1]
    for _ in range(5000):
        move = _propose(gen, cur, 9, 12)
        assert _propose(draws, cur, 9, 12) == move
        assert draws.random() == gen.random()
        cur = move[0] if move else cur


def _pyramid():
    bumps = make_bumps(BumpSpec.of(Fraction(1, 2), Fraction(1)))
    grid = tuple(P(Fraction(i, 2) - 1, Fraction(j, 2) - 1)
                 for j in range(5) for i in range(5))
    return SampledFunction(grid, tuple(bumps.pyramid(p) for p in grid))


def _lattice6():
    pts = tuple(P(i, j) for j in range(6) for i in range(6))
    return SampledFunction(pts, tuple(Fraction((3 * p.x + p.y * p.y) % 7 - 3, 4) for p in pts))


def _complex12():
    rng = random.Random(9)
    pts: list = []
    while len(pts) < 12:
        p = P(Fraction(rng.randint(-24, 24), 4), Fraction(rng.randint(-24, 24), 4))
        if p not in pts:
            pts.append(p)
    vals = tuple(complex(rng.randint(-400, 400) / 100, rng.randint(-400, 400) / 100)
                 for _ in pts)
    return SampledFunction(tuple(pts), vals)


# Recorded before annealing carried its counts from move to move: a proposal
# stream, an accept decision or a count that drifts moves these values.
SEARCH_PINS = [
    (_pyramid, 400, 0, "Fraction(5, 4)", (8, 3, 2, 12, 22), 2, 800, "1.25"),
    (_pyramid, 400, 1, "Fraction(5, 4)", (14, 13, 12, 5, 7), 2, 800, "1.25"),
    (_pyramid, 400, 2, "Fraction(3, 2)", (19, 12, 21, 12, 3, 6), 3, 800, "1.5"),
    (_pyramid, 400, 3, "Fraction(9, 8)", (4, 6, 10, 12, 22, 17, 3, 8), 4, 800, "1.125"),
    (_lattice6, 600, 11, "Fraction(45, 16)", (19, 20, 17, 11, 10, 8, 7, 0, 1, 5, 33, 31),
     4, 1200, "2.8125"),
    (_complex12, 600, 5, "13.519293249137037", (6, 2, 3, 5, 10, 5, 7), 3, 1200,
     "13.519293249137037"),
]


@pytest.mark.parametrize("make, iters, seed, value, order, vf, proposals, max_seen",
                         SEARCH_PINS)
def test_var_search_at_fixed_seeds_is_unchanged(make, iters, seed, value, order, vf,
                                                proposals, max_seen):
    f = make()
    est = var_search(f, SearchConfig(iters=iters, restarts=2, seed=seed))
    assert repr(est.value) == value
    assert est.witness == tuple(f.points[i] for i in order)
    assert est.witness_vf == vf
    assert est.stats["proposals"] == proposals
    assert repr(est.stats["max_objective_seen"]) == max_seen


def _lattice7():
    """The 7 x 7 lattice: 2,574 distinct patterns, the widest packed counts of the pins."""
    pts = tuple(P(i, j) for j in range(7) for i in range(7))
    return SampledFunction(pts, tuple(Fraction((2 * p.x + p.y * p.y) % 5 - 2, 3) for p in pts))


def _float14():
    """Float values on 14 points, whose lists reach 15 jumps at max_len 20."""
    rng = random.Random(17)
    pts: list = []
    while len(pts) < 14:
        p = P(Fraction(rng.randint(-20, 20), 5), Fraction(rng.randint(-20, 20), 5))
        if p not in pts:
            pts.append(p)
    return SampledFunction(tuple(pts), tuple(rng.uniform(-3, 3) for _ in pts))


def _stats(proposals, max_seen, accepted, attempts, temperature, restarts, rows, distinct):
    return {"proposals": proposals, "max_objective_seen": max_seen, "accepted": accepted,
            "attempts": attempts, "final_temperature": temperature, "restarts": restarts,
            "table_rows": rows, "distinct_rows": distinct}


# Recorded before _propose took move codes and the annealer carried its jump
# terms: every stats entry, at the edges of the configuration space.
SEARCH_CONFIG_PINS = [
    # max_len 2: the three-move tuple only, so most proposals are None
    (_pyramid, SearchConfig(iters=300, restarts=2, seed=4, max_len=2), "Fraction(1, 1)",
     (0, 12), 1, _stats(600, 1.0, 488, 1184, 0.22229219984074702, 2, 1952, 684)),
    # max_len 3: the four-move tuples, insert at 2 points and delete at 3
    (_pyramid, SearchConfig(iters=300, restarts=2, seed=5, max_len=3), "Fraction(2, 1)",
     (10, 12, 14), 1, _stats(600, 2.0, 473, 797, 0.22229219984074702, 2, 1952, 684)),
    (_lattice7, SearchConfig(iters=300, restarts=1, seed=6, max_len=12), "Fraction(5, 3)",
     (14, 30, 10, 9, 14, 15), 3,
     _stats(300, 1.6666666666666667, 249, 334, 0.2963895997876626, 1, 7816, 2574)),
    # carried terms through _float_sum's eight-accumulator branch
    (_float14, SearchConfig(iters=500, restarts=2, seed=7, max_len=20), "7.473675312276451",
     (12, 5, 12, 8, 7, 4), 3,
     _stats(1000, 7.473675312276451, 754, 1091, 0.4789044176510733, 2, 4300, 388)),
    (_pyramid, SearchConfig(iters=0, restarts=2, seed=8, max_len=12), "Fraction(1, 1)",
     (0, 12), 1, _stats(0, 1.0, 0, 0, 1.0, 2, 1952, 684)),
    (_pyramid, SearchConfig(iters=200, restarts=3, seed=9, max_len=12), "Fraction(2, 1)",
     (24, 12, 0), 1, _stats(600, 2.0, 564, 673, 0.3669578217261671, 3, 1952, 684)),
]


@pytest.mark.parametrize("make, cfg, value, order, vf, stats", SEARCH_CONFIG_PINS)
def test_var_search_at_fixed_configs_is_unchanged(make, cfg, value, order, vf, stats):
    f = make()
    est = var_search(f, cfg)
    assert repr(est.value) == value
    assert est.witness == tuple(f.points[i] for i in order)
    assert est.witness_vf == vf
    assert est.stats == stats


def test_float14_lists_reach_the_eight_accumulator_sum(monkeypatch):
    """The float pin sums lists of 8 jumps and more, past ``_float_sum``'s plain loop."""
    lengths = []

    def recorded(terms):
        lengths.append(len(terms))
        return _float_sum(terms)

    monkeypatch.setattr(variation, "_float_sum", recorded)
    var_search(_float14(), SEARCH_CONFIG_PINS[3][1])
    assert max(lengths) >= 8 and sum(n >= 8 for n in lengths) > 100


def test_var_search_reports_acceptances_and_final_temperature():
    est = var_search(_pyramid(), SearchConfig(iters=400, restarts=2, seed=0))
    assert 0 < est.stats["accepted"] <= est.stats["proposals"]
    temp = 1.0                  # the pyramid's largest value jump
    for _ in range(400):
        temp *= 0.995
    assert est.stats["final_temperature"] == temp
    # a constant function: every move has objective 0 and is accepted
    flat = SampledFunction(SQUARE, (1, 1, 1, 1))
    cfg = SearchConfig(iters=50, restarts=3, seed=4)
    est = var_search(flat, cfg)
    assert est.stats["accepted"] == est.stats["proposals"] == 150
    # one factor per proposal, multiplied in turn (0.995 ** 50 rounds one ulp apart)
    assert est.stats["final_temperature"] == math.prod([0.995] * 50)
    assert var_search(F_X, SearchConfig(iters=0, restarts=2)).stats["final_temperature"] == 1.0


def test_var_search_counts_its_attempts(monkeypatch):
    """``attempts`` counts the ``_propose`` calls of every restart, so the share
    of calls that proposed nothing is 1 - proposals / attempts."""
    calls = []
    real = variation._propose

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(variation, "_propose", counted)
    est = var_search(_pyramid(), SearchConfig(iters=400, restarts=2, seed=0))
    assert (est.stats["proposals"], est.stats["attempts"]) == (800, 870)
    assert len(calls) == 870
