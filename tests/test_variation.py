"""Curve variation, variation factors, and the 2-D variation estimates."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from planevar._vfcore import _counts_from_matrix, build_sign_table
from planevar.geom import AffineMap, Line, P
from planevar.suite import _crossing_count_reference
from planevar.variation import (
    DomainTooSmall,
    InstanceTooLarge,
    MismatchedEstimate,
    NonRealCoefficients,
    PlanarCoeffs,
    PointOutsideDomain,
    SampledFunction,
    SearchConfig,
    SingularMap,
    VarEstimate,
    VariationError,
    affine_pushforward,
    bv_norm,
    cvar,
    is_collinear,
    is_exact_number,
    lipschitz_constant,
    var_collinear,
    var_exact_small,
    var_planar,
    var_planar_estimate,
    var_search,
    verify_estimate,
    vf_exact,
    vf_line,
)


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
                from planevar.geom import line_through
                count, _ = vf_line(pts, line_through(p, q))
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
        assert bv_norm(f, est) == 5

    def test_bv_norm_planar(self):
        est = var_planar_estimate(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                                  SQUARE)
        assert bv_norm(F_X, est) == 2

    def test_bv_norm_mismatch(self):
        wrong = VarEstimate(value=Fraction(9), witness=(SQUARE[0], SQUARE[1]),
                            witness_vf=1, exact=True, method="planar")
        with pytest.raises(MismatchedEstimate):
            bv_norm(F_X, wrong)

    def test_lipschitz_examples(self):
        assert lipschitz_constant(SampledFunction(SQUARE, (1, 1, 1, 1))) == 0
        two = SampledFunction((P(0, 0), P(1, 0)), (Fraction(0), Fraction(1)))
        assert lipschitz_constant(two) == 1
        with pytest.raises(DomainTooSmall):
            lipschitz_constant(SampledFunction((P(0, 0),), (Fraction(1),)))

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
            assert lipschitz_constant(f) <= grad + 1e-12

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
            diam = math.sqrt(float(f.diameter_sq()))
            assert float(est.value) <= diam * lipschitz_constant(f) + 1e-9

    def test_affine_identity_and_translation(self):
        ident = AffineMap.of(1, 0, 0, 1)
        assert affine_pushforward(F_X, ident).points == F_X.points
        shift = AffineMap.of(1, 0, 0, 1, 1, 1)
        moved = affine_pushforward(F_X, shift)
        est = var_exact_small(F_X, 4)
        assert vf_exact(est.witness).vf == vf_exact(
            tuple(shift.apply(p) for p in est.witness)).vf

    def test_affine_invariance_of_var(self):
        rng = random.Random(43)
        rot90 = AffineMap.of(0, -1, 1, 0)
        for _ in range(8):
            pts = []
            while len(pts) < 5:
                p = rand_point(rng, span=3, den=2)
                if p not in pts:
                    pts.append(p)
            vals = tuple(Fraction(rng.randint(-8, 8), 2) for _ in pts)
            f = SampledFunction(tuple(pts), vals)
            assert var_exact_small(f, 4).value == \
                var_exact_small(affine_pushforward(f, rot90), 4).value
            while True:
                phi = AffineMap.of(*(Fraction(rng.randint(-4, 4), 2) for _ in range(4)),
                                   rng.randint(-2, 2), rng.randint(-2, 2))
                if phi.det != 0:
                    break
            assert var_exact_small(f, 4).value == \
                var_exact_small(affine_pushforward(f, phi), 4).value

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            affine_pushforward(F_X, AffineMap.of(1, 1, 1, 1))

    def test_product_norm_lower_bound(self):
        # search lower bound of a product never exceeds the product of exact norms
        pts = tuple(P(Fraction(i, 2), 0) for i in range(5))
        cf = PlanarCoeffs(Fraction(1, 2), Fraction(0), Fraction(1, 4))
        cg = PlanarCoeffs(Fraction(-1, 3), Fraction(0), Fraction(1))
        f = SampledFunction(pts, tuple(cf.eval(p) for p in pts))
        g = SampledFunction(pts, tuple(cg.eval(p) for p in pts))
        prod = SampledFunction(pts, tuple(a * b for a, b in zip(f.values, g.values)))
        bf = bv_norm(f, var_planar_estimate(cf, pts))
        bg = bv_norm(g, var_planar_estimate(cg, pts))
        est = var_search(prod, SearchConfig(iters=1500, restarts=4, seed=3))
        assert bv_norm(prod, est) <= bf * bg


def test_is_collinear():
    assert is_collinear((P(0, 0), P(1, 1), P(2, 2)))
    assert not is_collinear((P(0, 0), P(1, 1), P(2, 0)))


def test_thread_cap_does_not_change_results(monkeypatch):
    cfg = SearchConfig(iters=300, restarts=4, seed=5)
    serial = var_search(F_X, cfg)
    monkeypatch.setenv("PLANEVAR_THREADS", "4")
    threaded = var_search(F_X, cfg)
    assert serial.value == threaded.value
    assert serial.witness == threaded.witness
    assert serial.stats["max_objective_seen"] == threaded.stats["max_objective_seen"]


def test_var_collinear_requires_collinear():
    with pytest.raises(Exception):
        var_collinear(F_X)


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


@pytest.mark.parametrize("bad", [dict(restarts=0), dict(iters=-1), dict(max_len=1),
                                 dict(cooling=0.0), dict(cooling=1.5)])
def test_search_config_rejects_bad_values(bad):
    with pytest.raises(VariationError):
        SearchConfig(**bad)


def test_is_exact_number():
    assert is_exact_number(3) and is_exact_number(Fraction(1, 3))
    assert not is_exact_number(True)
    assert not is_exact_number(0.5)
    assert not is_exact_number(1j)
