"""One-dimensional variation, gap extension, modulus, and example generators."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planevar import onedim
from planevar.geom import P
from planevar.onedim import (
    AcModulus,
    GridOutsideJ,
    OnedimError,
    RealFunction1D,
    RealSample,
    ac_modulus,
    bv_norm_1d,
    cantor_level,
    iota_extend,
    make_example,
    one_over_n,
    reciprocal_alternating,
    reciprocal_even,
    reciprocal_odd,
    var_1d,
)
from planevar.variation import (InstanceTooLarge, SampledFunction, _on_floats, all_exact, cvar,
                                vf_exact)


def f_of(pairs):
    return RealFunction1D.from_pairs(pairs)


class TestVar1d:
    def test_identity(self):
        assert var_1d(f_of([(0, Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
                            (1, Fraction(1))])) == 1

    def test_alternating_reciprocals_35_12(self):
        f = reciprocal_alternating(4)
        sub = RealFunction1D.from_pairs(
            [(x, f.at(x)) for x in f.sample.points if x != 0])
        assert var_1d(sub) == Fraction(35, 12)

    def test_cantor_levels(self):
        for k in range(7):
            assert var_1d(cantor_level(k)) == 1

    def test_matches_cvar_on_axis(self):
        # cross-module: embedding on the x-axis preserves the monotone-list value
        rng = random.Random(3)
        for _ in range(20):
            xs = sorted({Fraction(rng.randint(-16, 16), 8) for _ in range(6)})
            if len(xs) < 2:
                continue
            f = f_of([(x, Fraction(rng.randint(-10, 10), 4)) for x in xs])
            mono = tuple(P(x, 0) for x in f.sample.points)
            assert cvar(SampledFunction(mono, f.values), mono) == var_1d(f)
            assert vf_exact(mono).vf == 1


class TestIota:
    def test_midpoint(self):
        f = f_of([(0, Fraction(0)), (1, Fraction(1))])
        ext = iota_extend(f, RealSample.of([Fraction(1, 2)]))
        assert ext.at(Fraction(1, 2)) == Fraction(1, 2)

    def test_constant(self):
        f = f_of([(0, Fraction(3)), (1, Fraction(3))])
        ext = iota_extend(f, RealSample.of([Fraction(1, 3), Fraction(2, 3)]))
        assert set(ext.values) == {Fraction(3)}

    def test_cantor_isometry_on_dyadic_grid(self):
        f = cantor_level(2)
        grid = RealSample.of([Fraction(k, 16) for k in range(17)])
        ext = iota_extend(f, grid)
        assert var_1d(ext) == var_1d(f) == 1

    def test_isometry_random(self):
        rng = random.Random(7)
        for _ in range(60):
            xs = sorted({Fraction(rng.randint(-24, 24), 8) for _ in range(6)})
            if len(xs) < 2:
                continue
            f = f_of([(x, Fraction(rng.randint(-12, 12), 8)) for x in xs])
            grid = RealSample.of(
                [xs[0] + (xs[-1] - xs[0]) * Fraction(rng.randint(0, 12), 12)
                 for _ in range(4)])
            assert var_1d(iota_extend(f, grid)) == var_1d(f)

    def test_complex_isometry(self):
        f = f_of([(0, 0j), (1, 1 + 1j)])
        ext = iota_extend(f, RealSample.of([Fraction(1, 4), Fraction(3, 4)]))
        assert var_1d(ext) == pytest.approx(var_1d(f))

    def test_grid_outside_raises(self):
        f = f_of([(0, Fraction(0)), (1, Fraction(1))])
        with pytest.raises(GridOutsideJ):
            iota_extend(f, RealSample.of([2]))


_VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, min_size=2, max_size=8, unique=True), st.data())
def test_iota_extend_is_the_segment_rule(xs, data):
    xs = sorted(xs)
    vals = data.draw(st.lists(_VALUES, min_size=len(xs), max_size=len(xs)))
    f = RealFunction1D(RealSample(tuple(xs)), tuple(vals))
    grid = data.draw(st.lists(st.fractions(min_value=xs[0], max_value=xs[-1],
                                           max_denominator=24), min_size=1, max_size=6))
    ext = iota_extend(f, RealSample.of(grid))
    assert ext.sample.points == tuple(sorted(set(xs) | set(grid)))
    known = dict(zip(xs, vals))
    for x, v in zip(ext.sample.points, ext.values):
        if x in known:
            assert v == known[x]
            continue
        i = next(i for i, p in enumerate(xs) if p > x)
        a, b, fa, fb = xs[i - 1], xs[i], vals[i - 1], vals[i]
        assert v == (fa * (b - x) + fb * (x - a)) / (b - a)
    assert var_1d(ext) == var_1d(f)


def brute_force_modulus(f: RealFunction1D, delta: Fraction):
    """Independent oracle: enumerate every non-overlapping interval family."""
    ts = f.sample.points
    n = len(ts)
    intervals = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if ts[j] - ts[i] <= delta]
    best = Fraction(0)
    for r in range(1, len(intervals) + 1):
        for combo in itertools.combinations(intervals, r):
            ok = True
            total_len = Fraction(0)
            for (i1, j1), (i2, j2) in itertools.combinations(combo, 2):
                if ts[i1] < ts[j2] and ts[i2] < ts[j1]:
                    ok = False
                    break
            if not ok:
                continue
            for i, j in combo:
                total_len += ts[j] - ts[i]
            if total_len > delta:
                continue
            val = sum((abs(f.values[j] - f.values[i]) for i, j in combo), Fraction(0))
            if val > best:
                best = val
        if len(intervals) > 12:
            break  # cap the combinatorial blowup for larger witnesses
    return best


class TestAcModulus:
    def test_budget_too_small(self):
        f = f_of([(0, Fraction(0)), (1, Fraction(1))])
        res = ac_modulus(f, Fraction(1, 2))
        assert res.value == 0 and res.witness == ()

    def test_three_points(self):
        f = f_of([(0, Fraction(0)), (Fraction(2, 5), Fraction(2, 5)),
                  (1, Fraction(1))])
        res = ac_modulus(f, Fraction(1, 2))
        assert res.value == Fraction(2, 5)
        assert res.witness == ((Fraction(0), Fraction(2, 5)),)

    def test_exact_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(25):
            xs = sorted({Fraction(rng.randint(0, 24), 8) for _ in range(6)})
            if len(xs) < 3:
                continue
            f = f_of([(x, Fraction(rng.randint(-8, 8), 4)) for x in xs])
            delta = Fraction(rng.randint(1, 12), 8)
            res = ac_modulus(f, delta)
            assert res.exact
            assert res.value == brute_force_modulus(f, delta)

    def test_cantor_small_budget(self):
        # a single level-k interval fits in budget 3^-k and yields 2^-k
        for k in (2, 3):
            f = cantor_level(k)
            res = ac_modulus(f, Fraction(1, 3 ** k))
            assert res.exact and res.value == Fraction(1, 2 ** k)
        f4 = cantor_level(4)
        res4 = ac_modulus(f4, Fraction(1, 81))
        assert not res4.exact and res4.value >= Fraction(1, 16)

    def test_monotone_in_delta_and_capped_by_var(self):
        rng = random.Random(13)
        for _ in range(10):
            xs = sorted({Fraction(rng.randint(0, 16), 4) for _ in range(5)})
            if len(xs) < 3:
                continue
            f = f_of([(x, Fraction(rng.randint(-6, 6), 2)) for x in xs])
            prev = Fraction(0)
            for delta in (Fraction(1, 4), Fraction(1), Fraction(3), Fraction(10)):
                val = ac_modulus(f, delta).value
                assert val >= prev
                assert val <= var_1d(f)
                prev = val

    def test_identity_capped_by_delta(self):
        f = f_of([(Fraction(k, 8), Fraction(k, 8)) for k in range(9)])
        for delta in (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)):
            assert ac_modulus(f, delta).value <= delta

    def test_exact_mode_cap(self):
        f = cantor_level(4)  # 32 points
        with pytest.raises(InstanceTooLarge):
            ac_modulus(f, Fraction(1, 3), mode="exact")
        res = ac_modulus(f, Fraction(1, 3), mode="greedy")
        assert isinstance(res, AcModulus) and not res.exact


    @pytest.mark.parametrize("mode", ["auto", "greedy"])
    def test_greedy_family_past_the_pair_cap_is_refused(self, mode):
        # 400 points of 1/n within delta = 1 of one another: 80,200 pairs
        with pytest.raises(InstanceTooLarge, match="more than 25000 sample pairs"):
            ac_modulus(one_over_n(400), 1, mode=mode)

    def test_pair_cap_counts_the_pairs_within_delta(self, monkeypatch):
        f = cantor_level(6)
        delta = Fraction(2, 3) ** 6
        ts = f.sample.points
        within = sum(1 for i, s in enumerate(ts) for t in ts[i + 1:] if t - s <= delta)
        assert within == 1740
        expected = ac_modulus(f, delta)
        monkeypatch.setattr(onedim, "_AC_MAX_PAIRS", within)
        assert ac_modulus(f, delta) == expected
        monkeypatch.setattr(onedim, "_AC_MAX_PAIRS", within - 1)
        with pytest.raises(InstanceTooLarge):
            ac_modulus(f, delta)

def _greedy_by_scan(f: RealFunction1D, delta: Fraction) -> AcModulus:
    """The greedy family, each candidate tested against every interval taken."""
    ts = f.sample.points
    n = len(ts)
    rational = all_exact(f.values)
    vals = f.values if rational else _on_floats(tuple, f.values)
    cands = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            length = ts[j] - ts[i]
            if length > delta:
                break
            w = abs(vals[j] - vals[i])
            if w > 0:
                cands.append((w / length, -length, -i, -j, i, j, w, length))
    cands.sort(reverse=True)
    taken = []
    total = Fraction(0) if rational else 0.0
    remaining = delta
    for _, _, _, _, i, j, w, length in cands:
        if length > remaining:
            continue
        if any(ts[i] < ts[tj] and ts[ti] < ts[j] for ti, tj in taken):
            continue
        taken.append((i, j))
        total = total + w
        remaining -= length
    taken.sort()
    return AcModulus(total, tuple((ts[i], ts[j]) for i, j in taken), False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, min_size=2, max_size=40, unique=True), st.booleans(), st.data())
def test_greedy_modulus_equals_the_scan_of_every_taken_interval(xs, exact, data):
    xs = sorted(xs)
    values = st.lists(_VALUES if exact else st.floats(-4, 4), min_size=len(xs),
                      max_size=len(xs))
    f = RealFunction1D(RealSample(tuple(xs)), tuple(data.draw(values)))
    delta = data.draw(st.fractions(min_value=Fraction(1, 24), max_value=8, max_denominator=24))
    got = ac_modulus(f, delta, mode="greedy")
    want = _greedy_by_scan(f, delta)
    assert (got.value, got.witness, got.exact) == (want.value, want.witness, want.exact)
    assert type(got.value) is type(want.value)


class TestGenerators:
    def test_reciprocal_alternating_n4(self):
        f = reciprocal_alternating(4)
        assert f.sample.points == (Fraction(0), Fraction(1, 4), Fraction(1, 3),
                                   Fraction(1, 2), Fraction(1))
        assert f.at(Fraction(1, 2)) == Fraction(1, 2)
        assert f.at(Fraction(1, 3)) == Fraction(-1, 3)

    def test_cantor_level_1(self):
        f = cantor_level(1)
        assert f.sample.points == (Fraction(0), Fraction(1, 3), Fraction(2, 3),
                                   Fraction(1))
        assert f.values == (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))

    def test_one_over_n(self):
        f = one_over_n(3)
        assert f.sample.points == (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                   Fraction(1))

    def test_odd_even_split(self):
        fo = reciprocal_odd(8)
        fe = reciprocal_even(8)
        assert Fraction(1) in fo.sample.points
        assert Fraction(1, 2) in fe.sample.points
        assert var_1d(fo) == 1  # monotone on the odd sample
        assert var_1d(fe) == Fraction(1, 2)

    def test_divergence_lower_bound(self):
        for n in (10, 50):
            f = reciprocal_alternating(n)
            sub = RealFunction1D.from_pairs(
                [(x, f.at(x)) for x in f.sample.points if x != 0])
            assert var_1d(sub) >= Fraction(2 * math.log(n) - 2)

    def test_dispatcher(self):
        assert make_example("cantor", 2).sample.points == cantor_level(2).sample.points
        with pytest.raises(Exception):
            make_example("nope", 3)


def test_bv_norm_1d():
    f = f_of([(0, Fraction(1)), (1, Fraction(-2))])
    assert bv_norm_1d(f) == 2 + 3


@pytest.mark.parametrize("kind", ["reciprocal-alternating", "reciprocal-odd",
                                  "reciprocal-even", "cantor", "one-over-n"])
def test_make_example_refuses_a_size_past_the_cap_before_any_point(monkeypatch, kind):
    from planevar import onedim

    def no_points(n):
        raise AssertionError("the generator ran")

    assert onedim.MAX_EXAMPLE_N == 100_000
    monkeypatch.setitem(onedim._EXAMPLE_KINDS, kind, no_points)
    with pytest.raises(OnedimError, match="example size must be <= 100000, got 100001"):
        make_example(kind, onedim.MAX_EXAMPLE_N + 1)
