"""The suite harness: id order, names, timing and the piece registry."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planevar.suite import CRITERIA, _exact_line_signs, _float_projections, run_suite


def test_registry_hands_the_built_pieces_to_criterion_13():
    results = list(run_suite(seed=0, only=[13, 9]))
    assert [r.cid for r in results] == [9, 13]
    assert [r.name for r in results] == [CRITERIA[9][0], CRITERIA[13][0]]
    assert all(r.seconds >= 0 for r in results)
    assert results[1].detail == "functions=1 pieces=512 violations=0"


def test_criterion_13_alone_checks_the_pyramid():
    (result,) = run_suite(seed=0, only=[13])
    assert (result.cid, result.name) == (13, CRITERIA[13][0])
    assert result.passed
    assert result.detail == "functions=1 pieces=8 violations=0"


def test_criterion_01_counts_on_the_sweep_ranks_without_a_sign_table(monkeypatch):
    """Both vfs of a trial come off one ``_dense_ranks`` of the longer list."""
    from planevar import _vfcore

    calls = {"build_sign_table": 0, "vf_of_indices": 0, "_dense_ranks": 0, "_sweep_counts": 0}

    def spy(name):
        original = getattr(_vfcore, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(_vfcore, name, wrapper)

    for name in calls:
        spy(name)
    (result,) = run_suite(seed=0, only=[1])
    assert result.passed
    assert result.detail == "trials=10000 violations=0 bound_violations=0"
    assert calls == {"build_sign_table": 0, "vf_of_indices": 0,
                     "_dense_ranks": 10_000, "_sweep_counts": 20_000}


def _fraction_signs(ints, a, b, c) -> np.ndarray:
    """(m, L) signs of a*x + b*y - c in Fractions of the same float lines."""
    out = np.zeros((len(ints), len(a)), dtype=np.int8)
    for p, (x, y) in enumerate(ints):
        for li in range(len(a)):
            r = Fraction(float(a[li])) * x + Fraction(float(b[li])) * y - Fraction(float(c[li]))
            out[p, li] = (r > 0) - (r < 0)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64)), min_size=1, max_size=9),
       st.lists(st.tuples(st.floats(0, math.pi), st.integers(0, 8), st.integers(-3, 3)),
                min_size=1, max_size=12))
@example([(0, 0), (1, 2), (3, -1)],
         [(0.0, 1, 0), (math.pi / 2, 1, 0), (0.3, 1, 0), (1.1, 1, 1), (2.0, 1, -1)])
def test_random_line_signs_are_exact_on_and_near_the_points(ints, lines):
    """Criterion 2's lines, each through the float projection of a sample point or
    up to three ulps off it: every sign, float-decided or not, is the Fraction sign."""
    theta = np.array([t for t, _, _ in lines])
    a, b = np.cos(theta), np.sin(theta)
    proj = _float_projections(ints, a, b)
    c = np.array([proj[p % len(ints), li] for li, (_, p, _) in enumerate(lines)])
    for li, (_, _, ulps) in enumerate(lines):
        for _ in range(abs(ulps)):
            c[li] = np.nextafter(c[li], math.copysign(math.inf, ulps))
    assert np.array_equal(_exact_line_signs(ints, proj, a, b, c), _fraction_signs(ints, a, b, c))


def test_random_line_signs_leave_the_float_filter_on_a_line_through_a_point():
    """The example above reaches the Fraction fallback, and a line along an axis
    through a point gives it the sign 0."""
    ints = [(0, 0), (1, 2), (3, -1)]
    a, b = np.cos(np.array([0.0, 0.3])), np.sin(np.array([0.0, 0.3]))
    proj = _float_projections(ints, a, b)
    c = proj[1].copy()
    assert (np.abs(proj - c) <= 4 * np.finfo(float).eps * (np.abs(proj) + np.abs(c) + 1)).any()
    signs = _exact_line_signs(ints, proj, a, b, c)
    assert signs[:, 0].tolist() == [-1, 0, 1]
    assert np.array_equal(signs, _fraction_signs(ints, a, b, c))
