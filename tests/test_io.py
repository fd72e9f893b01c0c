"""Serialization round-trips and CSV formatting."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planevar.geom import GeomError, P, Polygon, Rectangle, Triangulation
from planevar.variation import PlanarCoeffs, SampledFunction, var_planar_estimate
from planevar.onedim import RealFunction1D, cantor_level
from planevar.ctpp import CtppFunction, interpolate_grid
from planevar.approx import Poly2
from planevar import fileio
from planevar.fileio import (
    BadInputFile,
    ctpp_from_json,
    ctpp_to_json,
    dec_coord,
    dec_value,
    enc_coord,
    enc_value,
    fmt_number,
    function_1d_from_json,
    function_1d_to_json,
    parse_rect,
    point_list_from_json,
    poly2_from_json,
    poly2_to_json,
    polygon_from_json,
    sampled_function_from_json,
    sampled_function_to_json,
)


class TestNumberCodec:
    def test_rational_strings(self):
        assert enc_coord(Fraction(3, 4)) == "3/4"
        assert enc_coord(Fraction(6, 2)) == 3
        assert dec_coord("3/4") == Fraction(3, 4)
        assert dec_coord(5) == Fraction(5)
        assert dec_coord(0.5) == Fraction(1, 2)

    def test_values(self):
        assert enc_value(Fraction(1, 3)) == "1/3"
        assert enc_value(2.5) == 2.5
        assert enc_value(1 + 2j) == [1.0, 2.0]
        assert dec_value([1.0, 2.0]) == 1 + 2j
        assert dec_value("7/2") == Fraction(7, 2)

    def test_bad_inputs(self):
        with pytest.raises(BadInputFile):
            dec_coord("a/b")
        with pytest.raises(BadInputFile):
            dec_value({"no": 1})


def _enc_coord_before(v):
    """``enc_coord`` as it was before its fast path: always wrap in Fraction."""
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


_LONG = "7" * 4301      # one digit past int's default string-conversion limit


def _check_dec_coord(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(BadInputFile) as info:
            dec_coord(text)
        assert str(info.value) == f"bad rational {text!r}"
    else:
        got = dec_coord(text)
        assert type(got) is Fraction and got == want


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789-+/_ .eE\n\u0663", max_size=10),
                 st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True)))
def test_dec_coord_accepts_exactly_what_fraction_accepts(text):
    _check_dec_coord(text)


@pytest.mark.parametrize("text", [
    "1/0", "1/000", "-0/5", "007/010", "-0", " 1/2", "1/2\n", "+3", "1_0/3", "\u0663/4",
    "1.5", "1e3", "--1", "1//2", "-1/-2", "", _LONG, _LONG + "/3", "3/" + _LONG,
    "-" + _LONG, _LONG + "/0",
])
def test_dec_coord_edge_strings_match_fraction(text):
    _check_dec_coord(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), st.booleans(), st.fractions(),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_enc_coord_writes_what_it_wrote_before(v):
    assert json.dumps(enc_coord(v)) == json.dumps(_enc_coord_before(v))


@pytest.mark.parametrize("v", [True, False, 0, -(10**30), Fraction(-7, 3), Fraction(6, 2), 0.75])
def test_enc_coord_edge_values_write_what_they_wrote_before(v):
    assert json.dumps(enc_coord(v)) == json.dumps(_enc_coord_before(v))


class TestNonFinite:
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_coordinates_refused(self, v):
        with pytest.raises(BadInputFile, match="non-finite"):
            dec_coord(v)

    @pytest.mark.parametrize("v", [math.nan, math.inf, [math.nan, 0.0], [0.0, -math.inf]])
    def test_values_refused(self, v):
        with pytest.raises(BadInputFile, match="non-finite"):
            dec_value(v)

    def test_string_errors_keep_their_message(self):
        with pytest.raises(BadInputFile, match="bad rational 'nan'"):
            dec_coord("nan")
        with pytest.raises(BadInputFile, match="bad rational '1/0'"):
            dec_coord("1/0")

    @pytest.mark.parametrize("decode, text", [
        (point_list_from_json, '{"list": [[0, 0], [Infinity, 1]]}'),
        (point_list_from_json, '{"list": [[NaN, 0]]}'),
        (sampled_function_from_json, '{"points": [[0, 0]], "values": [NaN]}'),
        (sampled_function_from_json, '{"points": [[0, 0]], "values": [[1.0, -Infinity]]}'),
        (poly2_from_json, '{"coeffs": [[1, NaN]]}'),
        (ctpp_from_json,
         '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, NaN]], "coeffs": []}'),
    ])
    def test_json_tokens_refused(self, decode, text):
        with pytest.raises(BadInputFile):
            decode(text)


def _points_doc(key: str, pts) -> str:
    """A document holding ``pts`` under ``key``, written as the CLI's files are."""
    return json.dumps({key: [[enc_coord(p.x), enc_coord(p.y)] for p in pts]}, indent=1)


class TestRoundTrips:
    def test_sampled_function(self):
        pts = (P(0, 0), P(Fraction(1, 3), Fraction(2, 7)))
        f = SampledFunction(pts, (Fraction(1, 2), 3 + 4j))
        back = sampled_function_from_json(sampled_function_to_json(f))
        assert back.points == f.points
        assert back.values == f.values

    def test_function_1d(self):
        f = cantor_level(2)
        back = function_1d_from_json(function_1d_to_json(f))
        assert back == f

    def test_function_1d_rejects_off_axis(self):
        f = SampledFunction((P(0, 1),), (Fraction(1),))
        text = sampled_function_to_json(f)
        with pytest.raises(BadInputFile):
            function_1d_from_json(text)

    def test_point_list(self):
        pts = (P(0, 0), P(1, 0), P(0, 0))
        back = point_list_from_json(_points_doc("list", pts))
        assert back == pts

    def test_polygon(self):
        poly = Polygon((P(0, 0), P(2, 0), P(2, 1), P(Fraction(1, 2), 3)))
        back = polygon_from_json(_points_doc("vertices", poly.vertices))
        assert back.vertices == poly.vertices

    def test_ctpp(self):
        g = interpolate_grid(lambda v: v.x * v.y, Rectangle.of(0, 1, 0, 1), 2)
        back = ctpp_from_json(ctpp_to_json(g))
        assert isinstance(back, CtppFunction)
        assert back.tri.vertices == g.tri.vertices
        assert all((a.a, a.b, a.c) == (b.a, b.b, b.c)
                   for a, b in zip(back.coeffs, g.coeffs))

    def test_poly2(self):
        p = Poly2.from_rows([[Fraction(1, 3), 0], [2, Fraction(-5, 7)]])
        back = poly2_from_json(poly2_to_json(p))
        assert back == p

    def test_parse_rect(self):
        r = parse_rect("0,1,-1/2,1/2")
        assert r == Rectangle.of(0, 1, Fraction(-1, 2), Fraction(1, 2))
        with pytest.raises(BadInputFile):
            parse_rect("1,2,3")


class TestCsv:
    def test_fmt_number(self):
        assert fmt_number(Fraction(1, 3)) == "1/3"
        assert fmt_number(Fraction(4, 2)) == "2"
        assert fmt_number(0.1234567890123456) == "0.123456789012"
        assert fmt_number(1 + 2j) == "1+2i"
        assert fmt_number(1 - 2j) == "1-2i"
        assert fmt_number(True) == "true"

    def test_var_estimate_row(self):
        sq = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        est = var_planar_estimate(PlanarCoeffs(Fraction(1), Fraction(0), Fraction(0)),
                                  sq)
        row = fileio.var_estimate_csv_row(est)
        assert row == "1,true,planar,1,2,"

    def test_bad_json_reports_location(self):
        with pytest.raises(BadInputFile, match="line 1"):
            sampled_function_from_json("{bad json")


_TRIANGLE = '"vertices": [[0, 0], [1, 0], [0, 1]]'


def triangulation_from_json(text: str) -> Triangulation:
    """The triangulation part of a CTPP document, decoded as ctpp_from_json decodes it."""
    return fileio._triangulation(fileio._load(text))


@pytest.mark.parametrize("decode, text", [
    (sampled_function_from_json, '{"points": 5, "values": []}'),
    (sampled_function_from_json, '{"points": [[0, 0]], "values": 3}'),
    (sampled_function_from_json, '{"points": [[0, 0, 0]], "values": [1]}'),
    (point_list_from_json, '{"list": 3}'),
    (point_list_from_json, '{"list": "ab"}'),
    (polygon_from_json, '{"vertices": {"a": 1}}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1]]}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, 7]]}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, -1]]}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, 2.5]]}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, true]]}'),
    (triangulation_from_json, '{' + _TRIANGLE + ', "triangles": [5]}'),
    (ctpp_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, 2]], "coeffs": [[0, 0]]}'),
    (ctpp_from_json, '{' + _TRIANGLE + ', "triangles": [[0, 1, 2]], "coeffs": [3]}'),
    (poly2_from_json, '{"coeffs": 3}'),
    (poly2_from_json, '{"coeffs": [3]}'),
    (poly2_from_json, '{"coeffs": []}'),
    (poly2_from_json, '{"coeffs": [[]]}'),
    (poly2_from_json, '{"coeffs": [[1], []]}'),
])
def test_shape_errors_are_bad_input(decode, text):
    with pytest.raises(BadInputFile):
        decode(text)


def test_missing_field_message_is_kept():
    with pytest.raises(BadInputFile, match="missing field 'values'"):
        sampled_function_from_json('{"points": [[0, 0]]}')


# --- Hypothesis round-trips ---------------------------------------------------

rationals = st.fractions() | st.integers(-10**30, 10**30).map(Fraction)
points = st.builds(P, rationals, rationals)
exact_values = st.integers(-10**30, 10**30) | st.fractions()
inexact_values = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.complex_numbers(allow_nan=False, allow_infinity=False))


def _same_values(a, b) -> bool:
    """Equal, and float or complex values keep their bits (the sign of zero too)."""
    return a == b and all(repr(u) == repr(v) for u, v in zip(a, b)
                          if isinstance(u, (float, complex)))


@settings(max_examples=150, deadline=None)
@given(st.lists(points, min_size=1, max_size=12, unique=True), st.data())
def test_sampled_function_round_trip(pts, data):
    values = data.draw(st.lists(exact_values | inexact_values,
                                min_size=len(pts), max_size=len(pts)))
    f = SampledFunction(tuple(pts), tuple(values))
    back = sampled_function_from_json(sampled_function_to_json(f))
    assert back == f
    assert _same_values(back.values, f.values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["list", "points"]), st.lists(points, max_size=12))
def test_point_list_round_trip(key, pts):
    assert point_list_from_json(_points_doc(key, pts)) == tuple(pts)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(exact_values | inexact_values, min_size=width, max_size=width),
    min_size=1, max_size=4)))
def test_poly2_round_trip(rows):
    p = Poly2.from_rows(rows)
    back = poly2_from_json(poly2_to_json(p))
    assert back == p
    assert all(_same_values(a, b) for a, b in zip(back.coeffs, p.coeffs))


# primitive integer directions in angle order, for star-shaped polygons
_DIRECTIONS = sorted({(a // math.gcd(a, b), b // math.gcd(a, b))
                      for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)},
                     key=lambda d: math.atan2(d[1], d[0]))


@st.composite
def polygons(draw) -> Polygon:
    """A polygon with vertices at increasing angles around a centre: simple when
    the construction succeeds, which the rare collinear or crossing draw does not."""
    dirs = sorted(draw(st.lists(st.integers(0, len(_DIRECTIONS) - 1),
                                min_size=3, max_size=8, unique=True)))
    radii = draw(st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8),
                          min_size=len(dirs), max_size=len(dirs)))
    cx, cy = draw(rationals), draw(rationals)
    pts = tuple(P(cx + r * _DIRECTIONS[d][0], cy + r * _DIRECTIONS[d][1])
                for d, r in zip(dirs, radii))
    try:
        return Polygon(pts)
    except GeomError:
        assume(False)


@st.composite
def triangulations(draw) -> Triangulation:
    """A fan over 3-10 vertices, each triangle's indices and the triangle order shuffled."""
    verts = tuple(draw(st.lists(points, min_size=3, max_size=10)))
    fan = [draw(st.permutations((0, i, i + 1))) for i in range(1, len(verts) - 1)]
    return Triangulation(verts, tuple(tuple(t) for t in draw(st.permutations(fan))))


values = exact_values | inexact_values


@settings(max_examples=100, deadline=None)
@given(polygons())
def test_polygon_round_trip(poly):
    assert polygon_from_json(_points_doc("vertices", poly.vertices)) == poly


@settings(max_examples=100, deadline=None)
@given(triangulations(), st.data())
def test_ctpp_round_trip(tri, data):
    flat = data.draw(st.lists(values, min_size=3 * len(tri.triangles),
                              max_size=3 * len(tri.triangles)))
    g = CtppFunction(tri, tuple(PlanarCoeffs(*flat[i:i + 3]) for i in range(0, len(flat), 3)))
    back = ctpp_from_json(ctpp_to_json(g))
    assert back == g
    assert _same_values(flat, [v for c in back.coeffs for v in (c.a, c.b, c.c)])


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12, unique=True), st.data())
def test_function_1d_round_trip(xs, data):
    vals = data.draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    f = RealFunction1D.from_pairs(zip(xs, vals))
    back = function_1d_from_json(function_1d_to_json(f))
    assert back == f
    assert _same_values(back.values, f.values)
