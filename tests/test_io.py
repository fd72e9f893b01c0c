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


# --- the writer: one C-encoder layout, pinned to json.dumps(indent=1) ---------

_scalars = st.one_of(
    st.integers(), st.integers(-10**40, 10**40),
    st.fractions().map(enc_coord),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
)
_entries = _scalars | st.lists(st.floats(), min_size=2, max_size=2)   # [re, im] pairs
_flat_fields = st.lists(_entries, max_size=6)
_row_fields = st.lists(st.lists(_entries, max_size=4), max_size=6)   # empty and width-1 rows too
_docs = st.dictionaries(st.sampled_from(["points", "values", "vertices", "triangles", "coeffs"]),
                        _flat_fields | _row_fields, min_size=1, max_size=3)


@settings(max_examples=600, deadline=None)
@given(_docs)
def test_dump_is_json_dumps_indent_1(doc):
    assert fileio._dump(doc) == json.dumps(doc, indent=1)


@pytest.mark.parametrize("doc", [
    {"values": [1]},
    {"values": [[1.5, -0.0]]},
    {"values": [2, [1.5, -0.0], "1/2"]},
    {"values": []},
    {"coeffs": [[]]},
    {"coeffs": [[1], [], [2]]},
    {"coeffs": [[7]]},
    {"points": [[0, "1/2"]], "values": [math.nan, math.inf, -math.inf, 1e-300, -(10**40)]},
    {"coeffs": [[1, [0.0, 1.0]], [2, 3]]},
    {"coeffs": [[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]]},
])
def test_dump_edge_shapes_are_json_dumps_indent_1(doc):
    assert fileio._dump(doc) == json.dumps(doc, indent=1)


def _coord_rows(pts):
    return [[enc_coord(p.x), enc_coord(p.y)] for p in pts]


@settings(max_examples=100, deadline=None)
@given(st.lists(points, min_size=1, max_size=12, unique=True), st.data())
def test_sampled_function_writer_is_json_dumps_of_its_doc(pts, data):
    vals = data.draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    f = SampledFunction(tuple(pts), tuple(vals))
    doc = {"points": _coord_rows(pts), "values": [enc_value(v) for v in vals]}
    assert sampled_function_to_json(f) == json.dumps(doc, indent=1)


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12, unique=True), st.data())
def test_function_1d_writer_is_json_dumps_of_its_doc(xs, data):
    f = RealFunction1D.from_pairs(zip(xs, data.draw(st.lists(values, min_size=len(xs),
                                                             max_size=len(xs)))))
    doc = {"points": [[enc_coord(x), 0] for x in f.sample.points],
           "values": [enc_value(v) for v in f.values]}
    assert function_1d_to_json(f) == json.dumps(doc, indent=1)


@settings(max_examples=100, deadline=None)
@given(triangulations(), st.data())
def test_ctpp_writer_is_json_dumps_of_its_doc(tri, data):
    rows = data.draw(st.lists(st.lists(values, min_size=3, max_size=3),
                              min_size=len(tri.triangles), max_size=len(tri.triangles)))
    g = CtppFunction(tri, tuple(PlanarCoeffs(*row) for row in rows))
    doc = {"vertices": _coord_rows(tri.vertices),
           "triangles": [list(t) for t in tri.triangles],
           "coeffs": [[enc_value(v) for v in row] for row in rows]}
    assert ctpp_to_json(g) == json.dumps(doc, indent=1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(values, min_size=width, max_size=width), min_size=1, max_size=4)))
def test_poly2_writer_is_json_dumps_of_its_doc(rows):
    p = Poly2.from_rows(rows)
    doc = {"coeffs": [[enc_value(c) for c in row] for row in p.coeffs]}
    assert poly2_to_json(p) == json.dumps(doc, indent=1)


def test_grid_interpolant_writes_json_dumps_of_its_doc():
    g = interpolate_grid(lambda v: v.x * v.x - v.y / 3, Rectangle.of(0, 1, Fraction(-1, 2), 2), 24)
    text = ctpp_to_json(g)
    # compared as lines: pytest's character diff of two 100 kB strings takes minutes
    assert text.splitlines() == json.dumps(json.loads(text), indent=1).splitlines()


# --- the readers: each distinct number string decoded once per document -------

def _outcome(decode, text):
    """What ``decode`` gives, as (type, repr) of every number, or the error it raises."""
    try:
        obj = decode(text)
    except Exception as exc:                      # noqa: BLE001 - the outcome is compared
        return ("error", type(exc).__name__, str(exc))
    if isinstance(obj, SampledFunction):
        nums = [c for p in obj.points for c in p] + list(obj.values)
    elif isinstance(obj, RealFunction1D):
        nums = list(obj.sample.points) + list(obj.values)
    elif isinstance(obj, CtppFunction):
        nums = ([c for p in obj.tri.vertices for c in p] + [i for t in obj.tri.triangles for i in t]
                + [v for c in obj.coeffs for v in (c.a, c.b, c.c)])
    elif isinstance(obj, Poly2):
        nums = [c for row in obj.coeffs for c in row]
    elif isinstance(obj, Polygon):
        nums = [c for p in obj.vertices for c in p]
    else:
        nums = [c for p in obj for c in p]
    return [(type(v).__name__, repr(v)) for v in nums]


def _entry_by_entry(decode, text):
    """The oracle: ``decode`` with every number decoded on its own, no memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_memoised", lambda dec, keyed=(str,): dec)
        return _outcome(decode, text)


# few distinct entries, so that strings repeat; "1/2" beside "2/4", ints beside
# equal floats and bools, bad strings, non-numbers and [re, im] pairs
_POOL = ["1/2", "2/4", "-3", "0", "7/3", "10", 0, 1, -3, 10, 1.0, 0.5, -0.0, True, False,
         "x/2", "1/0", None, [1.0, 2.0], [0.5, -0.0]]
_pool_entries = st.sampled_from(_POOL)
_pool_points = st.lists(st.lists(_pool_entries, min_size=2, max_size=2), min_size=1, max_size=8)
_GRID_VERTICES = [[x, y] for y in (0, "1/2", 1) for x in (0, "1/2", 1)]
_GRID_TRIANGLES = [[v, v + 1, v + 4] for v in (0, 1, 3, 4)] + [[v, v + 4, v + 3] for v in (0, 1, 3, 4)]


@st.composite
def _pool_docs(draw):
    """A reader and a document for it, drawn from the pool."""
    kind = draw(st.sampled_from(["sampled", "function_1d", "list", "polygon", "ctpp", "poly2"]))
    if kind in ("sampled", "function_1d"):
        pts = draw(_pool_points | st.just(_GRID_VERTICES))
        if kind == "function_1d":
            pts = [[x, 0] for x, _ in pts]
        vals = draw(st.lists(_pool_entries, min_size=len(pts), max_size=len(pts)))
        decode = sampled_function_from_json if kind == "sampled" else function_1d_from_json
        return decode, {"points": pts, "values": vals}
    if kind == "list":
        return point_list_from_json, {"list": draw(_pool_points)}
    if kind == "polygon":
        return polygon_from_json, {"vertices": draw(_pool_points)}
    if kind == "ctpp":
        verts = draw(st.just(_GRID_VERTICES) | _pool_points)
        coeffs = draw(st.lists(st.lists(_pool_entries, min_size=3, max_size=3),
                               min_size=len(_GRID_TRIANGLES), max_size=len(_GRID_TRIANGLES)))
        return ctpp_from_json, {"vertices": verts, "triangles": _GRID_TRIANGLES, "coeffs": coeffs}
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_pool_entries, min_size=width, max_size=width),
                         min_size=1, max_size=3))
    return poly2_from_json, {"coeffs": rows}


@settings(max_examples=600, deadline=None)
@given(_pool_docs())
def test_readers_equal_an_entry_by_entry_decode(case):
    decode, doc = case
    text = json.dumps(doc)
    assert _outcome(decode, text) == _entry_by_entry(decode, text)


@pytest.mark.parametrize("decode, text, message", [
    (sampled_function_from_json,
     '{"points": [[0, 0], ["1/2", 0], [1, 0]], "values": ["1/3", "1/3", "1/0"]}',
     "bad rational '1/0'"),
    (point_list_from_json, '{"list": [["1/2", "1/2"], ["1/2", "x/2"]]}', "bad rational 'x/2'"),
    (point_list_from_json, '{"list": [[1, 1], [1, true]]}', "bad coordinate True"),
    (sampled_function_from_json, '{"points": [[0, 0], [1, 0]], "values": [1, true]}',
     "boolean is not a value"),
    (poly2_from_json, '{"coeffs": [["2/4", "2/4"], ["2/4", "2/0"]]}', "bad rational '2/0'"),
])
def test_a_bad_entry_after_a_repeated_good_one_keeps_its_message(decode, text, message):
    with pytest.raises(BadInputFile) as info:
        decode(text)
    assert str(info.value) == message
    assert _entry_by_entry(decode, text) == ("error", "BadInputFile", message)


def test_equal_values_of_different_json_types_keep_their_types():
    pts = point_list_from_json('{"list": [[1, "1/2"], [1.0, "2/4"], ["1", 0.5]]}')
    assert [type(c) for p in pts for c in p] == [Fraction] * 6
    assert pts == (P(1, Fraction(1, 2)),) * 3
    f = sampled_function_from_json('{"points": [[0, 0], [1, 0], [2, 0]], "values": [1, 1.0, "1"]}')
    assert [(type(v), v) for v in f.values] == [(int, 1), (float, 1.0), (Fraction, 1)]


def test_a_grid_document_decodes_each_distinct_number_once(monkeypatch):
    g = interpolate_grid(lambda v: v.x * v.x - v.y / 3, Rectangle.of(0, 1, 0, 1), 24)
    text = ctpp_to_json(g)
    doc = json.loads(text)
    calls = []
    for name in ("dec_coord", "dec_value"):
        real = getattr(fileio, name)
        monkeypatch.setattr(fileio, name, lambda v, real=real, name=name: calls.append(name) or real(v))
    assert ctpp_from_json(text) == g
    coords = {(type(c), c) for p in doc["vertices"] for c in p}
    strings = {c for row in doc["coeffs"] for c in row if isinstance(c, str)}
    others = [c for row in doc["coeffs"] for c in row if not isinstance(c, str)]
    assert calls.count("dec_value") == len(strings) + len(others)
    assert calls.count("dec_coord") == len(coords) + len(strings)   # dec_value reads a string so
