"""File formats: JSON for geometry/functions, CSV rows for reports.

Rationals serialize as "p/q" strings (integers as plain numbers) so files
round-trip exactly; complex values as [re, im] pairs. CSV cells print
rationals as p/q and complex values as re+imi with 12 significant digits.

Exact fast path. ``dec_coord`` reads a string of the plain form
``-?[0-9]+(/[0-9]+)?`` through ``int()`` and ``Fraction(n, d)``; every other
string (whitespace, ``+``, ``_``, non-ASCII digits, decimals, exponents)
falls back to ``Fraction(str)``, so the two accept the same strings and give
equal values. A zero denominator, or a number past ``int``'s digit limit,
raises the same ``bad rational`` error on either path. ``enc_coord`` wraps
its argument in ``Fraction`` only when it is not one already.

Each reader decodes a distinct number string once per document: ``_points``
and the value decoders put a per-call ``dict`` in front of ``dec_coord`` and
``dec_value`` (``_memoised``). Grid documents repeat most strings, and a
``Fraction`` is immutable, so points and coefficients may share one. Only
``str`` keys, and ``int`` keys for coordinates, are memoised: a float or a bool
equal to an int would hash to the same key. A bad entry is never stored, so
the first bad entry raises the same error as a decode entry by entry.

Every writer goes through ``_dump(doc)``, which returns exactly
``json.dumps(doc, indent=1)``. With ``indent`` set, ``json`` runs its
pure-Python encoder; ``_dump`` encodes each field once with the C encoder
(``indent=None``), whose item separator already carries the newline and the
indent of the innermost level, then moves the row brackets onto their own
lines with one ``str.replace``. Both encoders write floats with
``float.__repr__`` and non-finite floats as ``NaN``/``Infinity``. A field whose
rows hold a list (a complex ``[re, im]`` value) or an empty row keeps
``json.dumps(indent=1)``: the bracket count tells it apart.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .geom import GeomError, Point2, Polygon, Rectangle, Triangulation, to_fraction
from .variation import PlanarCoeffs, SampledFunction, VarEstimate
from .onedim import RealFunction1D
from .ctpp import CtppFunction
from .approx import Poly2


class BadInputFile(ValueError):
    pass


def enc_coord(v: Fraction):
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def dec_coord(v) -> Fraction:
    if isinstance(v, bool):
        raise BadInputFile(f"bad coordinate {v!r}")
    try:
        if isinstance(v, str):
            m = _PLAIN_RATIONAL.fullmatch(v)
            if m is not None:
                num, den = m.groups()
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
        return to_fraction(v)
    except GeomError as exc:
        raise BadInputFile(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInputFile(f"bad rational {v!r}") from exc


def enc_value(v):
    if isinstance(v, Fraction):
        return enc_coord(v)
    if isinstance(v, bool):
        raise BadInputFile("boolean is not a value")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise BadInputFile(f"cannot serialize value {v!r}")


def _finite_float(v) -> float:
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInputFile(f"cannot parse value {v!r}") from exc
    if not math.isfinite(x):
        raise BadInputFile(f"non-finite value {v!r}")
    return x


def dec_value(v):
    if isinstance(v, bool):
        raise BadInputFile("boolean is not a value")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return _finite_float(v)
    if isinstance(v, str):
        return dec_coord(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(_finite_float(v[0]), _finite_float(v[1]))
    raise BadInputFile(f"cannot parse value {v!r}")


def _array(v, what: str, length: int | None = None) -> list:
    """v itself when it is a JSON array (of ``length`` items, when given)."""
    if not isinstance(v, list) or (length is not None and len(v) != length):
        raise BadInputFile(f"bad {what} {v!r}")
    return v


def _field(doc: dict, key: str) -> list:
    """The array stored under ``key``."""
    if key not in doc:
        raise BadInputFile(f"missing field {key!r}")
    return _array(doc[key], f"field {key!r}:")


def _memoised(dec, keyed: tuple = (str,)):
    """``dec`` with a memo for one document: each distinct value whose exact
    type is in ``keyed`` is decoded once. No two key types may hold equal
    values, so ``int`` never shares a memo with ``float`` (1 == 1.0)."""
    memo = {}

    def decode(v):
        if type(v) in keyed:
            d = memo.get(v)
            if d is None:
                d = memo[v] = dec(v)
            return d
        return dec(v)

    return decode


def _points(doc: dict, key: str) -> tuple[Point2, ...]:
    dec = _memoised(dec_coord, (str, int))
    pts = []
    for pair in _field(doc, key):
        x, y = _array(pair, "point", 2)
        pts.append(Point2(dec(x), dec(y)))
    return tuple(pts)


def _triangulation(doc: dict) -> Triangulation:
    verts = _points(doc, "vertices")
    tris = tuple(tuple(_array(t, "triangle")) for t in _field(doc, "triangles"))
    try:
        return Triangulation(verts, tris)
    except GeomError as exc:
        raise BadInputFile(str(exc)) from exc


# --- the writer ----------------------------------------------------------------

_ROWS = json.JSONEncoder(separators=(",\n   ", ": "))
_FLAT = json.JSONEncoder(separators=(",\n  ", ": "))


def _dump(doc: dict) -> str:
    """``json.dumps(doc, indent=1)`` of a writer's document: a non-empty dict
    of lists whose items are numbers, ``p/q`` strings or lists of those."""
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {_dump_field(v)}" for k, v in doc.items()) + "\n}"


def _dump_field(v: list) -> str:
    if v:
        if type(v[0]) is list:
            s = _ROWS.encode(v)
            # one "[" per row and the outer one: no row holds a list or is empty
            if s.count("[") == len(v) + 1 and "[]" not in s:
                return "[\n  [\n   " + s[2:-2].replace("],\n   [", "\n  ],\n  [\n   ") + "\n  ]\n ]"
        else:
            s = _FLAT.encode(v)
            if s.count("[") == 1:
                return "[\n  " + s[1:-1] + "\n ]"
    return json.dumps(v, indent=1).replace("\n", "\n ")


# --- sampled functions ------------------------------------------------------

def sampled_function_to_json(f: SampledFunction) -> str:
    doc = {
        "points": [[enc_coord(p.x), enc_coord(p.y)] for p in f.points],
        "values": [enc_value(v) for v in f.values],
    }
    return _dump(doc)


def sampled_function_from_json(text: str) -> SampledFunction:
    doc = _load(text)
    pts = _points(doc, "points")
    vals = tuple(map(_memoised(dec_value), _field(doc, "values")))
    if len(pts) != len(vals):
        raise BadInputFile("points/values length mismatch")
    return SampledFunction(pts, vals)


def function_1d_to_json(f: RealFunction1D) -> str:
    doc = {
        "points": [[enc_coord(x), 0] for x in f.sample.points],
        "values": [enc_value(v) for v in f.values],
    }
    return _dump(doc)


def function_1d_from_json(text: str) -> RealFunction1D:
    f = sampled_function_from_json(text)
    for p in f.points:
        if p.y != 0:
            raise BadInputFile("one-dimensional input must have y = 0 throughout")
    return RealFunction1D.from_pairs([(p.x, v) for p, v in zip(f.points, f.values)])


# --- point lists ------------------------------------------------------------

def point_list_from_json(text: str) -> tuple[Point2, ...]:
    doc = _load(text)
    return _points(doc, "list" if "list" in doc else "points")


# --- polygons ----------------------------------------------------------------

def polygon_from_json(text: str) -> Polygon:
    return Polygon(_points(_load(text), "vertices"))


# --- piecewise planar functions ---------------------------------------------

def ctpp_to_json(g: CtppFunction) -> str:
    doc = {
        "vertices": [[enc_coord(p.x), enc_coord(p.y)] for p in g.tri.vertices],
        "triangles": [list(t) for t in g.tri.triangles],
        "coeffs": [[enc_value(c.a), enc_value(c.b), enc_value(c.c)]
                   for c in g.coeffs],
    }
    return _dump(doc)


def ctpp_from_json(text: str) -> CtppFunction:
    doc = _load(text)
    tri = _triangulation(doc)
    dec = _memoised(dec_value)
    coeffs = []
    for triple in _field(doc, "coeffs"):
        a, b, c = _array(triple, "coefficient triple", 3)
        coeffs.append(PlanarCoeffs(dec(a), dec(b), dec(c)))
    return CtppFunction(tri, tuple(coeffs))


# --- polynomials -------------------------------------------------------------

def poly2_to_json(p) -> str:
    return _dump({"coeffs": [[enc_value(c) for c in row] for row in p.coeffs]})


def poly2_from_json(text: str) -> Poly2:
    rows = [_array(row, "coefficient row") for row in _field(_load(text), "coeffs")]
    if not rows or not all(rows):
        raise BadInputFile("field 'coeffs': empty coefficient array or row")
    dec = _memoised(dec_value)
    return Poly2.from_rows([[dec(c) for c in row] for row in rows])


# --- rectangles ---------------------------------------------------------------

def parse_coords(text: str, what: str, form: str) -> list[Fraction]:
    """Comma-separated exact numbers, exactly as many as ``form`` names."""
    parts = text.split(",")
    if len(parts) != len(form.split(",")):
        raise BadInputFile(f"{what} must be {form}")
    return [dec_coord(p.strip()) for p in parts]


def parse_rect(text: str) -> Rectangle:
    return Rectangle(*parse_coords(text, "rectangle", "x_min,x_max,y_min,y_max"))


# --- CSV cells ----------------------------------------------------------------

def fmt_number(v) -> str:
    if isinstance(v, Fraction):
        return str(enc_coord(v))
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        if v.imag == 0:
            return f"{v.real:.12g}"
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real:.12g}{sign}{abs(v.imag):.12g}i"
    if v is None:
        return ""
    return str(v)


VAR_CSV_HEADER = "value,exact,method,vf,witness_len,seed"


def var_estimate_csv_row(est: VarEstimate) -> str:
    return ",".join([
        fmt_number(est.value),
        fmt_number(est.exact),
        est.method,
        str(est.witness_vf),
        str(len(est.witness)),
        "" if est.seed is None else str(est.seed),
    ])


JOIN_CSV_HEADER = "instance,joins_convexly,var1,var2,var_union,lower_ok,upper_ok,exact"


def join_report_csv_row(r) -> str:
    return ",".join([
        r.instance,
        fmt_number(r.joins_convexly),
        fmt_number(r.var1),
        fmt_number(r.var2),
        fmt_number(r.var_union),
        fmt_number(r.lower_ok),
        fmt_number(r.upper_ok),
        fmt_number(r.exact),
    ])


APPROX_CSV_HEADER = "eps_meas,sup_err,lip_err,bound,pass"


def c2_report_csv_row(rep) -> str:
    return ",".join([
        fmt_number(rep.eps_meas),
        fmt_number(rep.sup_err),
        fmt_number(rep.lip_err),
        fmt_number(rep.bound),
        fmt_number(rep.passed),
    ])


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInputFile(f"invalid JSON: line {exc.lineno} col {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise BadInputFile("top-level JSON object expected")
    return doc
