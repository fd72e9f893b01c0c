"""File formats: JSON for geometry/functions, CSV rows for reports.

Rationals serialize as "p/q" strings (integers as plain numbers) so files
round-trip exactly; complex values as [re, im] pairs. CSV cells print
rationals as p/q and complex values as re+imi with 12 significant digits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .geom import GeomError, Point2, Polygon, Rectangle, Triangulation, to_fraction
from .variation import PlanarCoeffs, SampledFunction, VarEstimate
from .onedim import RealFunction1D
from .ctpp import CtppFunction


class BadInputFile(ValueError):
    pass


def enc_coord(v: Fraction):
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def dec_coord(v) -> Fraction:
    if isinstance(v, bool):
        raise BadInputFile(f"bad coordinate {v!r}")
    try:
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


def _index(v) -> int:
    try:
        return int(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInputFile(f"bad vertex index {v!r}") from exc


def _point(pair) -> Point2:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise BadInputFile(f"bad point {pair!r}")
    return Point2(dec_coord(pair[0]), dec_coord(pair[1]))


# --- sampled functions ------------------------------------------------------

def sampled_function_to_json(f: SampledFunction) -> str:
    doc = {
        "points": [[enc_coord(p.x), enc_coord(p.y)] for p in f.points],
        "values": [enc_value(v) for v in f.values],
    }
    return json.dumps(doc, indent=1)


def sampled_function_from_json(text: str) -> SampledFunction:
    doc = _load(text)
    try:
        pts = tuple(_point(p) for p in doc["points"])
        vals = tuple(dec_value(v) for v in doc["values"])
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc
    if len(pts) != len(vals):
        raise BadInputFile("points/values length mismatch")
    return SampledFunction(pts, vals)


def function_1d_to_json(f: RealFunction1D) -> str:
    doc = {
        "points": [[enc_coord(x), 0] for x in f.sample.points],
        "values": [enc_value(v) for v in f.values],
    }
    return json.dumps(doc, indent=1)


def function_1d_from_json(text: str) -> RealFunction1D:
    f = sampled_function_from_json(text)
    for p in f.points:
        if p.y != 0:
            raise BadInputFile("one-dimensional input must have y = 0 throughout")
    return RealFunction1D.from_pairs([(p.x, v) for p, v in zip(f.points, f.values)])


# --- point lists ------------------------------------------------------------

def point_list_to_json(points) -> str:
    return json.dumps({"list": [[enc_coord(p.x), enc_coord(p.y)] for p in points]},
                      indent=1)


def point_list_from_json(text: str) -> tuple[Point2, ...]:
    doc = _load(text)
    key = "list" if "list" in doc else "points"
    try:
        return tuple(_point(p) for p in doc[key])
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc


# --- polygons and triangulations -------------------------------------------

def polygon_to_json(poly: Polygon) -> str:
    return json.dumps({"vertices": [[enc_coord(p.x), enc_coord(p.y)]
                                    for p in poly.vertices]}, indent=1)


def polygon_from_json(text: str) -> Polygon:
    doc = _load(text)
    try:
        return Polygon(tuple(_point(p) for p in doc["vertices"]))
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc


def triangulation_to_json(tri: Triangulation) -> str:
    doc = {
        "vertices": [[enc_coord(p.x), enc_coord(p.y)] for p in tri.vertices],
        "triangles": [list(t) for t in tri.triangles],
    }
    return json.dumps(doc, indent=1)


def triangulation_from_json(text: str) -> Triangulation:
    doc = _load(text)
    try:
        verts = tuple(_point(p) for p in doc["vertices"])
        tris = tuple(tuple(_index(i) for i in t) for t in doc["triangles"])
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc
    return Triangulation(verts, tris)


# --- piecewise planar functions ---------------------------------------------

def ctpp_to_json(g: CtppFunction) -> str:
    doc = {
        "vertices": [[enc_coord(p.x), enc_coord(p.y)] for p in g.tri.vertices],
        "triangles": [list(t) for t in g.tri.triangles],
        "coeffs": [[enc_value(c.a), enc_value(c.b), enc_value(c.c)]
                   for c in g.coeffs],
    }
    return json.dumps(doc, indent=1)


def ctpp_from_json(text: str) -> CtppFunction:
    doc = _load(text)
    try:
        verts = tuple(_point(p) for p in doc["vertices"])
        tris = tuple(tuple(_index(i) for i in t) for t in doc["triangles"])
        coeffs = tuple(PlanarCoeffs(*(dec_value(v) for v in c)) for c in doc["coeffs"])
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc
    return CtppFunction(Triangulation(verts, tris), coeffs)


# --- polynomials -------------------------------------------------------------

def poly2_to_json(p) -> str:
    return json.dumps({"coeffs": [[enc_value(c) for c in row] for row in p.coeffs]},
                      indent=1)


def poly2_from_json(text: str):
    from .approx import Poly2
    doc = _load(text)
    try:
        return Poly2.from_rows([[dec_value(c) for c in row] for row in doc["coeffs"]])
    except KeyError as exc:
        raise BadInputFile(f"missing field {exc}") from exc


# --- rectangles ---------------------------------------------------------------

def parse_rect(text: str) -> Rectangle:
    parts = text.split(",")
    if len(parts) != 4:
        raise BadInputFile("rectangle must be x_min,x_max,y_min,y_max")
    return Rectangle(*(dec_coord(p.strip()) for p in parts))


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
        "true" if est.exact else "false",
        est.method,
        str(est.witness_vf),
        str(len(est.witness)),
        "" if est.seed is None else str(est.seed),
    ])


JOIN_CSV_HEADER = "instance,joins_convexly,var1,var2,var_union,lower_ok,upper_ok,exact"


def join_report_csv_row(r) -> str:
    return ",".join([
        r.instance,
        "true" if r.joins_convexly else "false",
        fmt_number(r.var1),
        fmt_number(r.var2),
        fmt_number(r.var_union),
        "true" if r.lower_ok else "false",
        "" if r.upper_ok is None else ("true" if r.upper_ok else "false"),
        "true" if r.exact else "false",
    ])


APPROX_CSV_HEADER = "eps_meas,sup_err,lip_err,bound,pass"


def c2_report_csv_row(rep) -> str:
    return ",".join([
        fmt_number(rep.eps_meas),
        fmt_number(rep.sup_err),
        fmt_number(rep.lip_err),
        fmt_number(rep.bound),
        "true" if rep.passed else "false",
    ])


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInputFile(f"invalid JSON: line {exc.lineno} col {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise BadInputFile("top-level JSON object expected")
    return doc
