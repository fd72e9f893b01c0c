"""Batch command-line front-end.

Subcommands cover every library operation: variation factors and curve
variation, exact/search variation estimates, one-dimensional variation and
the gap extension, the absolute-continuity modulus, piecewise-planar
checking/interpolation/extension/classification, Bernstein and
second-derivative approximation, join/fill/paste operators, the example
generators, the full verification suite, and SVG plotting.

Exit code 0 on success; 2 on validation errors, with one machine-readable
``error:<Kind>:<message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .fileio import BadInputFile, dec_coord, fmt_number
from .geom import GeomError
from .variation import (
    SearchConfig,
    VariationError,
    cvar,
    var_exact_small,
    var_search,
    vf_exact,
    vf_line,
)
from .onedim import OnedimError, RealSample, ac_modulus, iota_extend, make_example, var_1d
from .ctpp import CtppError, classify_point, extend_to_polygon, interpolate_grid, validate_ctpp
from .approx import BUILTIN_ORACLES, ApproxError, C2Oracle, bernstein2, c2_to_poly, match_points
from .joins import ConvexCurve, JoinsError, SectorSpec, graph_fill, join_report, pasting_extend, sector_fill
from .suite import run_suite, suite_csv
from .svg import ctpp_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:BadArguments:{message}", file=sys.stderr)
        raise SystemExit(2)


def _write(path: str | None, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise BadInputFile(f"{path}: {exc.strerror}") from exc


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise BadInputFile(f"{path}: {exc.strerror}") from exc


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise BadInputFile("point must be x,y")
    from .geom import Point2
    return Point2(dec_coord(parts[0].strip()), dec_coord(parts[1].strip()))


# --- handlers -----------------------------------------------------------------

def _cmd_vf(args) -> int:
    pts = fileio.point_list_from_json(_read(args.list))
    if args.line:
        a, b, c = (dec_coord(v.strip()) for v in args.line.split(","))
        from .geom import Line
        count, idx = vf_line(pts, Line.from_coeffs(a, b, c))
        print(count)
        print(f"crossing_segments: {' '.join(map(str, idx)) if idx else '-'}")
        return 0
    res = vf_exact(pts)
    print(res.vf)
    print(f"witness: {res.witness}")
    return 0


def _cmd_cvar(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    pts = fileio.point_list_from_json(_read(args.list))
    print(fmt_number(cvar(f, pts)))
    return 0


def _cmd_var(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    if args.mode == "exact":
        est = var_exact_small(f, max_len=args.max_len)
    else:
        est = var_search(f, SearchConfig(iters=args.iters, restarts=args.restarts,
                                         seed=args.seed, max_len=args.max_len_search))
    print(fmt_number(est.value))
    row = fileio.var_estimate_csv_row(est)
    _write(args.out, fileio.VAR_CSV_HEADER + "\n" + row + "\n")
    if not args.out:
        print(row)
    return 0


def _cmd_var1d(args) -> int:
    f = fileio.function_1d_from_json(_read(args.fn))
    print(fmt_number(var_1d(f)))
    return 0


def _cmd_iota(args) -> int:
    f = fileio.function_1d_from_json(_read(args.fn))
    if args.at:
        grid = RealSample.of([dec_coord(v) for v in args.at.split(",")])
    elif args.grid:
        grid = fileio.function_1d_from_json(_read(args.grid)).sample
    else:
        raise BadInputFile("need --at or --grid")
    ext = iota_extend(f, None, grid)
    out = fileio.function_1d_to_json(ext)
    _write(args.out, out)
    if not args.out:
        print(out)
    print(f"var: {fmt_number(var_1d(ext))}", file=sys.stderr)
    return 0


def _cmd_acmod(args) -> int:
    f = fileio.function_1d_from_json(_read(args.fn))
    res = ac_modulus(f, None, dec_coord(args.delta), mode=args.mode)
    print(fmt_number(res.value))
    wit = ";".join(f"({fmt_number(s)},{fmt_number(t)})" for s, t in res.witness)
    print(f"exact: {'true' if res.exact else 'false'}")
    print(f"witness: {wit if wit else '-'}")
    return 0


def _cmd_ctpp_check(args) -> int:
    g = fileio.ctpp_from_json(_read(args.ctpp))
    violations = validate_ctpp(g)
    if args.svg:
        _write(args.svg, ctpp_svg(g, violations))
    if violations:
        print(f"violations: {len(violations)}")
        for v in violations:
            print(f"edge {v.edge} triangles {v.triangles} values "
                  f"{' '.join(fmt_number(x) for x in v.values)}")
    else:
        print("valid")
    return 0


def _cmd_ctpp_interp(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.values))
    rect = fileio.parse_rect(args.rect)
    oracle = {p: v for p, v in zip(f.points, f.values)}
    g = interpolate_grid(oracle, rect, args.n)
    _write(args.out, fileio.ctpp_to_json(g))
    print(f"triangles: {len(g.tri.triangles)}")
    return 0


def _cmd_ctpp_extend(args) -> int:
    g = fileio.ctpp_from_json(_read(args.ctpp))
    poly = fileio.polygon_from_json(_read(args.poly))
    ext = extend_to_polygon(g, poly)
    _write(args.out, fileio.ctpp_to_json(ext))
    print(f"triangles: {len(ext.tri.triangles)}")
    print(f"violations: {len(validate_ctpp(ext))}")
    return 0


def _cmd_ctpp_classify(args) -> int:
    g = fileio.ctpp_from_json(_read(args.ctpp))
    cls = classify_point(g, _parse_point(args.point))
    print(f"{cls.tag} {cls.triangle_count}")
    return 0


def _cmd_approx_bernstein(args) -> int:
    if args.poly:
        p = fileio.poly2_from_json(_read(args.poly))
        target = p.eval
    elif args.builtin:
        target = BUILTIN_ORACLES[args.builtin].f
    else:
        raise BadInputFile("need --poly or --builtin")
    b = bernstein2(lambda x, y: target(x, y), args.degree)
    _write(args.out, fileio.poly2_to_json(b))
    if not args.out:
        print(fileio.poly2_to_json(b))
    return 0


def _cmd_approx_c2(args) -> int:
    if args.poly:
        oracle = C2Oracle.from_poly(fileio.poly2_from_json(_read(args.poly)))
    elif args.builtin:
        oracle = BUILTIN_ORACLES[args.builtin]
    else:
        raise BadInputFile("need --poly or --builtin")
    p, rep = c2_to_poly(oracle, degree=args.degree, grid_n=args.grid)
    if args.out_poly:
        _write(args.out_poly, fileio.poly2_to_json(p))
    text = fileio.APPROX_CSV_HEADER + "\n" + fileio.c2_report_csv_row(rep) + "\n"
    _write(args.out, text)
    print(text, end="")
    return 0


def _cmd_approx_match(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    g0 = fileio.ctpp_from_json(_read(args.ctpp))
    pts = fileio.point_list_from_json(_read(args.points))
    g, rep = match_points(f, g0, pts, dec_coord(args.delta))
    print(f"matched: {rep.n_points}")
    print(f"interp_max_err: {rep.interp_max_err:.3e}")
    print(f"bound_ok: {'true' if rep.bound_ok else 'false'}")
    if args.sample_out:
        pts_all = f.points
        _write(args.sample_out,
               fileio.sampled_function_to_json(g.sample(pts_all)))
    return 0


def _cmd_join_report(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    s1 = fileio.point_list_from_json(_read(args.sigma1))
    s2 = fileio.point_list_from_json(_read(args.sigma2))
    rep = join_report(f, s1, s2, mode=args.mode, max_len=args.max_len,
                      seed=args.seed, instance=args.name)
    text = fileio.JOIN_CSV_HEADER + "\n" + fileio.join_report_csv_row(rep) + "\n"
    _write(args.out, text)
    print(text, end="")
    return 0


def _cmd_join_graphfill(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    knots = fileio.point_list_from_json(_read(args.curve))
    curve = ConvexCurve.of([(p.x, p.y) for p in knots])
    rect = fileio.parse_rect(args.rect)
    g = graph_fill(f, curve, rect, n=args.n)
    _write(args.out, fileio.sampled_function_to_json(g))
    print(f"sampled: {len(g.points)}")
    return 0


def _cmd_join_sector(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    rect = fileio.parse_rect(args.rect)
    spec = SectorSpec(rect, rect.centre(), _parse_point(args.ray1),
                      _parse_point(args.ray2))
    g = sector_fill(f, spec, n=args.n)
    _write(args.out, fileio.sampled_function_to_json(g))
    print(f"sampled: {len(g.points)}")
    return 0


def _cmd_join_paste(args) -> int:
    f = fileio.sampled_function_from_json(_read(args.fn))
    a, b = (dec_coord(v.strip()) for v in args.band.split(","))
    res = pasting_extend(f, a, b)
    _write(args.out, fileio.sampled_function_to_json(res.h))
    if not args.out:
        print(fileio.sampled_function_to_json(res.h))
    return 0


def _cmd_example(args) -> int:
    f = make_example(args.kind, args.n)
    text = fileio.function_1d_to_json(f)
    _write(args.out, text)
    if not args.out:
        print(text)
    return 0


def _cmd_suite(args) -> int:
    if args.target != "paper":
        raise BadInputFile(f"unknown suite {args.target!r}; only 'paper' exists")
    only = [int(v) for v in args.only.split(",")] if args.only else None
    results = run_suite(seed=args.seed, only=only, verbose=True)
    text = suite_csv(results)
    _write(args.out, text)
    return 0 if all(r.passed for r in results) else 1


def _cmd_plot(args) -> int:
    g = fileio.ctpp_from_json(_read(args.ctpp))
    violations = validate_ctpp(g)
    _write(args.svg, ctpp_svg(g, violations))
    print(f"wrote {args.svg}")
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="planevar",
                description="variation calculus on finite plane samples")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("vf", help="variation factor of an ordered point list")
    sp.add_argument("--list", required=True)
    sp.add_argument("--line", help="a,b,c for a single-line crossing count")
    sp.set_defaults(func=_cmd_vf)

    sp = sub.add_parser("cvar", help="curve variation along a list")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--list", required=True)
    sp.set_defaults(func=_cmd_cvar)

    sp = sub.add_parser("var", help="two-dimensional variation estimate")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--mode", choices=["exact", "search"], default="search")
    sp.add_argument("--max-len", type=int, default=5, dest="max_len")
    sp.add_argument("--max-len-search", type=int, default=12, dest="max_len_search")
    sp.add_argument("--iters", type=int, default=2000)
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_var)

    sp = sub.add_parser("var1d", help="one-dimensional variation")
    sp.add_argument("--fn", required=True)
    sp.set_defaults(func=_cmd_var1d)

    sp = sub.add_parser("iota", help="gap-interpolating extension")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--grid", help="1-D file whose sample is the grid")
    sp.add_argument("--at", help="comma-separated grid x-values")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_iota)

    sp = sub.add_parser("acmod", help="absolute-continuity modulus")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--mode", choices=["auto", "exact", "greedy"], default="auto")
    sp.set_defaults(func=_cmd_acmod)

    sp = sub.add_parser("ctpp", help="piecewise-planar operations")
    csub = sp.add_subparsers(dest="ctpp_command", required=True)
    c = csub.add_parser("check")
    c.add_argument("ctpp")
    c.add_argument("--svg")
    c.set_defaults(func=_cmd_ctpp_check)
    c = csub.add_parser("interp")
    c.add_argument("--values", required=True)
    c.add_argument("--rect", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_ctpp_interp)
    c = csub.add_parser("extend")
    c.add_argument("--ctpp", required=True)
    c.add_argument("--poly", required=True)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_ctpp_extend)
    c = csub.add_parser("classify")
    c.add_argument("--ctpp", required=True)
    c.add_argument("--point", required=True)
    c.set_defaults(func=_cmd_ctpp_classify)

    sp = sub.add_parser("approx", help="polynomial approximation")
    asub = sp.add_subparsers(dest="approx_command", required=True)
    a = asub.add_parser("bernstein")
    a.add_argument("--poly")
    a.add_argument("--builtin", choices=sorted(BUILTIN_ORACLES))
    a.add_argument("--degree", type=int, required=True)
    a.add_argument("--out")
    a.set_defaults(func=_cmd_approx_bernstein)
    a = asub.add_parser("c2")
    a.add_argument("--poly")
    a.add_argument("--builtin", choices=sorted(BUILTIN_ORACLES))
    a.add_argument("--degree", type=int, default=8)
    a.add_argument("--grid", type=int, default=41)
    a.add_argument("--out")
    a.add_argument("--out-poly", dest="out_poly")
    a.set_defaults(func=_cmd_approx_c2)
    a = asub.add_parser("match")
    a.add_argument("--fn", required=True)
    a.add_argument("--ctpp", required=True)
    a.add_argument("--points", required=True)
    a.add_argument("--delta", required=True)
    a.add_argument("--sample-out", dest="sample_out")
    a.set_defaults(func=_cmd_approx_match)

    sp = sub.add_parser("join", help="joining and extension operators")
    jsub = sp.add_subparsers(dest="join_command", required=True)
    j = jsub.add_parser("report")
    j.add_argument("--fn", required=True)
    j.add_argument("--sigma1", required=True)
    j.add_argument("--sigma2", required=True)
    j.add_argument("--mode", choices=["exact", "search"], default="exact")
    j.add_argument("--max-len", type=int, default=5, dest="max_len")
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--name", default="join")
    j.add_argument("--out")
    j.set_defaults(func=_cmd_join_report)
    j = jsub.add_parser("graphfill")
    j.add_argument("--fn", required=True)
    j.add_argument("--curve", required=True)
    j.add_argument("--rect", required=True)
    j.add_argument("--n", type=int, default=8)
    j.add_argument("--out")
    j.set_defaults(func=_cmd_join_graphfill)
    j = jsub.add_parser("sector")
    j.add_argument("--fn", required=True)
    j.add_argument("--rect", required=True)
    j.add_argument("--ray1", required=True)
    j.add_argument("--ray2", required=True)
    j.add_argument("--n", type=int, default=8)
    j.add_argument("--out")
    j.set_defaults(func=_cmd_join_sector)
    j = jsub.add_parser("paste")
    j.add_argument("--fn", required=True)
    j.add_argument("--band", required=True)
    j.add_argument("--out")
    j.set_defaults(func=_cmd_join_paste)

    sp = sub.add_parser("example", help="standard example generators")
    sp.add_argument("--kind", required=True,
                    choices=["reciprocal-alternating", "reciprocal-odd",
                             "reciprocal-even", "cantor", "one-over-n"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_example)

    sp = sub.add_parser("suite", help="verification suites")
    sp.add_argument("target")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--only")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_suite)

    sp = sub.add_parser("plot", help="SVG rendering")
    sp.add_argument("--ctpp", required=True)
    sp.add_argument("--svg", required=True)
    sp.set_defaults(func=_cmd_plot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BadInputFile, GeomError, VariationError, OnedimError, CtppError,
            ApproxError, JoinsError) as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
