"""Per-layer tracing of planevar from outside the package.

The tracer replaces public layer functions with wrappers in this process
only, and puts the originals back on ``uninstall``; the package source is not
touched. A span is ``[name, start, end, parent, counts]``, with ``parent`` the
index of the enclosing span or -1. Spans stay in memory; ``layer_metrics``
derives self times and counts from them once the traced passes are over.

Metric names say ``vfcore`` for the module ``planevar._vfcore``, because a
metric name must start with a letter.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

KERNEL = "vfcore.kernel"
BATCH = "vfcore.vf_batch"


def _distinct_rows(signs: np.ndarray) -> int:
    rows = np.ascontiguousarray(signs)
    return len(np.unique(rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))))


def _lists_in(S: np.ndarray) -> int:
    return 1 if S.ndim == 2 else int(np.prod(S.shape[1:-1]))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.probes: Counter = Counter()   # (counted function, enclosing span name) -> calls
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def spanned(self, name: str, fn, counts=None, skip_inside=()):
        """``fn`` wrapped in a span; ``counts(result, args)`` adds per-span counts.

        Inside a span named in ``skip_inside`` the call goes straight through,
        so nested helpers are attributed to the outermost span only.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] in skip_inside:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[4] = counts(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped in a call counter keyed by the enclosing span (no span)."""
        probes = self.probes

        def wrapper(*args, **kwargs):
            probes[(name, self._current())] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installing -----------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper) -> None:
        """Rebind every planevar module name that refers to ``module.attr``."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "planevar" or mod_name.startswith("planevar.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from planevar import _vfcore, approx, cli, ctpp, fileio, geom, joins, onedim, variation

        fn = self._patch_function
        fn(_vfcore, "candidate_lines", self.spanned(
            "vfcore.candidate_lines", _vfcore.candidate_lines,
            lambda r, a: {"lines": len(r)}))
        fn(_vfcore, "build_sign_table", self.spanned(
            "vfcore.build_sign_table", _vfcore.build_sign_table,
            lambda r, a: {"rows": r.n_lines, "distinct_rows": _distinct_rows(r.signs)}))
        fn(_vfcore, "vf_of_indices", self.spanned(
            KERNEL, _vfcore.vf_of_indices, lambda r, a: {"lists": 1},
            skip_inside=(KERNEL, BATCH)))
        fn(_vfcore, "_counts_from_matrix", self.spanned(
            KERNEL, _vfcore._counts_from_matrix, lambda r, a: {"lists": _lists_in(a[0])},
            skip_inside=(KERNEL, BATCH)))
        fn(_vfcore, "vf_batch", self.spanned(
            BATCH, _vfcore.vf_batch, lambda r, a: {"lists": int(a[1].shape[0])}))
        fn(variation, "var_search", self.spanned(
            "variation.var_search", variation.var_search,
            lambda r, a: {"proposals": int(r.stats.get("proposals", 0))}))
        fn(variation, "var_exact_small", self.spanned(
            "variation.var_exact_small", variation.var_exact_small))
        for module, attr in ((joins, "join_report"), (joins, "joins_convexly_on_sample"),
                             (joins, "graph_fill"), (onedim, "iota_extend"),
                             (ctpp, "eval_ctpp"), (ctpp, "classify_point"),
                             (ctpp, "interpolate_grid"), (ctpp, "validate_ctpp"),
                             (geom, "grid_triangulation"),
                             (approx, "bernstein2"), (approx, "c2_to_poly"),
                             (approx, "grid_lipschitz"), (approx, "match_points")):
            short = module.__name__.rsplit(".", 1)[1]
            fn(module, attr, self.spanned(f"{short}.{attr}", getattr(module, attr)))
        for attr in dir(fileio):
            if attr.endswith("_from_json"):
                fn(fileio, attr, self.spanned("fileio.decode", getattr(fileio, attr)))
            elif attr.endswith("_to_json") or attr.endswith("_csv_row"):
                fn(fileio, attr, self.spanned("fileio.encode", getattr(fileio, attr)))
        fn(cli, "main", self.spanned("cli.main", cli.main))
        self._patch_method(approx.Poly2, "eval_float_grid", self.spanned(
            "approx.Poly2.eval_float_grid", approx.Poly2.eval_float_grid))
        self._patch_method(geom.Triangle, "contains", self.counted(
            "geom.Triangle.contains", geom.Triangle.contains))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, counts."""
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# --- derived metrics ----------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a parent's children never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# Spans reported as ``<name>.self_s``, in the order BENCHMARK.json lists them.
SELF_S = ("vfcore.candidate_lines", "vfcore.build_sign_table", "vfcore.kernel",
          "variation.var_search", "variation.var_exact_small", "joins.join_report",
          "joins.joins_convexly_on_sample", "joins.graph_fill", "onedim.iota_extend",
          "ctpp.interpolate_grid", "ctpp.validate_ctpp", "geom.grid_triangulation",
          "approx.bernstein2", "approx.c2_to_poly", "approx.Poly2.eval_float_grid",
          "approx.grid_lipschitz", "approx.match_points", "cli.main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], probes: Counter, passes: int) -> dict[str, tuple]:
    """name -> (value, unit) per traced pass, from spans and call counters."""
    selfs = self_times(spans)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    exact_lists = 0
    for i, (name, start, end, parent, cnt) in enumerate(spans):
        self_s[name] += selfs[i]
        total_s[name] += end - start
        calls[name] += 1
        for key, value in (cnt or {}).items():
            counts[f"{name}.{key}"] += value
            if name == BATCH and parent >= 0 and spans[parent][0] == "variation.var_exact_small":
                exact_lists += value
    contains = sum(v for (name, _), v in probes.items() if name == "geom.Triangle.contains")
    probes_in_eval = probes[("geom.Triangle.contains", "ctpp.eval_ctpp")]

    per = 1.0 / passes
    m: dict[str, tuple] = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = (self_s[name] * per, "s")
    m["vfcore.candidate_lines.lines"] = (counts["vfcore.candidate_lines.lines"] * per, "count")
    rows = counts["vfcore.build_sign_table.rows"]
    distinct = counts["vfcore.build_sign_table.distinct_rows"]
    m["vfcore.build_sign_table.rows"] = (rows * per, "count")
    m["vfcore.build_sign_table.distinct_rows"] = (distinct * per, "count")
    m["vfcore.build_sign_table.distinct_ratio"] = (_ratio(distinct, rows), "ratio")
    kernel_lists = counts[f"{KERNEL}.lists"]
    m["vfcore.kernel.lists"] = (kernel_lists * per, "count")
    m["vfcore.kernel.us_per_list"] = (_ratio(self_s[KERNEL], kernel_lists) * 1e6, "us")
    batch_lists = counts[f"{BATCH}.lists"]
    m["vfcore.vf_batch.lists"] = (batch_lists * per, "count")
    m["vfcore.vf_batch.us_per_list"] = (_ratio(self_s[BATCH], batch_lists) * 1e6, "us")
    proposals = counts["variation.var_search.proposals"]
    m["variation.var_search.proposals"] = (proposals * per, "count")
    m["variation.var_search.proposals_per_s"] = (
        _ratio(proposals, total_s["variation.var_search"]), "1/s")
    m["variation.var_exact_small.lists"] = (exact_lists * per, "count")
    m["variation.var_exact_small.lists_per_s"] = (
        _ratio(exact_lists, total_s["variation.var_exact_small"]), "1/s")
    m["geom.Triangle.contains.calls"] = (contains * per, "count")
    m["ctpp.eval_ctpp.calls"] = (calls["ctpp.eval_ctpp"] * per, "count")
    m["ctpp.eval_ctpp.us_per_call"] = (
        _ratio(total_s["ctpp.eval_ctpp"], calls["ctpp.eval_ctpp"]) * 1e6, "us")
    m["ctpp.eval_ctpp.probes_per_call"] = (_ratio(probes_in_eval, calls["ctpp.eval_ctpp"]),
                                           "count")
    m["ctpp.classify_point.us_per_call"] = (
        _ratio(total_s["ctpp.classify_point"], calls["ctpp.classify_point"]) * 1e6, "us")
    m["fileio.decode_s"] = (self_s["fileio.decode"] * per, "s")
    m["fileio.encode_s"] = (self_s["fileio.encode"] * per, "s")
    return m


def self_time_shares(spans: list[list]) -> dict[str, float]:
    """Share of all traced time spent as self time in each span name."""
    selfs = self_times(spans)
    by_name: Counter = Counter()
    for i, rec in enumerate(spans):
        by_name[rec[0]] += selfs[i]
    total = sum(by_name.values())
    return {name: _ratio(v, total) for name, v in by_name.most_common()}
