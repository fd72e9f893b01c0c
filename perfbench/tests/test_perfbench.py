"""Tests of the benchmark itself: seeding, digests, span arithmetic, error counting.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import Output  # noqa: E402
from planevar import cli  # noqa: E402


def _plan(ops, work):
    return [([workloads.resolve(a, work) for a in op["argv"]],
             {k: Path(workloads.resolve(k, work)) for k in op["outs"]}) for op in ops]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, name):
    a = workloads.generate(name, 7, tmp_path / "a")
    b = workloads.generate(name, 7, tmp_path / "b")
    c = workloads.generate(name, 8, tmp_path / "c")
    assert a == b
    assert [op["name"] for op in a] == [op["name"] for op in c]  # same pool shape
    digest_a = workloads.inputs_digest(a, tmp_path / "a")
    assert digest_a == workloads.inputs_digest(b, tmp_path / "b")
    assert digest_a != workloads.inputs_digest(c, tmp_path / "c")


def test_same_seed_same_output_digests(tmp_path):
    digests = []
    for sub in ("a", "b"):
        ops = workloads.generate("anneal", 3, tmp_path / sub)
        digests.append([e.digest for e in run.run_pass(cli, _plan(ops, tmp_path / sub),
                                                       run.SpeedProbe("compute"), keep_output=False)])
    assert digests[0] == digests[1]


def test_self_time_on_nested_trace():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["vfcore.build_sign_table", 1.0, 4.0, 0, {"rows": 8, "distinct_rows": 2}],
        ["vfcore.candidate_lines", 1.5, 2.5, 1, {"lines": 8}],
        ["variation.var_exact_small", 5.0, 9.0, 0, None],
        ["vfcore.vf_batch", 6.0, 8.5, 3, {"lists": 50}],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5]
    m = tracer.layer_metrics(spans, tracer.Counter(), passes=2)
    assert m["cli.main.self_s"] == (1.5, "s")
    assert m["vfcore.build_sign_table.self_s"] == (1.0, "s")
    assert m["vfcore.build_sign_table.distinct_ratio"] == (0.25, "ratio")
    assert m["vfcore.vf_batch.lists"] == (25.0, "count")
    assert m["vfcore.vf_batch.us_per_list"] == (2.5 / 50 * 1e6, "us")
    assert m["variation.var_exact_small.lists"] == (25.0, "count")
    assert m["variation.var_exact_small.lists_per_s"] == (50 / 4.0, "1/s")


def test_wrappers_nest_and_skip():
    t = tracer.Tracer()

    def leaf():
        return 1

    wrapped_leaf = t.spanned(tracer.KERNEL, leaf, lambda r, a: {"lists": 1},
                             skip_inside=(tracer.KERNEL, tracer.BATCH))

    def batch():
        return wrapped_leaf() + wrapped_leaf()

    outer = t.spanned(tracer.BATCH, batch)
    top = t.spanned("cli.main", lambda: outer() + wrapped_leaf())
    assert top() == 3
    names = [(s[0], s[3]) for s in t.spans]
    # the kernel calls inside vf_batch are not spans; the one outside is
    assert names == [("cli.main", -1), (tracer.BATCH, 0), (tracer.KERNEL, 0)]


def test_planted_wrong_output_counts_as_failure(tmp_path):
    ops = workloads.generate("vf_lists", 5, tmp_path)[:4]
    plan = _plan(ops, tmp_path)
    probe = run.SpeedProbe("compute")
    reference = run.run_pass(cli, plan, probe, keep_output=True)
    repeat = run.run_pass(cli, plan, probe, keep_output=False)
    problems, failed = run.judge(ops, tmp_path, reference, reference + repeat)
    assert (problems, failed) == ({}, 0)

    good = reference[1].output
    vf = int(good.stdout.split("\n", 1)[0])
    wrong = Output(0, good.stdout.replace(str(vf), str(vf + 1), 1), "", good.files)
    reference[1].output = wrong
    repeat[2].digest = "0" * 64   # a repeat whose bytes differ from its first run
    problems, failed = run.judge(ops, tmp_path, reference, reference + repeat)
    assert set(problems) == {ops[1]["name"], ops[2]["name"]}
    assert failed == 3   # both executions of op 1, the second execution of op 2


def test_metric_names_match_benchmark_json():
    import json
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = tracer.layer_metrics([], tracer.Counter(), passes=1)
    layer["trace.overhead_frac"] = (0.0, "ratio")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layer.items()]
    e2e = run.end_to_end([0.1] * 20, 1.0, 1.0, 0, 20)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_operation_names_are_unique(tmp_path, name):
    names = [op["name"] for op in workloads.generate(name, 1, tmp_path)]
    assert len(names) == len(set(names))
