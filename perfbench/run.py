"""Fixed-seed benchmark of the planevar command line.

    python3 perfbench/run.py --workload vf_lists --seed 1 --seconds 15 --trace 0

One client in one process drives ``planevar.cli.main(argv)`` in a closed
loop, one operation at a time, with ``PLANEVAR_THREADS=1``. The seed makes a
pool of operations and their input files (``workloads.py``); the program
only sees those files. After one warm-up pass the pool runs in whole passes
until ``--seconds`` have gone by and at least ``MIN_OPS`` operations have
run. Every output is checked after the loop (``checks.py``), and every
repeat of an operation must print and write the same bytes as its first run.
Latencies are reported at a nominal host speed measured by ``SpeedProbe``;
the plain wall-clock figures are printed next to them.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics of ``tracer.py``. The lines before it
give the environment, the input and output digests, and the metrics in
readable form; ``.perfbench_work/`` in the checkout keeps the inputs,
outputs, spans and a result file per run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("vf_lists", "anneal", "exhaustive", "ctpp_approx")
MIN_OPS = 100          # so that at least ten latency samples lie beyond the p90
SETUP_REPEATS = 3      # set-ups per run (one in-process, the rest in child processes)


# --- set-up -----------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path):
    """Import the program, write the workload's inputs; return (seconds, ops)."""
    t0 = perf_counter()
    import workloads  # imports planevar and numpy, which set-up time includes
    if work.exists():
        shutil.rmtree(work)
    ops = workloads.generate(workload, seed, work)
    return perf_counter() - t0, ops


def setup_in_child(workload: str, seed: int, work: Path) -> float:
    """Set-up time in a fresh interpreter, so that every sample includes the import."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only", str(work)],
        capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(work)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# --- host speed -------------------------------------------------------------------

class SpeedProbe:
    """How slow the host runs right now: probe time over its nominal time.

    A shared host can run every process 1.7x slower for minutes at a time,
    which no amount of repetition inside one run averages out. Two kinds of
    work slow down differently there. "compute" is interpreter-bound Python
    (exact-rational arithmetic) with numpy on arrays that fit the L2 cache.
    "memory" is numpy over arrays of several MB that live in the shared L3,
    shaped like the batched crossing-count kernel. Each workload names the
    kind that tracks it (workloads.PROBES); the probe times it before every
    operation, and each pass's latencies are divided by the median probe
    reading of that pass. The probe does not call planevar, allocates
    nothing and times warm caches, so the program's own memory use barely
    moves its readings.
    """

    NOMINAL_S = {"compute": 0.003, "memory": 0.0045}   # times on a quiet host

    def __init__(self, kind: str):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        # Every buffer is allocated here, so that a probe never allocates and its
        # reading does not depend on what the program left in the allocator.
        self._small = np.resize(np.arange(-3, 4, dtype=np.int8), 1 << 20)
        self._small_product = np.empty(self._small.size - 1, dtype=np.int8)
        self._small_flag = np.empty(self._small.size - 1, dtype=bool)
        # signs of 504 lines at 7 points, gathered for 1024 lists of 6 points
        self._table = rng.integers(-1, 2, size=(7, 504)).astype(np.int8)
        self._index = rng.integers(0, 7, size=(1024, 6))
        self._gathered = np.empty((1024, 6, 504), dtype=np.int8)
        self._product = np.empty((1024, 5, 504), dtype=np.int8)
        self._crossing = np.empty((1024, 5, 504), dtype=bool)
        self._on_line = np.empty((1024, 504), dtype=bool)
        self._counts = np.empty((1024, 504), dtype=np.int32)
        self._part = getattr(self, "_" + kind)
        self._nominal = self.NOMINAL_S[kind]
        self()

    def _compute(self) -> None:
        np = self._np
        total = Fraction(0)
        for i in range(1, 800):
            total += Fraction(i % 7 - 3, i % 97 + 1)
        a = self._small
        for _ in range(6):
            np.multiply(a[:-1], a[1:], out=self._small_product)
            np.less(self._small_product, 0, out=self._small_flag)
            np.count_nonzero(self._small_flag)

    def _memory(self) -> None:
        np = self._np
        S = self._gathered
        for _ in range(2):
            np.take(self._table, self._index, axis=0, out=S)
            np.multiply(S[:, :-1], S[:, 1:], out=self._product)
            np.less(self._product, 0, out=self._crossing)
            np.equal(S[:, 0], 0, out=self._on_line)
            np.logical_or(self._crossing[:, 0], self._on_line, out=self._crossing[:, 0])
            np.sum(self._crossing, axis=1, dtype=np.int32, out=self._counts)

    def __call__(self) -> float:
        """1.0 at nominal speed, 1.5 when the host is 1.5x slower."""
        gc.disable()   # a collection would time the program's heap, not the host
        try:
            self._part()   # untimed: reload what the last operation evicted from the caches
            t0 = perf_counter()
            self._part()
            return (perf_counter() - t0) / self._nominal
        finally:
            gc.enable()


# --- running ----------------------------------------------------------------------

class Execution:
    __slots__ = ("op", "seconds", "scaled", "digest", "output")

    def __init__(self, op: int, seconds: float, scaled: float, digest: str, output):
        self.op = op
        self.seconds = seconds    # wall time of the cli.main call
        self.scaled = scaled      # the same at nominal host speed (SpeedProbe)
        self.digest = digest
        self.output = output


def output_digest(stdout: str, files: dict[str, bytes | None]) -> str:
    h = hashlib.sha256(b"stdout\0" + stdout.encode())
    for key in sorted(files):
        data = files[key]
        h.update(b"\0" + key.encode() + b"\0" + (b"<missing>" if data is None else data))
    return h.hexdigest()


def run_op(cli, argv: list[str], outs: dict[str, Path]):
    """One CLI call; returns (seconds, Output). The clock covers cli.main only."""
    from checks import Output
    for path in outs.values():
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
        rc = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    files = {key: (p.read_bytes() if p.exists() else None) for key, p in outs.items()}
    return seconds, Output(rc, out.getvalue(), err.getvalue(), files)


def run_pass(cli, plan, probe: SpeedProbe, keep_output: bool) -> list[Execution]:
    probes, timings = [], []
    for argv, outs in plan:
        probes.append(probe())
        timings.append(run_op(cli, argv, outs))
    probes.append(probe())
    factor = 1.0 / statistics.median(probes)
    return [Execution(i, seconds, seconds * factor, output_digest(out.stdout, out.files),
                      out if keep_output else None)
            for i, (seconds, out) in enumerate(timings)]


def measure(cli, plan, probe: SpeedProbe, seconds: float, tracer=None):
    """Timed passes until ``seconds`` have gone by; returns (untraced, traced) passes.

    Without a tracer the loop also runs until MIN_OPS operations are done.
    With one, untraced and traced passes alternate, at least one of each.
    """
    timed: list[list[Execution]] = []
    traced: list[list[Execution]] = []
    start = perf_counter()
    while not timed or perf_counter() - start < seconds or \
            (tracer is None and len(timed) * len(plan) < MIN_OPS):
        timed.append(run_pass(cli, plan, probe, keep_output=False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, plan, probe, keep_output=False))
            finally:
                tracer.uninstall()
    return timed, traced


def pass_seconds(passes: list[list[Execution]]) -> list[float]:
    return [sum(e.scaled for e in p) for p in passes]


def judge(ops, work: Path, reference: list[Execution], execs: list[Execution]):
    """Failure messages per operation, and the number of failed executions.

    The reference pass is checked in full; any other execution fails when its
    bytes differ from the reference run of the same operation.
    """
    from checks import check
    verdicts = [check(op, ref.output, work) for op, ref in zip(ops, reference)]
    problems = {op["name"]: v for op, v in zip(ops, verdicts) if v is not None}
    failed = 0
    for e in execs:
        differs = e.digest != reference[e.op].digest
        if differs:
            problems.setdefault(ops[e.op]["name"], "output bytes differ between repeats")
        failed += verdicts[e.op] is not None or differs
    return problems, failed


# --- environment ------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PLANEVAR_THREADS": os.environ["PLANEVAR_THREADS"],
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --- metrics ----------------------------------------------------------------------

def end_to_end(lat: list[float], setup_s: float, peak_rss_mb: float,
               failed: int, attempted: int) -> dict[str, tuple]:
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "planevar" / "cli.py").is_file():
        print(f"error: no planevar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PLANEVAR_THREADS"] = "1"

    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": seconds}))
        return 0

    work = WORK / f"{args.workload}-seed{args.seed}"
    seconds, ops = setup(args.workload, args.seed, work)   # first, while numpy is cold
    setup_samples = [seconds] + [
        setup_in_child(args.workload, args.seed, work.with_name(f"{work.name}-setup{i}"))
        for i in range(SETUP_REPEATS - 1)]
    import workloads
    from planevar import cli
    probe = SpeedProbe(workloads.PROBES[args.workload])
    plan = [([workloads.resolve(a, work) for a in op["argv"]],
             {key: Path(workloads.resolve(key, work)) for key in op["outs"]}) for op in ops]

    reference = run_pass(cli, plan, probe, keep_output=True)   # warm-up; its outputs are checked
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    timed, traced = measure(cli, plan, probe, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    execs = reference + [e for p in timed + traced for e in p]
    problems, failed = judge(ops, work, reference, execs)
    attempted = len(execs)

    env = environment(args.seed)
    inputs = workloads.inputs_digest(ops, work)
    outputs = hashlib.sha256("\n".join(f"{op['name']} {e.digest}" for op, e in
                                       zip(ops, reference)).encode()).hexdigest()
    if tracer is not None:
        from tracer import layer_metrics, self_time_shares
        metrics = layer_metrics(tracer.spans, tracer.probes, len(traced))
        metrics["trace.overhead_frac"] = (statistics.median(pass_seconds(traced)) /
                                          statistics.median(pass_seconds(timed)) - 1.0, "ratio")
        tracer.write(work / "spans.jsonl")
        shares = self_time_shares(tracer.spans)
        unscaled = {}
    else:
        execs = [e for p in timed for e in p]
        metrics = end_to_end([e.scaled for e in execs], statistics.median(setup_samples),
                             peak_rss_mb, failed, attempted)
        unscaled = end_to_end([e.seconds for e in execs], statistics.median(setup_samples),
                              peak_rss_mb, failed, attempted)
        shares = None

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"pool: {len(plan)} ops  timed passes: {len(timed)}")
    print("env: " + json.dumps(env))
    print(f"inputs_digest: {inputs}")
    print(f"outputs_digest: {outputs}")
    print(f"latency_samples: {len(timed) * len(plan)}")
    print(f"setup_samples_s: {' '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"error_rate: {failed / attempted:.6g} ({failed}/{attempted})")
    for name, message in problems.items():
        print(f"FAILED {name}: {message}")
    for name, (value, unit) in metrics.items():
        wall = f"  (unscaled {unscaled[name][0]:.6g})" if name in unscaled else ""
        print(f"{name}: {value:.6g} {unit}{wall}")
    if shares:
        print("self-time shares: " + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()
                                               if v >= 0.005))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, env=env,
                  inputs_digest=inputs, outputs_digest=outputs,
                  op_digests={op["name"]: e.digest for op, e in zip(ops, reference)},
                  pass_latencies_ms=[[e.seconds * 1e3 for e in p] for p in timed],
                  pass_scaled_latencies_ms=[[e.scaled * 1e3 for e in p] for p in timed],
                  unscaled_metrics={k: v for k, (v, _) in unscaled.items()},
                  problems=problems, setup_samples_s=setup_samples,
                  self_time_shares=shares)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
