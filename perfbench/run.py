"""possirob benchmark: one seeded workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload sweep-desk-ref --seed 0 --seconds 30 --trace 0

A single caller starts the next op when the previous one returns, until the
ops have taken ``--seconds`` in total.  Every op's output is checked without
an LP solver (see ``checks.py``); at the default seed each ``lambda_bar`` is
also compared with the value recorded in ``recorded_seed0.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` the same untraced loop runs first, then the first few ops run
again, each once traced and once untraced, and the last line reports the
per-layer metrics, including the tracing overhead; the spans go to
``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 before printing a result.  Exit code 1 means an
op failed or its output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDED = HERE / "recorded_seed0.json"
SPAN_DIR = HERE / "out"
DEFAULT_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Import and input generation are each timed this many times; medians count.
# The first import is this process's own, the others run in fresh interpreters.
SETUP_REPEATS = 3
_IMPORT_PROBE = """
import os, sys, time
for var in {threads!r}:
    os.environ[var] = "1"
sys.path.insert(0, {src!r})
started = time.perf_counter()
import possirob
if {scipy!r}:
    possirob.ScipyBackend()
print(time.perf_counter() - started)
"""


def _import_program():
    """Import the package from ``src/`` with BLAS and OpenMP pinned to one thread."""
    if not (SRC / "possirob" / "__init__.py").is_file():
        raise ImportError(f"no possirob package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import possirob

    if Path(possirob.__file__).resolve().parent != (SRC / "possirob").resolve():
        raise ImportError(f"possirob resolved to {possirob.__file__}, not {SRC}")
    import workloads

    return workloads


def fresh_import_seconds(uses_scipy: bool) -> float:
    """Time the package import (and the scipy adapter) in a fresh interpreter."""
    code = _IMPORT_PROBE.format(threads=THREAD_VARS, src=str(SRC), scipy=uses_scipy)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def lambda_problems(recorded: list | None, i: int, lambdas: list[float], eps: float) -> list[str]:
    if recorded is None or i >= len(recorded):
        return []
    if len(recorded[i]) != len(lambdas) or any(
            abs(a - b) > eps for a, b in zip(lambdas, recorded[i])):
        return [f"lambda_bar {lambdas} differs from recorded {recorded[i]}"]
    return []


def run_op(w, inp, rt, index: int, recorded, eps: float) -> tuple[float, list[str]]:
    """Time one op, then check its output outside the timed region."""
    started = time.perf_counter()
    try:
        out = w.run(inp, rt)
    except Exception:
        elapsed = time.perf_counter() - started
        return elapsed, [traceback.format_exc()]
    elapsed = time.perf_counter() - started
    try:
        problems = w.check(inp, out)
        if not problems:
            problems = lambda_problems(recorded, index, w.lambdas(out), eps)
    except Exception:
        problems = [traceback.format_exc()]
    return elapsed, problems


def closed_loop(w, inputs, rt, seconds: float, recorded, eps: float):
    latencies, failed = [], 0
    while sum(latencies) < seconds:
        i = len(latencies)
        elapsed, problems = run_op(w, inputs[i % len(inputs)], rt, i % len(inputs),
                                   recorded, eps)
        latencies.append(elapsed)
        if problems:
            failed += 1
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
    return latencies, failed


def traced_pass(W, w, seed: int, backend, recorded, eps: float, span_path: Path):
    """Run the first ``w.trace_ops`` ops traced, each paired with an untraced run.

    The two runs of an op are adjacent and alternate in order, so the
    tracing overhead is measured without drift in machine speed between
    them.  Returns the layer metrics, both latency lists and the failures.
    """
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs = tracer.call("bench.setup", w.inputs, seed)
    finally:
        tracer.restore()
    if backend is None:
        from possirob.simplex import SimplexBackend
        backend = SimplexBackend()
    plain = W.Runtime(backend=backend)
    traced_rt = W.Runtime(backend=spans.TracedBackend(backend, tracer), oracle=tracer.oracle)
    untraced, traced, failed = [], [], 0

    def traced_op(i: int):
        tracer.install()
        tracer.op = i
        idx = tracer.open("bench.op")
        try:
            return run_op(w, inputs[i], traced_rt, i, recorded, eps)
        finally:
            tracer.close(idx)
            tracer.restore()

    for i in range(w.trace_ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                elapsed, problems = traced_op(i)
                traced.append(elapsed)
            else:
                elapsed, problems = run_op(w, inputs[i], plain, i, recorded, eps)
                untraced.append(elapsed)
            if problems:
                failed += 1
                print(f"traced-run op {i} failed: " + "; ".join(problems), file=sys.stderr)
    span_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(span_path)
    return spans.layer_metrics(tracer), untraced, traced, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    try:
        W = _import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    backend = None
    if w.uses_scipy:
        from possirob.simplex import ScipyBackend
        backend = ScipyBackend()
    import_s = [time.perf_counter() - started]
    import_s += [fresh_import_seconds(w.uses_scipy) for _ in range(SETUP_REPEATS - 1)]

    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = w.inputs(args.seed)
        gen_s.append(time.perf_counter() - t)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    recorded = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[w.name]
    latencies, failed = closed_loop(w, inputs, W.Runtime(backend=backend),
                                    args.seconds, recorded, W.EPS)
    attempted = len(latencies)
    ops_per_s = attempted / sum(latencies)

    if args.trace:
        span_path = SPAN_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        layer, untraced, traced, traced_failed = traced_pass(W, w, args.seed, backend,
                                                             recorded, W.EPS, span_path)
        attempted += len(untraced) + len(traced)
        failed += traced_failed
        layer["trace.ops"] = (len(traced), "count")
        layer["trace.ops_per_s_untraced"] = (len(untraced) / sum(untraced), "1/s")
        layer["trace.ops_per_s_traced"] = (len(traced) / sum(traced), "1/s")
        layer["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
        metrics = layer
        print(f"spans written to {span_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_s.p50": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(json.dumps({"environment": environment(), "workload": w.name, "seed": args.seed,
                      "samples": len(latencies), "ops_failed": failed / attempted}),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
