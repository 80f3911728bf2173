"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Counts read from the program's public surfaces (probes, oracle calls, LP and
dense calls, system sizes) must repeat exactly between two traced runs; the
output checks must reject a wrong witness; and without ``src/`` the command
must fail before printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

W = run._import_program()

COUNT_UNITS = ("count", "ratio")


def _counts(name: str, tmp_path, ops: int) -> dict:
    w = W.WORKLOADS[name]
    backend = None
    if w.uses_scipy:
        from possirob.simplex import ScipyBackend
        backend = ScipyBackend()
    layer, untraced, traced, failed = run.traced_pass(W, w, 1, backend, None, W.EPS,
                                                      tmp_path / f"{name}.jsonl")
    assert failed == 0 and len(untraced) == len(traced) == ops
    return {k: v for k, (v, unit) in layer.items() if unit in COUNT_UNITS}


@pytest.mark.parametrize("name,ops", [("sweep-desk-ref", 1), ("model-mix-scipy", 5),
                                      ("combi-grid", 6)])
def test_counts_repeat_exactly(name, ops, tmp_path, monkeypatch):
    monkeypatch.setattr(W.WORKLOADS[name], "trace_ops", ops)
    first = _counts(name, tmp_path, ops)
    second = _counts(name, tmp_path, ops)
    assert first == second
    assert first["solver.probes"] > 0


def test_checks_reject_wrong_witnesses():
    combi = W.WORKLOADS["combi-grid"]
    inp = combi.inputs(1)[0]
    outcome = combi.run(inp, W.Runtime())
    assert combi.check(inp, outcome) == []
    broken = dataclasses.replace(outcome, solution=np.ones_like(outcome.solution))
    assert combi.check(inp, broken)
    assert outcome.lambda_bar > 0.01
    lower = dataclasses.replace(outcome, lambda_bar=0.0, degree=1.0)
    assert combi.check(inp, lower)

    from possirob.simplex import ScipyBackend
    mix = W.WORKLOADS["model-mix-scipy"]
    inp = mix.inputs(1)[0]
    out = mix.run(inp, W.Runtime(backend=ScipyBackend()))
    assert mix.check(inp, out) == []
    soft = out["soft"]
    assert soft.lambda_bar > 0.01
    lower = dataclasses.replace(soft, lambda_bar=0.0, degree=1.0)
    assert mix.check(inp, {**out, "soft": lower})


def test_recorded_lambda_mismatch_is_reported():
    assert run.lambda_problems([[0.5]], 0, [0.5 + 2 * W.EPS], W.EPS)
    assert not run.lambda_problems([[0.5]], 0, [0.5 + W.EPS / 2], W.EPS)
    assert not run.lambda_problems([[0.5]], 1, [0.9], W.EPS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "combi-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_named_metric(trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "combi-grid", "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
