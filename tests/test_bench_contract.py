"""The package against the call forms the traced benchmark run relies on.

``perfbench/spans.py`` rebinds package functions where the calling modules
bind them and wraps them with fixed call forms: ``bisect_feasibility(probe,
eps, incumbent=None)``, ``minmax_budgeted(row, lam, oracle)``, the builders
and ``LinearSystem.dense``; it reads ``system.rows`` as ``(coeffs, rhs)``
pairs and each oracle's ``calls``.  One traced op per workload, checked
against the recorded seed-0 ``lambda_bar`` values, shows whether the package
still fits those wrappers.
"""

import json

import pytest

from conftest import REPO_ROOT

BENCH_DIR = REPO_ROOT / "perfbench"


@pytest.mark.parametrize("name", ["sweep-desk-ref", "model-mix-scipy", "combi-grid"])
def test_one_traced_op_passes(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    import workloads

    w = workloads.WORKLOADS[name]
    monkeypatch.setattr(w, "trace_ops", 1)
    backend = None
    if w.uses_scipy:
        pytest.importorskip("scipy")
        from possirob import ScipyBackend
        backend = ScipyBackend()
    recorded = json.loads(run.RECORDED.read_text(encoding="utf-8"))[w.name]
    layer, untraced, traced, failed = run.traced_pass(
        workloads, w, 0, backend, recorded, workloads.EPS, tmp_path / "spans.jsonl")
    assert failed == 0
    assert len(untraced) == len(traced) == 1
    assert layer["trace.spans"][0] > 0
