"""In-memory spans around the package's layers, for the traced run only.

``Tracer.install`` wraps public functions where the calling module binds them
(``solver.build_soft_nec``, ``experiment.solve_soft_nec``, ...), plus
``LinearSystem.dense``.  LP calls are timed through a pass-through
``LpBackend`` and oracle calls through a pass-through oracle, both handed to
the op.  Nothing under ``src/`` changes; ``restore`` puts every binding back.

A span is ``[name, start, end, parent, op]``; the layer is the part of the
name before the first dot.  A span's self time is its duration minus that of
its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

from possirob import combinatorial as C
from possirob import experiment as E
from possirob import instance_io as IO
from possirob import linsys as L
from possirob import models as M
from possirob import solver as S

# (module, attribute, span name) for every wrapped binding.
_BINDINGS = (
    (E, "generate_instance", "experiment.generate_instance"),
    (E, "sample_scenarios", "experiment.sample_scenarios"),
    (E, "run_experiment", "experiment.run_experiment"),
    (E, "nominal_optimum", "solver.nominal_optimum"),
    (E, "solve_light_robust", "solver.solve_light_robust"),
    (E, "solve_soft_nec", "solver.solve_soft_nec"),
    (S, "nominal_optimum", "solver.nominal_optimum"),
    (S, "solve_light_robust", "solver.solve_light_robust"),
    (S, "solve_nec", "solver.solve_nec"),
    (S, "solve_soft_nec", "solver.solve_soft_nec"),
    (S, "solve_soft_nec_obj", "solver.solve_soft_nec_obj"),
    (IO, "parse_instance", "instance_io.parse_instance"),
)
_BUILDERS = (
    (S, "build_nominal"), (S, "build_light_robust"), (S, "build_nec"),
    (S, "build_soft_nec"), (S, "build_soft_nec_obj"), (M, "build_robust"),
)


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.sizes: list[tuple[int, int]] = []
        self.oracles: list[Any] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._last_pattern: dict[int, int] = {}
        self._seen_costs: set[bytes] | None = None

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str,
             after: Callable[[Any], None] | None = None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _BINDINGS:
            self._patch(module, attr, self.wrap(getattr(module, attr), name))
        for module, attr in _BUILDERS:
            self._patch(module, attr, self.wrap(getattr(module, attr), f"models.{attr}",
                                                after=self._on_build))
        self._patch(S, "bisect", self.wrap(S.bisect, "solver.bisect", after=self._on_outcome))
        for module in (S, C):
            self._patch(module, "bisect_feasibility",
                        self._bisect_feasibility(module.bisect_feasibility))
        self._patch(C, "solve_soft_nec_combinatorial",
                    self.wrap(C.solve_soft_nec_combinatorial,
                              "combinatorial.solve_soft_nec_combinatorial",
                              after=self._on_outcome))
        self._patch(C, "minmax_budgeted", self._minmax(C.minmax_budgeted))
        self._patch(L.LinearSystem, "dense", self.wrap(L.LinearSystem.dense, "linsys.dense"))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_outcome(self, outcome) -> None:
        self.counts["solves"] += 1
        self.counts["probes"] += outcome.iterations

    def _on_build(self, system) -> None:
        self.sizes.append((system.n_variables, system.n_constraints))
        # Compare the sparsity pattern with the previous build in the same
        # bisection; the hashing is booked to the benchmark, not the solver.
        solve = next((i for i in reversed(self._stack)
                      if self.spans[i][0] == "solver.bisect"), None)
        if solve is None:
            return
        idx = self.open("bench.bookkeeping")
        pattern = hash((tuple(system.lower), tuple(system.upper),
                        tuple(tuple(coeffs) for coeffs, _ in system.rows)))
        self.close(idx)
        if solve in self._last_pattern:
            self.counts["builds_compared"] += 1
            self.counts["builds_same"] += self._last_pattern[solve] == pattern
        self._last_pattern[solve] = pattern

    def _bisect_feasibility(self, fn: Callable) -> Callable:
        def traced(probe, eps, incumbent=None):
            def traced_probe(lam):
                witness = self.call("solver.probe", probe, lam)
                self.counts["probes_run"] += 1
                self.counts["probes_feasible"] += witness is not None
                return witness
            return self.call("solver.bisect_feasibility", fn, traced_probe, eps, incumbent)
        return traced

    def _minmax(self, fn: Callable) -> Callable:
        def traced(row, lam, oracle):
            self._seen_costs = set()
            self.counts["minmax_calls"] += 1
            try:
                return self.call("combinatorial.minmax_budgeted", fn, row, lam, oracle)
            finally:
                self._seen_costs = None
        return traced

    def oracle(self, inner) -> "TracedOracle":
        self.oracles.append(inner)
        return TracedOracle(inner, self)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "op": op}) + "\n")

    def per_name(self) -> dict[str, dict[str, float]]:
        """Count, inclusive seconds and self seconds for every span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return table


class TracedBackend:
    """Pass-through ``LpBackend`` that records one span per LP call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def solve(self, system, config):
        return self.tracer.call("simplex.solve", self.inner.solve, system, config)

    def check_feasible(self, system, config):
        return self.tracer.call("simplex.check_feasible", self.inner.check_feasible,
                                system, config)


class TracedOracle:
    """Pass-through oracle: one span per call, and a count of calls whose cost
    vector already appeared within the same probe."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def minimize(self, costs):
        seen = self.tracer._seen_costs
        if seen is not None:
            key = costs.tobytes()
            self.tracer.counts["oracle_in_probe"] += 1
            self.tracer.counts["oracle_repeats"] += key in seen
            seen.add(key)
        return self.tracer.call("combinatorial.oracle", self.inner.minimize, costs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("simplex", "models", "linsys", "solver", "combinatorial", "experiment",
          "instance_io")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    t = tracer.per_name()
    c = tracer.counts

    def total(prefix: str, key: str) -> float:
        return sum(row[key] for name, row in t.items() if name.startswith(prefix))

    lp_calls = t["simplex.check_feasible"]["calls"] + t["simplex.solve"]["calls"]
    dense = t["linsys.dense"]["calls"]
    oracle_calls = sum(o.calls for o in tracer.oracles)
    n_sizes = len(tracer.sizes)
    out: dict[str, tuple[float, str]] = {
        "simplex.check_feasible.calls": (t["simplex.check_feasible"]["calls"], "count"),
        "simplex.check_feasible_s": (t["simplex.check_feasible"]["s"], "s"),
        "simplex.solve.calls": (t["simplex.solve"]["calls"], "count"),
        "simplex.solve_s": (t["simplex.solve"]["s"], "s"),
        "models.build.calls": (total("models.build", "calls"), "count"),
        "models.build_s": (total("models.build", "s"), "s"),
        "models.system.vars_mean": (_ratio(sum(v for v, _ in tracer.sizes), n_sizes), "count"),
        "models.system.rows_mean": (_ratio(sum(r for _, r in tracer.sizes), n_sizes), "count"),
        "models.build.same_structure_ratio": (
            _ratio(c["builds_same"], c["builds_compared"]), "ratio"),
        "linsys.dense.calls": (dense, "count"),
        "linsys.dense_s": (t["linsys.dense"]["s"], "s"),
        "linsys.dense.per_lp": (_ratio(dense, lp_calls), "count"),
        "solver.probes": (c["probes"], "count"),
        "solver.probes_per_solve": (_ratio(c["probes"], c["solves"]), "count"),
        "solver.feasible_probe_ratio": (_ratio(c["probes_feasible"], c["probes_run"]), "ratio"),
        "solver.bisect_self_s": (sum(t[n]["self_s"] for n in (
            "solver.bisect", "solver.bisect_feasibility", "solver.probe")), "s"),
        "combinatorial.oracle.calls": (oracle_calls, "count"),
        "combinatorial.oracle_s": (t["combinatorial.oracle"]["s"], "s"),
        "combinatorial.oracle.calls_per_probe": (
            _ratio(c["oracle_in_probe"], c["minmax_calls"]), "count"),
        "combinatorial.minmax_self_s": (t["combinatorial.minmax_budgeted"]["self_s"], "s"),
        "combinatorial.oracle.repeat_ratio": (
            _ratio(c["oracle_repeats"], c["oracle_in_probe"]), "ratio"),
        "experiment.generate_s": (t["experiment.generate_instance"]["s"], "s"),
        "experiment.sample_s": (t["experiment.sample_scenarios"]["s"], "s"),
        "experiment.sweep_self_s": (t["experiment.run_experiment"]["self_s"], "s"),
        "instance_io.parse_s": (t["instance_io.parse_instance"]["s"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total(f"{layer}.", "self_s"), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
