"""The three seeded workloads: inputs, one op each, and the op's output check.

Op ``i`` of a workload depends only on ``(seed, i)``.  Properties that set an
op's cost (instance size, oracle kind, budget value) follow a fixed cycle over
``i``, so every run sees the same mix of sizes; the seed draws the data.  On
the two workloads whose op cost spans a wide range, one middle-cost kind of op
makes up half the cycle, so the median latency falls inside a dense cluster
rather than in the gap between two.

Each workload reads the program through module attributes
(``experiment.run_experiment``, ``solver.solve_nec``, ...), so the traced run
can wrap a function where the calling module binds it and every call, from
the benchmark or from inside the package, passes through the wrapper.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from possirob import combinatorial as C
from possirob import experiment as E
from possirob import instance_io as IO
from possirob import models as M
from possirob import simplex as LP
from possirob import solver as S
from possirob.fuzzy import FuzzyGoal

import checks

EPS = 1e-4


@dataclass
class Runtime:
    """What an op gets from the runner: the LP backend (``None`` is the
    package default) and a hook the traced run uses to wrap oracles."""

    backend: Any = None
    oracle: Callable[[Any], Any] = lambda o: o


def _rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, index])


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


@contextlib.contextmanager
def _capture(module, names: tuple[str, ...], sink: list):
    """Record ``(name, args, result)`` for calls to ``module.<name>``.

    The sweep's report carries lambda_bar and costs but not the witnesses;
    this pass-through keeps them so the check can re-evaluate them.  It adds
    one Python call per solve, in traced and untraced runs alike.
    """
    saved = {name: getattr(module, name) for name in names}

    def keep(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((name, args, result))
            return result
        return call

    for name, fn in saved.items():
        setattr(module, name, keep(name, fn))
    try:
        yield sink
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


# -- sweep-desk-ref ------------------------------------------------------


class SweepDeskRef:
    """One budget-sweep point per op at the desk shape on the reference LP."""

    name = "sweep-desk-ref"
    uses_scipy = False
    pool = 66          # six passes over the 11-value desk budget grid
    trace_ops = 6
    recorded_ops = 22

    def inputs(self, seed: int) -> list[tuple[E.GeneratorSpec, float]]:
        grid = E.DESK_P_GRID
        return [(E.GeneratorSpec(n=40, m=5, gamma=30, shape=1.0, seed=_sub_seed(seed, i)),
                 grid[i % len(grid)])
                for i in range(self.pool)]

    def run(self, inp, rt: Runtime):
        spec, p = inp
        captured: list = []
        with _capture(E, ("solve_light_robust", "solve_soft_nec"), captured):
            report = E.run_experiment(spec, p_grid=(p,), instances_per_p=1,
                                      scenarios=200, eps=EPS, backend=rt.backend)
        return report, captured

    def check(self, inp, out) -> list[str]:
        spec, p = inp
        report, captured = out
        if report.points[0].excluded or len(report.details) != 1:
            # The generated instances are nominal-feasible, and the light and
            # soft models are feasible whenever the nominal one is.
            return [f"sweep: instance excluded at p={p} (a solve reported infeasible)"]
        det = report.details[0]
        calls = {name: (args, result) for name, args, result in captured}
        (inst, rho0, *_), soft = calls["solve_soft_nec"]
        light = calls["solve_light_robust"][1]
        goal = FuzzyGoal(det.nominal_value, rho0, spec.shape)
        problems = checks.soft_nec(inst, soft, goal)
        problems += checks.light(inst, np.asarray(light.solution), det.nominal_value, rho0)
        costs = inst.cost_nominal()
        if det.lambda_bar_soft != soft.lambda_bar:
            problems.append("sweep: reported lambda_bar differs from the solve's")
        for label, cost, x in (("soft", det.cost_soft, soft.solution),
                               ("light", det.cost_light, light.solution)):
            if abs(cost - float(np.dot(costs, x))) > 1e-9 * (1.0 + abs(cost)):
                problems.append(f"sweep: reported {label} cost differs from its witness")
        problems += checks.violation_summary(det.infeas_soft, det.aviol_soft, "sweep soft")
        problems += checks.violation_summary(det.infeas_light, det.aviol_light, "sweep light")
        return problems

    def lambdas(self, out) -> list[float]:
        return [out[0].details[0].lambda_bar_soft]


# -- model-mix-scipy -----------------------------------------------------


class ModelMixScipy:
    """Parse one instance document and run every LP model on HiGHS."""

    name = "model-mix-scipy"
    uses_scipy = True
    sizes = (20, 60, 100, 60, 40, 60, 80, 60)
    pool = 160         # 20 passes over the size cycle
    trace_ops = 16
    recorded_ops = 80
    scenarios = 1000

    def _document(self, seed: int, i: int) -> tuple[dict, float, int]:
        rng = _rng(seed, 2, i)
        n = self.sizes[i % len(self.sizes)]
        z = float(rng.choice((0.5, 1.0, 2.0)))
        spec = E.GeneratorSpec(n=n, m=5, gamma=int(rng.integers(n // 4, n // 2 + 1)),
                               rhs_slack_fraction=float(rng.uniform(0.0, 0.2)),
                               shape=z, seed=seed)
        inst = E.generate_instance(spec, index=i)
        doc = IO.serialize_instance(inst)
        if (i // len(self.sizes)) % 2:
            # Every other pass gives each row its own shape.
            for row in doc["rows"]:
                row["z"] = float(rng.choice((0.5, 1.0, 2.0)))
                row["gamma"] = int(rng.integers(1, n + 1))
        costs = np.asarray(doc["c"], dtype=float)
        doc["c"] = {
            "c_hat": costs.tolist(),
            "c_bar": (rng.random(n) * np.abs(costs)).tolist(),
            "gamma0": int(rng.integers(1, n // 2 + 1)),
            "b0_bar": float(rng.uniform(0.0, 0.05) * np.abs(costs).sum()),
            "z": z,
        }
        p = float(rng.uniform(0.02, 0.1))
        return doc, p, _sub_seed(seed, i)

    def inputs(self, seed: int) -> list:
        return [self._document(seed, i) for i in range(self.pool)]

    def run(self, inp, rt: Runtime) -> dict:
        doc, p, scenario_seed = inp
        backend = rt.backend
        inst = IO.parse_instance(doc)
        crisp = M.UncertainInstance(objective=tuple(inst.cost_nominal()),
                                    rows=inst.rows, feasible_set=inst.feasible_set)
        c_hat, x_hat = S.nominal_optimum(crisp, None, backend)
        rho0 = p * abs(c_hat)
        system = M.build_robust(crisp, 0.0)
        robust = LP.solve(system, None, backend)
        light = S.solve_light_robust(crisp, rho0, "max", None, backend)
        nec = S.solve_nec(crisp, rho0, EPS, None, backend)
        z = inst.objective.goal.shape
        soft = S.solve_soft_nec(crisp, rho0, z, False, EPS, None, backend)
        obj_inst = M.UncertainInstance(
            objective=replace(inst.objective, goal=FuzzyGoal(None, rho0, z)),
            rows=inst.rows, feasible_set=inst.feasible_set)
        soft_obj = S.solve_soft_nec_obj(obj_inst, EPS, False, None, backend)
        # What `simulate` does with the soft witness.
        scen = E.sample_scenarios(crisp, E.stream(scenario_seed, 1, 0), self.scenarios)
        b = np.array([row.rhs.base for row in crisp.rows])
        viol = np.maximum((scen @ soft.solution - b) / b, 0.0).max(axis=1)
        return {"crisp": crisp, "rho0": rho0, "c_hat": c_hat, "x_hat": x_hat,
                "robust": (robust, system), "light": light, "nec": nec,
                "soft": soft, "obj_inst": obj_inst, "soft_obj": soft_obj,
                "infeas": float(np.mean(viol > 0.0)), "aviol": float(np.mean(viol))}

    def check(self, inp, out: dict) -> list[str]:
        crisp, c_hat, rho0 = out["crisp"], out["c_hat"], out["rho0"]
        costs = crisp.cost_nominal()
        problems = checks.nominal_rows(crisp, out["x_hat"], "nominal")
        if abs(float(np.dot(costs, out["x_hat"])) - c_hat) > 1e-6 * (1.0 + abs(c_hat)):
            problems.append("nominal: reported optimum differs from its witness")
        res, system = out["robust"]
        if res.status is not LP.LpStatus.OPTIMAL:
            return problems + [f"robust: status {res.status.value}"]
        x_rob = system.extract_x(res.point)
        problems += checks.robust(crisp, x_rob, 0.0)
        # Robust solutions are nominal-feasible, so none may beat the nominal optimum.
        if float(np.dot(costs, x_rob)) < c_hat - 1e-6 * (1.0 + abs(c_hat)):
            problems.append("robust: cost below the nominal optimum")
        problems += checks.light(crisp, np.asarray(out["light"].solution), c_hat, rho0)
        problems += checks.nec(crisp, out["nec"], FuzzyGoal(c_hat, rho0))
        z = out["obj_inst"].objective.goal.shape
        problems += checks.soft_nec(crisp, out["soft"], FuzzyGoal(c_hat, rho0, z))
        problems += checks.soft_nec_obj(out["obj_inst"], out["soft_obj"])
        for key in ("light", "nec", "soft", "soft_obj"):
            if out[key].nominal_value != c_hat:
                problems.append(f"{key}: nominal value differs between solves")
        problems += checks.violation_summary(out["infeas"], out["aviol"], "simulate")
        return problems

    def lambdas(self, out: dict) -> list[float]:
        return [out[k].lambda_bar for k in ("nec", "soft", "soft_obj")]


# -- combi-grid ----------------------------------------------------------


def grid_graph(k: int, c_hat: np.ndarray, c_bar: np.ndarray) -> C.EdgeListGraph:
    """k x k grid, edges pointing right and down, path from corner to corner."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return C.EdgeListGraph(k * k, tuple(edges), tuple(map(float, c_hat)),
                           tuple(map(float, c_bar)), source=0, target=k * k - 1)


class CombiGrid:
    """One combinatorial soft-degree solve per op on a k x k grid graph."""

    name = "combi-grid"
    uses_scipy = False
    # (k, oracle) cycle: path ops climb the size ladder, tree ops stay on the
    # 8 x 8 grid; every other pass draws tied deviations.
    cycle = ((6, "sp"), (8, "mst"), (8, "sp"), (8, "mst"), (10, "sp"), (8, "mst"))
    tie_levels = (4.0, 12.0, 30.0)
    pool = 192
    trace_ops = 12
    recorded_ops = 96

    def _case(self, seed: int, i: int):
        rng = _rng(seed, 3, i)
        k, kind = self.cycle[i % len(self.cycle)]
        n_edges = 2 * k * (k - 1)
        gamma = int(rng.integers(1, 2 * k))
        inst = E.generate_instance(
            E.GeneratorSpec(n=n_edges, m=1, coeff_range=(1, 100), gamma=gamma, seed=seed),
            index=i)
        row = inst.rows[0]
        c_hat = row.nominal()
        c_bar = row.half_widths(0.0)
        if (i // len(self.cycle)) % 2:
            c_bar = rng.choice(self.tie_levels, size=n_edges)
        graph = grid_graph(k, c_hat, c_bar)
        edges_used = 2 * k - 2 if kind == "sp" else k * k - 1
        scale = float(np.mean(c_hat)) * edges_used
        cost_row = graph.cost_row(gamma, rho0=float(rng.uniform(0.05, 0.3)) * scale,
                                  slack_bar=float(rng.uniform(0.0, 0.05)) * scale,
                                  shape=float(rng.choice((0.5, 1.0, 2.0))))
        return graph, kind, cost_row

    def inputs(self, seed: int) -> list:
        return [self._case(seed, i) for i in range(self.pool)]

    def run(self, inp, rt: Runtime):
        graph, kind, row = inp
        oracle = C.ShortestPathOracle(graph) if kind == "sp" else C.SpanningTreeOracle(graph)
        return C.solve_soft_nec_combinatorial(row, rt.oracle(oracle), EPS)

    def check(self, inp, out) -> list[str]:
        graph, kind, row = inp
        return checks.combinatorial(graph, kind, row, out)

    def lambdas(self, out) -> list[float]:
        return [out.lambda_bar]


WORKLOADS = {w.name: w for w in (SweepDeskRef(), ModelMixScipy(), CombiGrid())}
