"""Random instances, possibility-guided scenario sampling, and the budget sweep.

The sweep compares, on the same random instances, the slack-minimizing
(lightly robust) solution against the soft degree-maximizing one while the
allowed cost increase grows from zero to ten percent of the nominal optimum.
Solution quality is judged a posteriori on sampled scenarios: each coefficient
draws a confidence level uniformly and then a value uniformly inside its cut
at that level, which makes realizations near the nominal value more likely.

Randomness comes from one master seed through counter-based Philox streams,
so instance ``i`` and its scenario set are reproducible in isolation and
independent of evaluation order.  Instances and scenario sets are shared
across budget values and across both solution methods: the sweep is a paired
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import Box, UncertainInstance, UncertainRow
from .simplex import LpBackend
from .solver import (AssumptionViolation, nominal_optimum, solve_light_robust,
                    solve_soft_nec)

__all__ = [
    "GeneratorSpec",
    "InstanceMetrics",
    "PointSummary",
    "SimulationReport",
    "DESK_P_GRID",
    "FULL_P_GRID",
    "DESK_SCALE",
    "FULL_SCALE",
    "stream",
    "generate_instance",
    "sample_scenarios",
    "violation_metrics",
    "run_experiment",
]

PRNG_NAME = "philox4x64"

# Budget grids as fractions of |nominal optimum|.  The desk grid doubles the
# full-scale range: constraint noise relative to the bounds grows like
# 1/sqrt(n), so at n=40 the sweep needs budgets up to ~20% to reach the
# low-infeasibility regime that n=100 reaches within 10%.
FULL_P_GRID: tuple[float, ...] = tuple(round(0.002 * i, 6) for i in range(51))
DESK_P_GRID: tuple[float, ...] = tuple(round(0.02 * i, 6) for i in range(11))

# (n, instances per budget value, scenarios per instance)
FULL_SCALE = {"n": 100, "instances_per_p": 100, "scenarios": 1000, "p_grid": FULL_P_GRID}
DESK_SCALE = {"n": 40, "instances_per_p": 20, "scenarios": 200, "p_grid": DESK_P_GRID}

# Integer cost range, and right-hand sides as a fraction of the nominal row sums.
COST_RANGE = (-100, -1)
RHS_FRACTION = 0.3


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape of the random instances: sizes, ranges and the master seed."""

    n: int = 100
    m: int = 5
    coeff_range: tuple[int, int] = (1, 100)
    gamma: int = 30
    rhs_slack_fraction: float = 0.1
    shape: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one variable and one row")
        lo, hi = self.coeff_range
        if lo > hi:
            raise ValueError(f"coeff_range is empty: [{lo}, {hi}]")
        if not 0.0 <= self.rhs_slack_fraction <= 1.0:
            raise ValueError("rhs_slack_fraction must lie in [0, 1], "
                             f"got {self.rhs_slack_fraction}")
        if not 0 <= self.gamma <= self.n:
            raise ValueError(f"protection level {self.gamma} outside [0, {self.n}]")
        if self.shape <= 0:
            raise ValueError("shape must be positive")


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Counter-split Philox stream: ``purpose`` 0 draws instances, 1 scenarios."""
    bg = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                          counter=[purpose, index, 0, 0])
    return np.random.Generator(bg)


def generate_instance(spec: GeneratorSpec, index: int = 0) -> UncertainInstance:
    """Draw one instance; deterministic in ``(spec, index)``.

    Costs are uniform integers from ``COST_RANGE``, nominal coefficients
    uniform integers from the coefficient range, each deviation a uniform
    fraction of its nominal value.  Right-hand sides are ``RHS_FRACTION`` of
    the row sums, with proportional violation slack, over the unit box.
    """
    rng = stream(spec.seed, 0, index)
    c_lo, c_hi = COST_RANGE
    a_lo, a_hi = spec.coeff_range
    costs = rng.integers(c_lo, c_hi + 1, size=spec.n).astype(float)
    a_hat = rng.integers(a_lo, a_hi + 1, size=(spec.m, spec.n)).astype(float)
    sigma = rng.random((spec.m, spec.n))
    a_bar = sigma * a_hat
    b = RHS_FRACTION * a_hat.sum(axis=1)
    b_bar = spec.rhs_slack_fraction * b
    rows = tuple(
        UncertainRow.from_arrays(a_hat[i], a_bar[i], b[i], spec.gamma,
                                 b_bar[i], spec.shape)
        for i in range(spec.m))
    return UncertainInstance(objective=tuple(costs), rows=rows,
                             feasible_set=Box.unit(spec.n))


def sample_scenarios(instance: UncertainInstance, rng: np.random.Generator,
                     count: int) -> np.ndarray:
    """Draw a ``(count, m, n)`` batch of coefficient realizations.

    Per coefficient and scenario: a level uniform on [0, 1], then a value
    uniform inside the cut at that level.  Deviation-free coefficients stay
    at their nominal values.
    """
    if count < 1:
        raise ValueError(f"need at least one scenario, got {count}")
    m, n = instance.m, instance.n
    a_hat = np.reshape([row.a_hat for row in instance.rows], (m, n))
    a_bar = np.reshape([row.a_bar for row in instance.rows], (m, n))
    shape = np.reshape([row.shape for row in instance.rows], (m, n))
    lam = rng.random((count, m, n))
    u = rng.random((count, m, n))
    half = a_bar * (1.0 - lam ** shape)
    return a_hat + (2.0 * u - 1.0) * half


def violation_metrics(x: Sequence[float], scenarios: np.ndarray,
                      instance: UncertainInstance) -> tuple[float, float]:
    """Share of scenarios with a violated row, and the mean largest relative
    violation, of ``x`` over a ``(count, m, n)`` batch."""
    b = np.array([row.rhs.base for row in instance.rows])
    if np.any(b <= 0):
        raise ValueError("violation metrics require strictly positive bounds")
    lhs = np.asarray(scenarios, dtype=float) @ np.asarray(x, dtype=float)
    viol = np.maximum((lhs - b) / b, 0.0).max(axis=-1, initial=0.0)
    return float(np.mean(viol > 0.0)), float(np.mean(viol))


@dataclass(frozen=True)
class InstanceMetrics:
    """A-posteriori quality of both solutions on one (budget, instance) pair."""

    p: float
    index: int
    nominal_value: float
    rho0: float
    cost_light: float
    cost_soft: float
    d_light: float
    d_soft: float
    infeas_light: float
    infeas_soft: float
    aviol_light: float
    aviol_soft: float
    lambda_bar_soft: float


@dataclass(frozen=True)
class PointSummary:
    """Per-budget averages over the included instances."""

    p: float
    d_light: float
    d_soft: float
    infeas_light: float
    infeas_soft: float
    aviol_light: float
    aviol_soft: float
    excluded: int


@dataclass(frozen=True, eq=False)
class SimulationReport:
    spec: GeneratorSpec
    instances_per_p: int
    scenarios: int
    points: tuple[PointSummary, ...]
    details: tuple[InstanceMetrics, ...]

    CSV_HEADER = "p,d_L,d_S,infeas_L,infeas_S,aviol_L,aviol_S,instances,scenarios,excluded"

    def to_csv(self) -> str:
        lines = [f"# prng={PRNG_NAME} seed={self.spec.seed} n={self.spec.n} "
                 f"m={self.spec.m} gamma={self.spec.gamma}",
                 self.CSV_HEADER]
        for pt in self.points:
            lines.append(
                f"{pt.p:.6f},{pt.d_light:.6f},{pt.d_soft:.6f},"
                f"{pt.infeas_light:.6f},{pt.infeas_soft:.6f},"
                f"{pt.aviol_light:.6f},{pt.aviol_soft:.6f},"
                f"{self.instances_per_p},{self.scenarios},{pt.excluded}")
        return "\n".join(lines) + "\n"


def _price(cost: float, c_hat: float) -> float:
    if c_hat == 0.0:
        return 0.0 if cost == 0.0 else float("inf")
    return abs((cost - c_hat) / c_hat)


def run_experiment(spec: GeneratorSpec,
                   p_grid: Sequence[float] | None = None,
                   instances_per_p: int = 100,
                   scenarios: int = 1000,
                   eps: float = 1e-4,
                   backend: LpBackend | None = None,
                   progress: Callable[[str], None] | None = None,
                   ) -> SimulationReport:
    """Run the budget sweep and aggregate the a-posteriori metrics.

    Instances whose nominal counterpart cannot be solved are excluded from the
    averages; the per-budget exclusion count is reported.  Identical inputs
    produce identical reports, byte for byte.  Instances are swept one at a
    time over every budget, so one scenario batch is held at once.
    """
    if instances_per_p < 1:
        raise ValueError("need at least one instance per budget value, "
                         f"got {instances_per_p}")
    grid = tuple(float(p) for p in (p_grid if p_grid is not None else FULL_P_GRID))
    say = progress or (lambda _msg: None)

    # Per budget value, the records of the instances it includes, in order.
    records: list[list[InstanceMetrics]] = [[] for _ in grid]
    for i in range(instances_per_p):
        for done, record in zip(records, _sweep_instance(spec, i, grid, scenarios, eps,
                                                         backend, say)):
            if record is not None:
                done.append(record)

    points: list[PointSummary] = []
    for p, done in zip(grid, records):
        total = np.zeros(6)
        for r in done:
            total += (r.d_light, r.d_soft, r.infeas_light, r.infeas_soft,
                      r.aviol_light, r.aviol_soft)
        means = total / len(done) if done else np.full(6, float("nan"))
        excluded = instances_per_p - len(done)
        points.append(PointSummary(p, *[float(v) for v in means], excluded))
        say(f"p={p:.4f}: d_L={means[0]:.4f} d_S={means[1]:.4f} "
            f"infeas_L={means[2]:.3f} infeas_S={means[3]:.3f} excluded={excluded}")

    return SimulationReport(spec=spec, instances_per_p=instances_per_p,
                            scenarios=scenarios, points=tuple(points),
                            details=tuple(r for done in records for r in done))


def _sweep_instance(spec: GeneratorSpec, i: int, grid: tuple[float, ...],
                    scenarios: int, eps: float, backend: LpBackend | None,
                    say: Callable[[str], None]) -> list[InstanceMetrics | None]:
    """Instance ``i`` solved and scored at every budget value of ``grid``;
    ``None`` where it is excluded."""
    inst = generate_instance(spec, index=i)
    scen = sample_scenarios(inst, stream(spec.seed, 1, i), scenarios)
    try:
        c_hat, _ = nominal_optimum(inst, backend=backend)
    except AssumptionViolation as exc:
        say(f"instance {i} excluded: {exc}")
        return [None] * len(grid)
    costs = inst.cost_nominal()
    out: list[InstanceMetrics | None] = []
    for p in grid:
        rho0 = p * abs(c_hat)
        try:
            light = solve_light_robust(inst, rho0, backend=backend)
            soft = solve_soft_nec(inst, rho0, spec.shape, eps=eps, backend=backend)
        except AssumptionViolation as exc:
            say(f"p={p:.4f} instance {i} excluded: {exc}")
            out.append(None)
            continue
        cost_l = float(np.dot(costs, light.solution))
        cost_s = float(np.dot(costs, soft.solution))
        infeas_l, aviol_l = violation_metrics(light.solution, scen, inst)
        infeas_s, aviol_s = violation_metrics(soft.solution, scen, inst)
        out.append(InstanceMetrics(
            p=p, index=i, nominal_value=c_hat, rho0=rho0,
            cost_light=cost_l, cost_soft=cost_s,
            d_light=_price(cost_l, c_hat), d_soft=_price(cost_s, c_hat),
            infeas_light=infeas_l, infeas_soft=infeas_s,
            aviol_light=aviol_l, aviol_soft=aviol_s,
            lambda_bar_soft=soft.lambda_bar))
    return out
