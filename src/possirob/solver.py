"""Necessity-degree maximization by monotone bisection over the confidence level.

The level-parameterized systems are nested: feasibility at some level implies
feasibility at every higher level.  The optimal degree is therefore one minus
the smallest feasible level, which a plain bisection brackets to any accuracy
``eps`` using at most ``ceil(log2(1/eps))`` probes after the initial nominal
solve (the nominal optimizer doubles as the witness at level 1, so that level
is never probed explicitly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fuzzy import FuzzyGoal
from .linsys import LinearSystem
from .models import (UncertainInstance, UncertainObjective, UncertainRow,
                     build_light_robust, build_nec, build_nominal, build_robust,
                     build_soft_nec, build_soft_nec_obj, worst_case_lhs)
from .simplex import (DEFAULT_CONFIG, LpBackend, LpStatus, SolverConfig,
                      check_feasible, solve)

__all__ = [
    "AssumptionViolation",
    "ModelInfeasible",
    "SolveOutcome",
    "OptimumOutcome",
    "nominal_optimum",
    "bisect",
    "bisect_feasibility",
    "necessity_degree",
    "solve_nec",
    "solve_soft_nec",
    "solve_soft_nec_obj",
    "solve_robust",
    "solve_light_robust",
]

DEFAULT_EPS = 1e-4


class AssumptionViolation(RuntimeError):
    """The instance breaks the standing assumption: its nominal counterpart
    must be feasible and bounded over the (bounded) feasible set."""


class ModelInfeasible(RuntimeError):
    """A model's LP ended without an optimum; ``status`` says how."""

    def __init__(self, status: LpStatus) -> None:
        super().__init__(f"model is {status.value}")
        self.status = status


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Result of one degree-maximizing solve.

    ``lambda_bar`` is the smallest level found feasible; the reported degree
    is ``1 - lambda_bar`` and the solution is the witness collected at that
    level.  ``iterations`` counts feasibility checks including the implicit
    one done by the nominal solve.  ``effectively_zero`` marks runs where no
    probed level below 1 was feasible, so the true degree is below ``eps``.
    """

    solution: np.ndarray
    lambda_bar: float
    degree: float
    nominal_value: float
    iterations: int
    effectively_zero: bool = False

    @classmethod
    def from_bracket(cls, bracket: tuple[np.ndarray, float, int, bool],
                     nominal_value: float, extra_checks: int) -> "SolveOutcome":
        """Outcome of a :func:`bisect_feasibility` result; ``extra_checks``
        counts feasibility checks done before the bisection."""
        witness, lam_bar, checks, at_top = bracket
        return cls(solution=np.asarray(witness, dtype=float), lambda_bar=lam_bar,
                   degree=1.0 - lam_bar, nominal_value=nominal_value,
                   iterations=checks + extra_checks, effectively_zero=at_top)


@dataclass(frozen=True, eq=False)
class OptimumOutcome:
    """Result of a single-LP model: its optimal value and solution."""

    value: float
    solution: np.ndarray
    nominal_value: float


def nominal_optimum(instance: UncertainInstance,
                    config: SolverConfig | None = None,
                    backend: LpBackend | None = None) -> tuple[float, np.ndarray]:
    """Solve the nominal counterpart; its optimum anchors every budget."""
    system = build_nominal(instance)
    res = solve(system, config, backend)
    if res.status is not LpStatus.OPTIMAL:
        raise AssumptionViolation(
            f"nominal counterpart is {res.status.value}; expected a bounded optimum")
    return float(res.value), system.extract_x(res.point)


def probe_count_bound(eps: float) -> int:
    """Feasibility checks needed: the bisection probes plus the nominal seed."""
    return math.ceil(math.log2(1.0 / eps)) + 1


def _check_accuracy(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"accuracy must be a finite positive number, got {eps!r}")


def bisect_feasibility(probe: Callable[[float], np.ndarray | None], eps: float,
                       incumbent: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, float, int, bool]:
    """Bracket the smallest feasible level of a monotone probe.

    ``probe`` returns a witness for feasible levels and ``None`` otherwise.
    When no incumbent is supplied, level 1 is probed first and its failure is
    an assumption violation.  Returns the witness from the smallest feasible
    probed level, that level, the number of probes performed, and whether
    every interior probe failed.
    """
    _check_accuracy(eps)
    checks = 0
    if incumbent is None:
        incumbent = probe(1.0)
        checks += 1
        if incumbent is None:
            raise AssumptionViolation("the system is infeasible even at level 1")
    witness = incumbent
    lo, hi = 0.0, 1.0
    while hi - lo > eps:
        mid = lo + 0.5 * (hi - lo)
        candidate = probe(mid)
        checks += 1
        if candidate is not None:
            witness, hi = candidate, mid
        else:
            lo = mid
    return witness, hi, checks, hi == 1.0


def necessity_degree(row: UncertainRow, x: Sequence[float], tol: float = 1e-6) -> float:
    """Degree to which ``x`` is certainly protected on ``row``: one minus the
    smallest level whose worst case fits under the crisp bound, bracketed to
    ``tol``.  It is 0 when even the nominal data violates the bound and 1 when
    the full-support worst case already fits."""
    _check_accuracy(tol)
    b = row.rhs.base
    if worst_case_lhs(row, x, 0.0) <= b:
        return 1.0
    if worst_case_lhs(row, x, 1.0) > b:
        return 0.0
    _, level, _, _ = bisect_feasibility(
        lambda lam: x if worst_case_lhs(row, x, lam) <= b else None, tol, incumbent=x)
    return 1.0 - level


def bisect(builder: Callable[[float], LinearSystem], eps: float = DEFAULT_EPS,
           incumbent: np.ndarray | None = None,
           nominal_value: float = math.nan,
           extra_checks: int = 0,
           config: SolverConfig | None = None,
           backend: LpBackend | None = None) -> SolveOutcome:
    """Maximize ``1 - level`` over a level-monotone family of linear systems."""
    cfg = config or DEFAULT_CONFIG

    def probe(lam: float) -> np.ndarray | None:
        system = builder(lam)
        res = check_feasible(system, cfg, backend)
        if not res.is_feasible:
            return None
        return system.extract_x(res.point)

    return SolveOutcome.from_bracket(bisect_feasibility(probe, eps, incumbent),
                                     nominal_value, extra_checks)


def solve_nec(instance: UncertainInstance, rho0: float, eps: float = DEFAULT_EPS,
              config: SolverConfig | None = None,
              backend: LpBackend | None = None) -> SolveOutcome:
    """Best certainly-protected solution under a hard budget ``c_hat + rho0``."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0)
    return bisect(lambda lam: build_nec(instance, lam, goal), eps,
                  incumbent=x_hat, nominal_value=c_hat, extra_checks=1,
                  config=config, backend=backend)


def solve_soft_nec(instance: UncertainInstance, rho0: float,
                   goal_shape: float = 1.0, include_nominal: bool = False,
                   eps: float = DEFAULT_EPS,
                   config: SolverConfig | None = None,
                   backend: LpBackend | None = None) -> SolveOutcome:
    """Best softly-protected solution under the graded budget and row slacks."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0, goal_shape)
    return bisect(lambda lam: build_soft_nec(instance, lam, goal, include_nominal),
                  eps, incumbent=x_hat, nominal_value=c_hat, extra_checks=1,
                  config=config, backend=backend)


def solve_soft_nec_obj(instance: UncertainInstance, eps: float = DEFAULT_EPS,
                       include_nominal: bool = False,
                       config: SolverConfig | None = None,
                       backend: LpBackend | None = None) -> SolveOutcome:
    """Soft-protection solve when the objective itself is a budgeted fuzzy row."""
    if not isinstance(instance.objective, UncertainObjective):
        raise ValueError("instance does not carry an uncertain objective")
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    return bisect(lambda lam: build_soft_nec_obj(instance, lam, c_hat, include_nominal),
                  eps, incumbent=x_hat, nominal_value=c_hat, extra_checks=1,
                  config=config, backend=backend)


def _optimum(instance: UncertainInstance, builder: Callable[[float], LinearSystem],
             config: SolverConfig | None,
             backend: LpBackend | None) -> OptimumOutcome:
    # ``builder`` receives the nominal optimum, which anchors cost budgets.
    c_hat, _ = nominal_optimum(instance, config, backend)
    system = builder(c_hat)
    res = solve(system, config, backend)
    if res.status is not LpStatus.OPTIMAL:
        raise ModelInfeasible(res.status)
    return OptimumOutcome(value=float(res.value),
                          solution=system.extract_x(res.point), nominal_value=c_hat)


def solve_robust(instance: UncertainInstance, lam: float = 0.0,
                 config: SolverConfig | None = None,
                 backend: LpBackend | None = None) -> OptimumOutcome:
    """Cheapest solution protected against every budgeted deviation inside
    the level-``lam`` cuts (full supports at 0)."""
    return _optimum(instance, lambda _c_hat: build_robust(instance, lam),
                    config, backend)


def solve_light_robust(instance: UncertainInstance, rho0: float,
                       norm: str = "max",
                       config: SolverConfig | None = None,
                       backend: LpBackend | None = None) -> OptimumOutcome:
    """Minimize the protection-slack norm subject to the cost budget."""
    try:
        return _optimum(instance,
                        lambda c_hat: build_light_robust(instance, c_hat, rho0, norm),
                        config, backend)
    except ModelInfeasible as exc:
        raise AssumptionViolation(
            f"light robust model is {exc.status.value} although the nominal "
            "counterpart was solvable") from None
