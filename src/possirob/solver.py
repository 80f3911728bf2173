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
from .simplex import LpBackend, LpStatus, SolverConfig, check_feasible, solve

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


@dataclass(frozen=True, eq=False, init=False)
class SolveOutcome:
    """Result of one degree-maximizing solve.

    ``lambda_bar`` is the smallest level found feasible and ``solution`` the
    witness collected at that level.  ``iterations`` counts feasibility
    checks, level 1 included (the nominal solve that seeds a model's search
    is that check).  ``degree`` is derived from ``lambda_bar``; passing one
    to the constructor (as ``dataclasses.replace`` may) only checks it.
    """

    solution: np.ndarray
    lambda_bar: float
    nominal_value: float
    iterations: int

    def __init__(self, solution: np.ndarray, lambda_bar: float, nominal_value: float,
                 iterations: int, *, degree: float | None = None) -> None:
        if degree is not None and degree != 1.0 - lambda_bar:
            raise ValueError(f"degree {degree!r} is not 1 - lambda_bar ({lambda_bar!r})")
        for name, value in (("solution", solution), ("lambda_bar", lambda_bar),
                            ("nominal_value", nominal_value), ("iterations", iterations)):
            object.__setattr__(self, name, value)

    @property
    def degree(self) -> float:
        """The reported degree, ``1 - lambda_bar``."""
        return 1.0 - self.lambda_bar

    @property
    def effectively_zero(self) -> bool:
        """No level below 1 was feasible, so the true degree is below ``eps``."""
        return self.lambda_bar == 1.0


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
                       ) -> tuple[np.ndarray, float, int]:
    """Bracket the smallest feasible level of a monotone probe.

    ``probe`` returns a witness for feasible levels and ``None`` otherwise.
    Level 1 is checked first: ``incumbent`` is a witness already known there;
    without one, level 1 is probed and its failure is an assumption
    violation.  Halving stops once the bracket is at most ``eps`` wide or its
    midpoint rounds onto an end, so an ``eps`` below the float spacing stops
    at adjacent floats.  Returns the witness from the smallest feasible level
    checked, that level, and the number of checks, level 1 included.
    """
    _check_accuracy(eps)
    if incumbent is None:
        incumbent = probe(1.0)
        if incumbent is None:
            raise AssumptionViolation("the system is infeasible even at level 1")
    witness, lo, hi, checks = incumbent, 0.0, 1.0, 1
    while hi - lo > eps:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        candidate = probe(mid)
        checks += 1
        if candidate is not None:
            witness, hi = candidate, mid
        else:
            lo = mid
    return witness, hi, checks


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
    _, level, _ = bisect_feasibility(
        lambda lam: x if worst_case_lhs(row, x, lam) <= b else None, tol, incumbent=x)
    return 1.0 - level


def bisect(builder: Callable[[float], LinearSystem], eps: float = DEFAULT_EPS,
           incumbent: np.ndarray | None = None,
           nominal_value: float = math.nan,
           config: SolverConfig | None = None,
           backend: LpBackend | None = None) -> SolveOutcome:
    """Maximize ``1 - level`` over a level-monotone family of linear systems."""

    def probe(lam: float) -> np.ndarray | None:
        system = builder(lam)
        res = check_feasible(system, config, backend)
        return system.extract_x(res.point) if res.is_feasible else None

    witness, lam_bar, checks = bisect_feasibility(probe, eps, incumbent)
    return SolveOutcome(np.asarray(witness, dtype=float), lam_bar, nominal_value, checks)


def solve_nec(instance: UncertainInstance, rho0: float, eps: float = DEFAULT_EPS,
              config: SolverConfig | None = None,
              backend: LpBackend | None = None) -> SolveOutcome:
    """Best certainly-protected solution under a hard budget ``c_hat + rho0``."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0)
    return bisect(lambda lam: build_nec(instance, lam, goal),
                  eps, x_hat, c_hat, config, backend)


def solve_soft_nec(instance: UncertainInstance, rho0: float,
                   goal_shape: float = 1.0, include_nominal: bool = False,
                   eps: float = DEFAULT_EPS,
                   config: SolverConfig | None = None,
                   backend: LpBackend | None = None) -> SolveOutcome:
    """Best softly-protected solution under the graded budget and row slacks."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0, goal_shape)
    return bisect(lambda lam: build_soft_nec(instance, lam, goal, include_nominal),
                  eps, x_hat, c_hat, config, backend)


def solve_soft_nec_obj(instance: UncertainInstance, eps: float = DEFAULT_EPS,
                       include_nominal: bool = False,
                       config: SolverConfig | None = None,
                       backend: LpBackend | None = None) -> SolveOutcome:
    """Soft-protection solve when the objective itself is a budgeted fuzzy row."""
    if not isinstance(instance.objective, UncertainObjective):
        raise ValueError("instance does not carry an uncertain objective")
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    return bisect(lambda lam: build_soft_nec_obj(instance, lam, c_hat, include_nominal),
                  eps, x_hat, c_hat, config, backend)


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
