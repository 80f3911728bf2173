"""Necessity-degree maximization by monotone bisection over the confidence level.

The level-parameterized systems are nested: feasibility at some level implies
feasibility at every higher level.  The optimal degree is therefore one minus
the smallest feasible level, which a plain bisection brackets to any accuracy
``eps`` using at most ``ceil(log2(1/eps))`` probes after the initial nominal
solve (the nominal optimizer doubles as the witness at level 1, so that level
is never probed explicitly).

On the reference engine a degree model's levels are decided over the decision
variables alone, by row generation on small relaxations.  One dualized probe
then collects the witness at the bracket's feasible end, and the Farkas
vector of the last infeasible relaxation, checked with numpy, certifies its
infeasible end; a second dualized probe confirms that end only when the
certificate is missing or fails the check (see :func:`bisect`).  The light
robust LP is solved the same way, and its dualized LP runs only when the
last relaxation cannot prove its optimum unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fuzzy import FuzzyGoal
from .linsys import LinearSystem
from .models import (LevelRows, UncertainInstance, UncertainObjective, UncertainRow,
                     _check_light, build_light_robust, build_nec, build_nominal,
                     build_robust, build_soft_nec, build_soft_nec_obj, light_rows,
                     nec_rows, soft_nec_obj_rows, soft_nec_rows, top_sum, worst_case_lhs)
from .simplex import (DEFAULT_CONFIG, LpBackend, LpResult, LpStatus, ScipyBackend,
                      SolverConfig, SolverError, solve)

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
# Separation rounds one level may take before its x-space verdict is given up.
_MAX_ROUNDS = 100
# Smallest nonbasic reduced cost that proves a relaxation optimum unique.
_UNIQUE_MARGIN = 1e-9


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


@dataclass(frozen=True)
class _Family:
    """A degree model over the level: calling it builds the dualized system,
    ``rows`` gives the same model's rows at a level in x-space."""

    build: Callable[[float], LinearSystem]
    rows: Callable[[float], LevelRows]

    def __call__(self, lam: float) -> LinearSystem:
        return self.build(lam)


def bisect(builder: Callable[[float], LinearSystem], eps: float = DEFAULT_EPS,
           incumbent: np.ndarray | None = None,
           nominal_value: float = math.nan,
           config: SolverConfig | None = None,
           backend: LpBackend | None = None) -> SolveOutcome:
    """Maximize ``1 - level`` over a level-monotone family of linear systems.

    Each level is a feasibility probe of the built system.  For a degree
    model solved on an x-space engine (see :func:`_xspace_engine`), levels
    are instead decided by row generation, and the bracket is closed at both
    ends: a dualized probe at its feasible end, whose point is the witness
    the dualized search would return, and at its highest infeasible level
    the last relaxation's Farkas certificate, or a dualized probe when the
    certificate is missing or does not refute the relaxation.  If a probe
    disagrees, or an x-space LP fails, the dualized search runs instead, so
    the outcome is the same either way.
    """

    def probe(lam: float) -> np.ndarray | None:
        system = builder(lam)
        res = solve(system, config, backend)
        return system.extract_x(res.point) if res.is_feasible else None

    found = None
    if isinstance(builder, _Family) and _xspace_engine(backend):
        found = _confirmed_xspace_bisection(builder.rows, probe, eps, incumbent,
                                            config, backend)
    witness, lam_bar, checks = found or bisect_feasibility(probe, eps, incumbent)
    return SolveOutcome(np.asarray(witness, dtype=float), lam_bar, nominal_value, checks)


def _confirmed_xspace_bisection(
        rows: Callable[[float], LevelRows], probe: Callable[[float], np.ndarray | None],
        eps: float, incumbent: np.ndarray | None, config: SolverConfig | None,
        backend: LpBackend | None) -> tuple[np.ndarray, float, int] | None:
    """Bisect on x-space verdicts, then confirm the bracket: its feasible end
    with ``probe``, its infeasible end with the last infeasible relaxation's
    certificate, or with ``probe`` when that certificate is missing or fails
    :meth:`LinearSystem.refuted_by`.  ``None`` when a confirmation fails or
    an x-space LP did."""
    pool: dict[tuple[int, bytes], np.ndarray] = {}
    # The lower end only rises, so the last infeasible verdict is that end.
    last: tuple[float, LinearSystem, LpResult] | None = None

    def decide(lam: float) -> np.ndarray | None:
        nonlocal last
        point, relaxation, res = _row_generation(rows(lam), pool, config, backend)
        if point is None:
            last = lam, relaxation, res
        return point

    try:
        _, hi, checks = bisect_feasibility(decide, eps, incumbent)
    except (SolverError, AssumptionViolation):
        return None
    witness = incumbent if hi == 1.0 and incumbent is not None else probe(hi)
    if witness is None or (last is not None and not _certified(*last[1:])
                           and probe(last[0]) is not None):
        return None
    return witness, hi, checks


def _certified(relaxation: LinearSystem, res: LpResult) -> bool:
    """Whether ``res`` is an infeasible verdict whose Farkas vector refutes
    ``relaxation``."""
    return (res.status is LpStatus.INFEASIBLE and res.reduced_costs is not None
            and relaxation.refuted_by(res.reduced_costs[relaxation.n_variables:]))


def _xspace_engine(backend: LpBackend | None) -> bool:
    """Whether models are solved over ``x`` by row generation: on every
    engine but HiGHS, whose per-call overhead outweighs the smaller LPs."""
    return not isinstance(backend, ScipyBackend)


def _row_generation(view: LevelRows, pool: dict[tuple[int, bytes], np.ndarray],
                    config: SolverConfig | None, backend: LpBackend | None,
                    ) -> tuple[np.ndarray | None, LinearSystem, LpResult]:
    """Decide one level over the decision variables alone: the point of
    :func:`_separate`, or ``None`` once a relaxation is infeasible, with the
    last relaxation and its result."""
    relaxation, res = _separate(view, pool, config, backend)
    return (relaxation.extract_x(res.point) if res.is_feasible else None,
            relaxation, res)


def _separate(view: LevelRows, pool: dict[tuple[int, bytes], np.ndarray],
              config: SolverConfig | None,
              backend: LpBackend | None) -> tuple[LinearSystem, LpResult]:
    """Row generation over ``x`` and the view's slacks.

    Solves the relaxation holding the crisp rows and the cuts in ``pool``,
    evaluates each budgeted row's closed-form worst case at its point, and
    adds the top-``protection`` index set of every violated row to ``pool``
    as a mask keyed by row and set (only the coefficients move with the
    level, so the pool serves every level of one solve), until no row is
    violated.  Returns the last relaxation and its result: infeasible, an
    optimum without reduced costs (which cannot prove itself unique), or a
    point that satisfies every row.
    """
    tol = (config or DEFAULT_CONFIG).feasibility_tolerance
    n = view.a_hat.shape[1]
    for _ in range(_MAX_ROUNDS):
        relaxation = view.relaxation(np.array([i for i, _ in pool], dtype=np.intp),
                                     np.reshape(list(pool.values()), (-1, n)))
        res = solve(relaxation, config, backend)
        if not res.is_feasible or (res.status is LpStatus.OPTIMAL
                                   and res.reduced_costs is None):
            return relaxation, res
        x = relaxation.extract_x(res.point)
        slack = view.slack @ res.point[n:]
        violated = False
        for i in np.flatnonzero(view.protection > 0).tolist():
            k, b = int(view.protection[i]), float(view.rhs[i])
            spread = view.widths[i] * x
            lhs = float(np.dot(view.a_hat[i], x)) + top_sum(spread, k) + float(slack[i])
            if lhs <= b + tol * (1.0 + abs(b)):
                continue
            mask = np.zeros(n, dtype=bool)
            mask[np.argpartition(spread, n - k)[n - k:]] = True
            key = (i, mask.tobytes())
            if key in pool:
                raise SolverError("row generation separated a cut it already holds")
            pool[key] = mask
            violated = True
        if not violated:
            return relaxation, res
    raise SolverError(f"row generation did not settle in {_MAX_ROUNDS} rounds")


def _unique_optimum(view: LevelRows, config: SolverConfig | None,
                    backend: LpBackend | None) -> tuple[float, np.ndarray] | None:
    """The optimal value and point of ``view`` by row generation, when the
    last relaxation proves its optimum unique: every nonbasic reduced cost
    is above ``_UNIQUE_MARGIN``.  The relaxation holds the model's feasible
    set and its point satisfies every row, so it is then the model's one
    optimum.  ``None`` when that proof is missing or an LP failed."""
    try:
        relaxation, res = _separate(view, {}, config, backend)
    except SolverError:
        return None
    if res.status is not LpStatus.OPTIMAL or res.reduced_costs is None:
        return None
    if np.delete(res.reduced_costs, res.basis).min(initial=math.inf) <= _UNIQUE_MARGIN:
        return None
    return float(res.value), relaxation.extract_x(res.point)


def solve_nec(instance: UncertainInstance, rho0: float, eps: float = DEFAULT_EPS,
              config: SolverConfig | None = None,
              backend: LpBackend | None = None) -> SolveOutcome:
    """Best certainly-protected solution under a hard budget ``c_hat + rho0``."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0)
    return bisect(_Family(lambda lam: build_nec(instance, lam, goal),
                          lambda lam: nec_rows(instance, lam, goal)),
                  eps, x_hat, c_hat, config, backend)


def solve_soft_nec(instance: UncertainInstance, rho0: float,
                   goal_shape: float = 1.0, include_nominal: bool = False,
                   eps: float = DEFAULT_EPS,
                   config: SolverConfig | None = None,
                   backend: LpBackend | None = None) -> SolveOutcome:
    """Best softly-protected solution under the graded budget and row slacks."""
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    goal = FuzzyGoal(c_hat, rho0, goal_shape)
    return bisect(_Family(lambda lam: build_soft_nec(instance, lam, goal, include_nominal),
                          lambda lam: soft_nec_rows(instance, lam, goal, include_nominal)),
                  eps, x_hat, c_hat, config, backend)


def solve_soft_nec_obj(instance: UncertainInstance, eps: float = DEFAULT_EPS,
                       include_nominal: bool = False,
                       config: SolverConfig | None = None,
                       backend: LpBackend | None = None) -> SolveOutcome:
    """Soft-protection solve when the objective itself is a budgeted fuzzy row."""
    if not isinstance(instance.objective, UncertainObjective):
        raise ValueError("instance does not carry an uncertain objective")
    c_hat, x_hat = nominal_optimum(instance, config, backend)
    return bisect(
        _Family(lambda lam: build_soft_nec_obj(instance, lam, c_hat, include_nominal),
                lambda lam: soft_nec_obj_rows(instance, lam, c_hat, include_nominal)),
        eps, x_hat, c_hat, config, backend)


def _optimum(system: LinearSystem, c_hat: float, config: SolverConfig | None,
             backend: LpBackend | None) -> OptimumOutcome:
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
    c_hat, _ = nominal_optimum(instance, config, backend)
    return _optimum(build_robust(instance, lam), c_hat, config, backend)


def solve_light_robust(instance: UncertainInstance, rho0: float,
                       norm: str = "max",
                       config: SolverConfig | None = None,
                       backend: LpBackend | None = None) -> OptimumOutcome:
    """Minimize the protection-slack norm subject to the cost budget.

    On an x-space engine the model is first solved over ``x`` and its slacks
    by row generation (:func:`light_rows`), and that point is returned when
    the last relaxation proves it the unique optimum.  Otherwise the
    dualized LP of :func:`build_light_robust` is solved.
    """
    _check_light(instance, rho0, norm)
    c_hat, _ = nominal_optimum(instance, config, backend)
    if _xspace_engine(backend):
        found = _unique_optimum(light_rows(instance, c_hat, rho0, norm), config, backend)
        if found is not None:
            return OptimumOutcome(*found, nominal_value=c_hat)
    try:
        return _optimum(build_light_robust(instance, c_hat, rho0, norm), c_hat,
                        config, backend)
    except ModelInfeasible as exc:
        raise AssumptionViolation(
            f"light robust model is {exc.status.value} although the nominal "
            "counterpart was solvable") from None
