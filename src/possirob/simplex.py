"""Dense two-phase simplex solver and pluggable LP backends.

The reference solver is self-contained and deterministic: given the same
system and configuration it performs the same pivots and returns the same
point.  Pricing uses the most-negative reduced cost and switches to Bland's
rule whenever the objective stalls, which prevents cycling on the highly
degenerate systems the model builders produce (many rows with zero right-hand
side).

Any external LP solver can be used instead by implementing the one-method
backend interface; a ``scipy.optimize.linprog`` adapter ships here.  A system
without an objective asks for plain feasibility: the answer is ``FEASIBLE``
with a point, or ``INFEASIBLE``.  Oracle tests that pin exact pivot behaviour
run against the reference backend only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .linsys import LinearSystem, scaled_violation

__all__ = [
    "LpStatus",
    "LpResult",
    "SolverConfig",
    "SolverError",
    "LpBackend",
    "SimplexBackend",
    "ScipyBackend",
    "solve",
]


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LpResult:
    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status in (LpStatus.OPTIMAL, LpStatus.FEASIBLE)


@dataclass(frozen=True)
class SolverConfig:
    """Numeric knobs for the LP engine.

    ``feasibility_tolerance`` is absolute on constraint residuals;
    ``max_iterations`` caps the reference solver's pivots per LP.
    """

    feasibility_tolerance: float = 1e-9
    max_iterations: int = 50_000

    def __post_init__(self) -> None:
        if self.feasibility_tolerance <= 0:
            raise ValueError("feasibility tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("iteration budget must be at least 1")


DEFAULT_CONFIG = SolverConfig()


class SolverError(RuntimeError):
    """The LP engine stopped without a conclusive status, e.g. when the pivot
    budget ran out."""


class LpBackend(Protocol):
    def solve(self, system: LinearSystem, config: SolverConfig) -> LpResult: ...


# -- reference implementation -----------------------------------------


# Consecutive non-improving pivots tolerated before switching to Bland pricing.
_STALL_LIMIT = 64
# Smallest pivot element the ratio test may select.  Dividing a row by a
# near-tolerance element multiplies round-off by its reciprocal, so this sits
# far above the feasibility tolerance.
_PIVOT_TOL = 1e-7


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    t[row] /= t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    t -= np.outer(column, t[row])
    # Force the pivot column to an exact unit vector to stop round-off creep.
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _iterate(t: np.ndarray, basis: np.ndarray, tol: float,
             budget: int, used: int) -> tuple[str, int]:
    """Run simplex pivots on tableau ``t`` until optimal or unbounded."""
    m = t.shape[0] - 1
    bland = False
    stall = 0
    last = t[-1, -1]
    while True:
        reduced = t[-1, :-1]
        if bland:
            candidates = np.flatnonzero(reduced < -tol)
            if candidates.size == 0:
                return "optimal", used
            col = int(candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return "optimal", used
        column = t[:m, col]
        eligible = column > _PIVOT_TOL
        if not eligible.any():
            return "unbounded", used
        ratios = np.full(m, np.inf)
        # Round-off can leave basic values slightly below zero; clamped, such
        # a row ties at ratio 0 instead of winning with a negative ratio.
        ratios[eligible] = np.maximum(t[:m, -1][eligible], 0.0) / column[eligible]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        if ties.size > 1:
            if bland:
                # Smallest leaving variable index: the anti-cycling choice.
                row = int(ties[np.argmin(basis[ties])])
            else:
                # Largest pivot element among the near-ties for stability;
                # remaining ties resolve to the smallest variable index.
                pivots = column[ties]
                largest = pivots.max()
                stable = ties[pivots >= largest * (1.0 - 1e-9)]
                row = int(stable[np.argmin(basis[stable])])
        else:
            row = int(ties[0])
        _pivot(t, basis, row, col)
        used += 1
        if used >= budget:
            raise SolverError(f"simplex exceeded the {budget}-pivot budget")
        current = t[-1, -1]
        if current > last + 1e-12 * (1.0 + abs(last)):
            stall = 0
        else:
            stall += 1
            # Once degeneracy forces Bland pricing, keep it for the rest of
            # the phase; alternating rules can loop.
            if stall >= _STALL_LIMIT:
                bland = True
        last = current


class SimplexBackend:
    """Reference dense two-phase simplex over the tableau."""

    # The tableau holds [structural | slack | artificial | rhs] columns and
    # one objective row at the bottom.
    def solve(self, system: LinearSystem, config: SolverConfig = DEFAULT_CONFIG) -> LpResult:
        tol = config.feasibility_tolerance
        k = system.n_variables
        lo, hi = system.bounds()

        a0, b0 = system.dense()
        bounded = np.isfinite(hi)
        a = np.vstack([a0, np.eye(k)[bounded]])
        b = np.concatenate([b0 - a0 @ lo, (hi - lo)[bounded]])
        m = a.shape[0]

        work = np.hstack([a, np.eye(m)])
        flipped = b < 0
        work[flipped] *= -1.0
        b = np.abs(b)
        art_rows = np.flatnonzero(flipped)
        n_art = art_rows.size
        base = k + m

        t = np.zeros((m + 1, base + n_art + 1))
        t[:m, :base] = work
        t[:m, -1] = b
        basis = np.arange(k, base)
        basis[art_rows] = np.arange(base, base + n_art)
        t[art_rows, basis[art_rows]] = 1.0

        used = 0
        if n_art:
            t[-1, base:-1] = 1.0
            for i in art_rows:
                t[-1] -= t[i]
            status, used = _iterate(t, basis, tol, config.max_iterations, used)
            if status != "optimal":  # phase one is always bounded below by zero
                raise SolverError("phase one terminated abnormally")
            if -t[-1, -1] > 10.0 * tol * (1.0 + float(b.max(initial=0.0))):
                return LpResult(LpStatus.INFEASIBLE)
            used = self._drive_out(t, basis, base, used, config.max_iterations)
        # Rows whose artificial could not be driven out are redundant.
        keep = basis < base
        rows = np.append(keep, True)
        t = np.hstack([t[rows, :base], t[rows, -1:]])
        work, b, basis = work[keep], b[keep], basis[keep]
        point = self._point(work, b, basis, k, lo)
        if scaled_violation(point, a0, b0, lo, hi) > 10.0 * tol:
            return LpResult(LpStatus.INFEASIBLE)

        if system.objective is None:
            return LpResult(LpStatus.FEASIBLE, point=point)

        c = np.zeros(t.shape[1])
        c[:k] = system.objective_vector()
        t[-1] = c
        for i in range(t.shape[0] - 1):
            coeff = t[-1, basis[i]]
            if coeff != 0.0:
                t[-1] -= coeff * t[i]
        status, used = _iterate(t, basis, tol, config.max_iterations, used)
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED)
        point = self._point(work, b, basis, k, lo)
        return LpResult(LpStatus.OPTIMAL, value=system.objective_value(point), point=point)

    @staticmethod
    def _drive_out(t: np.ndarray, basis: np.ndarray, base: int,
                   used: int, budget: int) -> int:
        """Pivot zero-level artificial variables out of the basis when possible."""
        for i in np.flatnonzero(basis >= base):
            # Prefer the largest element; the swap is degenerate anyway.
            col = int(np.argmax(np.abs(t[i, :base])))
            if abs(t[i, col]) > _PIVOT_TOL:
                _pivot(t, basis, i, col)
                used += 1
                if used >= budget:
                    raise SolverError(f"simplex exceeded the {budget}-pivot budget")
        return used

    @staticmethod
    def _point(work: np.ndarray, b: np.ndarray, basis: np.ndarray, k: int,
               lo: np.ndarray) -> np.ndarray:
        """The basic solution of ``basis``, solved from the original rows.

        The tableau's right-hand column drifts by round-off over long pivot
        runs; one solve with the basis columns does not carry that drift.
        """
        full = np.zeros(work.shape[1])
        full[basis] = np.maximum(np.linalg.solve(work[:, basis], b), 0.0)
        return full[:k] + lo


# -- scipy adapter -----------------------------------------------------


class ScipyBackend:
    """Adapter over ``scipy.optimize.linprog`` (HiGHS)."""

    def __init__(self) -> None:
        from scipy.optimize import linprog

        self._linprog = linprog

    def solve(self, system: LinearSystem, config: SolverConfig = DEFAULT_CONFIG) -> LpResult:
        c = system.objective_vector()
        a, b = system.dense()
        problem = {"A_ub": a if a.size else None, "b_ub": b if a.size else None,
                   "bounds": np.column_stack(system.bounds())}
        res = self._linprog(c, **problem, method="highs")
        if res.status == 4:
            # HiGHS can end with model status Unknown on a probe right at a
            # feasibility threshold; its interior-point method settles those.
            res = self._linprog(c, **problem, method="highs-ipm")
        if res.status == 2:
            return LpResult(LpStatus.INFEASIBLE)
        if res.status == 3:
            return LpResult(LpStatus.UNBOUNDED)
        if res.status != 0:
            raise SolverError(f"linprog failed: {res.message}")
        point = np.asarray(res.x)
        if system.objective is None:
            return LpResult(LpStatus.FEASIBLE, point=point)
        return LpResult(LpStatus.OPTIMAL, value=system.objective_value(point), point=point)


_DEFAULT_BACKEND = SimplexBackend()


def solve(system: LinearSystem, config: SolverConfig | None = None,
          backend: LpBackend | None = None) -> LpResult:
    """Minimize the system objective; plain feasibility when none is set."""
    return (backend or _DEFAULT_BACKEND).solve(system, config or DEFAULT_CONFIG)
