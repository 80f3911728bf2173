"""Dense two-phase simplex solver and pluggable LP backends.

The reference solver is self-contained and deterministic: given the same
system and configuration it performs the same pivots and returns the same
point.  Pricing uses the most-negative reduced cost and switches to Bland's
rule whenever the objective stalls, which prevents cycling on the highly
degenerate systems the model builders produce (many rows with zero right-hand
side).  Exact pricing ties go to the smallest variable index.

The tableau is condensed (the dictionary form of Chvátal, *Linear
Programming*, 1983): it keeps one column per nonbasic variable and none for
the basic ones, which are unit vectors.  A pivot puts the leaving variable
in the entering variable's column, with the arithmetic of the full tableau,
so every stored entry has the value the full tableau gives it (a zero may
differ in sign).

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
    """An LP's status, optimal value and point.

    A reference optimum also carries its final basis: ``reduced_costs`` over
    the structural and slack variables (basic ones read 0) and the indices
    of the ``basis`` variables.  An ``INFEASIBLE`` from the reference
    phase one carries that phase's reduced costs and basis: their slack
    entries ``[k:k+m]`` (``k`` variables) are a Farkas vector y over the
    system's rows, then one row per finite upper bound, in tableau order
    (see :meth:`LinearSystem.refuted_by`).  Other engines, and an
    ``INFEASIBLE`` found by re-checking the phase-one point, leave both unset.
    ``pivots`` counts a reference result's pivots over both phases; other
    engines leave it unset.
    """

    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    basis: np.ndarray | None = None
    pivots: int | None = None

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


def _pivot(t: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
           row: int, slot: int) -> None:
    """Exchange ``nonbasic[slot]`` with ``basis[row]``: the leaving variable
    takes the entering column's slot, whose column becomes its own."""
    p = t[row, slot]
    column = t[:, slot].copy()
    column[row] = 0.0
    t[row] /= p
    # The leaving variable's column was the unit vector of ``row``.
    t[:, slot] = 0.0
    t[row, slot] = 1.0 / p
    t -= np.outer(column, t[row])
    basis[row], nonbasic[slot] = nonbasic[slot], basis[row]


def _iterate(t: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, tol: float,
             budget: int, used: int) -> tuple[str, int]:
    """Run simplex pivots on tableau ``t`` until optimal or unbounded."""
    m = t.shape[0] - 1
    bland = False
    stall = 0
    last = t[-1, -1]
    while True:
        reduced = t[-1, :-1]
        best = reduced.min(initial=0.0)
        if best >= -tol:
            return "optimal", used
        # The most negative reduced cost, or Bland's first one below -tol;
        # the slots are in no order, so ties go to the smallest variable index.
        candidates = np.flatnonzero(reduced < -tol if bland else reduced == best)
        col = int(candidates[0] if candidates.size == 1
                  else candidates[np.argmin(nonbasic[candidates])])
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
        _pivot(t, basis, nonbasic, row, col)
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


def _costs(t: np.ndarray, nonbasic: np.ndarray, size: int) -> np.ndarray:
    """The objective row over variables ``0..size-1``, 0 on the basic ones."""
    full = np.zeros(size)
    slots = nonbasic < size
    full[nonbasic[slots]] = t[-1, :-1][slots]
    return full


class SimplexBackend:
    """Reference dense two-phase simplex over the condensed tableau."""

    # Variables are numbered [structural | slack | artificial].  The tableau
    # holds one column per nonbasic variable, ``nonbasic[j]`` in column j,
    # then the rhs column, and one objective row at the bottom; the basic
    # columns, unit vectors, are not stored.
    def solve(self, system: LinearSystem, config: SolverConfig = DEFAULT_CONFIG) -> LpResult:
        tol = config.feasibility_tolerance
        k = system.n_variables
        lo, hi = system.bounds()

        a0, b0 = system.dense()
        bounded = np.isfinite(hi)
        a = np.vstack([a0, np.eye(k)[bounded]])
        b = np.concatenate([b0 - a0 @ lo, (hi - lo)[bounded]])
        m = a.shape[0]

        flipped = b < 0
        b = np.abs(b)
        art_rows = np.flatnonzero(flipped)
        n_art = art_rows.size
        base = k + m

        # A flipped row's artificial is basic and its slack nonbasic.
        t = np.zeros((m + 1, k + n_art + 1))
        t[:m, :k] = a
        t[art_rows, k + np.arange(n_art)] = 1.0
        t[art_rows, :-1] *= -1.0
        t[:m, -1] = b
        nonbasic = np.concatenate([np.arange(k), k + art_rows])
        basis = np.arange(k, base)
        basis[art_rows] = np.arange(base, base + n_art)

        used = 0
        if n_art:
            for i in art_rows:
                t[-1] -= t[i]
            status, used = _iterate(t, basis, nonbasic, tol, config.max_iterations, used)
            if status != "optimal":  # phase one is always bounded below by zero
                raise SolverError("phase one terminated abnormally")
            if -t[-1, -1] > 10.0 * tol * (1.0 + float(b.max(initial=0.0))):
                return LpResult(LpStatus.INFEASIBLE, reduced_costs=_costs(t, nonbasic, base),
                                basis=basis, pivots=used)
            used = self._drive_out(t, basis, nonbasic, base, used, config.max_iterations)
        # Rows whose artificial could not be driven out are redundant.
        keep = basis < base
        slots = nonbasic < base
        t = t[np.ix_(np.append(keep, True), np.append(slots, True))]
        a, flipped, b = a[keep], flipped[keep], b[keep]
        basis, nonbasic = basis[keep], nonbasic[slots]
        point = self._point(a, flipped, b, basis, lo)
        if scaled_violation(point, a0, b0, lo, hi) > 10.0 * tol:
            return LpResult(LpStatus.INFEASIBLE, pivots=used)

        if system.objective is None:
            return LpResult(LpStatus.FEASIBLE, point=point, pivots=used)

        c = np.zeros(base)
        c[:k] = system.objective_vector()
        t[-1, :-1] = c[nonbasic]
        t[-1, -1] = 0.0
        for i in np.flatnonzero(c[basis]):
            t[-1] -= c[basis[i]] * t[i]
        status, used = _iterate(t, basis, nonbasic, tol, config.max_iterations, used)
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, pivots=used)
        point = self._point(a, flipped, b, basis, lo)
        return LpResult(LpStatus.OPTIMAL, value=system.objective_value(point), point=point,
                        reduced_costs=_costs(t, nonbasic, base), basis=basis, pivots=used)

    @staticmethod
    def _drive_out(t: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, base: int,
                   used: int, budget: int) -> int:
        """Pivot zero-level artificial variables out of the basis when possible."""
        for i in np.flatnonzero(basis >= base):
            # Prefer the largest element, then the smallest variable index;
            # the swap is degenerate anyway.
            size = np.where(nonbasic < base, np.abs(t[i, :-1]), 0.0)
            largest = size.max(initial=0.0)
            if largest > _PIVOT_TOL:
                ties = np.flatnonzero(size == largest)
                _pivot(t, basis, nonbasic, i, int(ties[np.argmin(nonbasic[ties])]))
                used += 1
                if used >= budget:
                    raise SolverError(f"simplex exceeded the {budget}-pivot budget")
        return used

    @staticmethod
    def _point(a: np.ndarray, flipped: np.ndarray, b: np.ndarray, basis: np.ndarray,
               lo: np.ndarray) -> np.ndarray:
        """The basic solution of ``basis``, solved from the original rows.

        The tableau's right-hand column drifts by round-off over long pivot
        runs; one solve with the basis columns does not carry that drift.
        """
        k = lo.size
        structural = basis < k
        columns = np.zeros((b.size, basis.size))
        columns[:, structural] = a[:, basis[structural]]
        slack = np.flatnonzero(~structural)
        columns[basis[slack] - k, slack] = 1.0
        columns[flipped] *= -1.0
        x = np.zeros(k)
        x[basis[structural]] = np.maximum(np.linalg.solve(columns, b), 0.0)[structural]
        return x + lo


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
