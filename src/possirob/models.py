"""Uncertain problem data and the crisp systems derived from it.

An :class:`UncertainInstance` couples fuzzy-interval constraint rows with a
feasible set and a cost vector (crisp or itself fuzzy).  For a fixed
confidence level each model is first written as its :class:`LevelRows`:

* the level parameterizes how far coefficients may stray from their nominal
  values (wide cuts at level 0, nominal data at level 1), and on the relaxed
  variants how much right-hand-side and budget slack is granted;
* every builder turns those rows into a plain linear system by replacing
  each budgeted worst case with its dual block, one scalar dual per row plus
  one per coefficient, which is exact for nonnegative decisions by strong
  duality; the light robust model's slacks go along as extra columns;
* the same rows also give relaxations over the decision variables alone
  (and the slacks), holding some of each budgeted row's worst-case cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .fuzzy import FuzzyGoal, SoftBound, _check_level
from .linsys import LinearSystem

__all__ = [
    "UncertainRow",
    "UncertainObjective",
    "Box",
    "Polyhedron",
    "FeasibleSet",
    "UncertainInstance",
    "top_sum",
    "worst_case_lhs",
    "dualize_budgeted_row",
    "LevelRows",
    "nec_rows",
    "soft_nec_rows",
    "soft_nec_obj_rows",
    "light_rows",
    "build_nominal",
    "build_robust",
    "build_light_robust",
    "build_nec",
    "build_soft_nec",
    "build_soft_nec_obj",
]


@dataclass(frozen=True)
class _FuzzyRow:
    """Budgeted row of symmetric fuzzy intervals ``a_hat[j] +- a_bar[j]``.

    Coefficient ``j`` has shape ``shape[j]``, so its level-``lam`` cut has
    half-width ``a_bar[j] * (1 - lam ** shape[j])``; at most ``protection``
    coefficients deviate at once.
    """

    a_hat: tuple[float, ...]
    a_bar: tuple[float, ...]
    shape: tuple[float, ...]
    protection: int

    def __post_init__(self) -> None:
        for name in ("a_hat", "a_bar", "shape"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if not len(self.a_hat) == len(self.a_bar) == len(self.shape):
            raise ValueError("nominal, deviation and shape vectors differ in length")
        if not all(map(math.isfinite, self.a_hat + self.a_bar + self.shape)):
            raise ValueError("fuzzy interval parameters must be finite")
        if any(d < 0 for d in self.a_bar):
            raise ValueError(f"deviation must be nonnegative, got {min(self.a_bar)}")
        if any(z <= 0 for z in self.shape):
            raise ValueError(f"shape must be positive, got {min(self.shape)}")
        # Fractional budgets would still dualize correctly but are not part
        # of the model; reject them up front.
        p = self.protection
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise ValueError(f"protection level must be an integer, got {p!r}")
        if not 0 <= p <= self.n:
            raise ValueError(f"protection level {p} outside [0, {self.n}]")
        object.__setattr__(self, "protection", int(p))

    @property
    def n(self) -> int:
        return len(self.a_hat)

    def nominal(self) -> np.ndarray:
        return np.array(self.a_hat)

    def half_widths(self, lam: float) -> np.ndarray:
        """Cut half-widths at level ``lam``, one per coefficient."""
        _check_level(lam)
        # One Python float power per distinct shape: numpy's vectorized power
        # can differ from it in the last ulp.
        scale = {z: 1.0 - lam ** z for z in set(self.shape)}
        return np.array(self.a_bar) * np.array([scale[z] for z in self.shape])


@dataclass(frozen=True)
class UncertainRow(_FuzzyRow):
    """One budgeted fuzzy constraint: coefficients, protection level, soft bound."""

    rhs: SoftBound

    @classmethod
    def from_arrays(cls, a_hat: Sequence[float], a_bar: Sequence[float],
                    b: float, protection: int, b_bar: float = 0.0,
                    shape: float = 1.0) -> "UncertainRow":
        return cls(a_hat, a_bar, (float(shape),) * len(a_hat), protection,
                   SoftBound(float(b), float(b_bar), shape))


@dataclass(frozen=True)
class UncertainObjective(_FuzzyRow):
    """Fuzzy cost vector with its own protection budget, violation slack and goal."""

    slack: SoftBound = SoftBound(0.0)
    goal: FuzzyGoal = FuzzyGoal(None, 0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slack.base != 0.0:
            raise ValueError("objective slack must be anchored at zero")

    @classmethod
    def from_arrays(cls, c_hat: Sequence[float], c_bar: Sequence[float],
                    protection: int, slack_bar: float = 0.0,
                    goal: FuzzyGoal | None = None,
                    shape: float = 1.0) -> "UncertainObjective":
        return cls(c_hat, c_bar, (float(shape),) * len(c_hat), protection,
                   SoftBound(0.0, float(slack_bar), shape),
                   goal if goal is not None else FuzzyGoal(None, 0.0, shape))

    def budget(self, c_hat: float, lam: float) -> float:
        """Largest acceptable worst-case cost at level ``lam`` when the goal
        is anchored at the nominal optimum ``c_hat``."""
        return c_hat + self.goal.relaxation(1.0 - lam) + self.slack.relaxed_rhs(1.0 - lam)


@dataclass(frozen=True)
class Box:
    """Axis-aligned feasible box with nonnegative lower corner."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("box corners differ in length")
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not 0.0 <= lo <= hi < math.inf:
                raise ValueError(f"box bounds at index {j} break 0 <= lower <= upper "
                                 f"< inf: [{lo}, {hi}]")

    @classmethod
    def unit(cls, n: int) -> "Box":
        return cls((0.0,) * n, (1.0,) * n)

    @property
    def n(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Polyhedron:
    """Feasible set ``{x >= 0 : rows @ x <= rhs}``; boundedness is the caller's duty."""

    n: int
    rows: tuple[tuple[float, ...], ...] = ()
    rhs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", tuple(float(v) for v in self.rhs))
        if len(rows) != len(self.rhs):
            raise ValueError("polyhedron rows and right-hand sides differ in length")
        for i, row in enumerate(rows):
            if len(row) != self.n:
                raise ValueError(f"polyhedron row {i} has length {len(row)}, expected {self.n}")
        if not (np.isfinite(np.reshape(rows, -1)).all() and np.isfinite(self.rhs).all()):
            raise ValueError("polyhedron entries must be finite")


FeasibleSet = Union[Box, Polyhedron]


@dataclass(frozen=True)
class UncertainInstance:
    """Full uncertain program: objective, budgeted fuzzy rows, feasible set."""

    objective: tuple[float, ...] | UncertainObjective
    rows: tuple[UncertainRow, ...]
    feasible_set: FeasibleSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if not isinstance(self.objective, UncertainObjective):
            object.__setattr__(self, "objective",
                               tuple(float(v) for v in self.objective))
            if not all(map(math.isfinite, self.objective)):
                raise ValueError("objective coefficients must be finite")
        n = self.feasible_set.n
        if len(self.cost_nominal()) != n:
            raise ValueError("objective length does not match the feasible set")
        for i, row in enumerate(self.rows):
            if row.n != n:
                raise ValueError(f"row {i} has {row.n} coefficients, expected {n}")

    @property
    def n(self) -> int:
        return self.feasible_set.n

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def has_uncertain_objective(self) -> bool:
        return isinstance(self.objective, UncertainObjective)

    def cost_nominal(self) -> np.ndarray:
        if isinstance(self.objective, UncertainObjective):
            return self.objective.nominal()
        return np.array(self.objective, dtype=float)


# -- direct worst-case evaluation --------------------------------------


def top_sum(values: np.ndarray, k: int) -> float:
    """Exact sum of the ``k`` largest entries (all of them when ``k`` exceeds the size)."""
    v = np.asarray(values, dtype=float)
    if k <= 0 or v.size == 0:
        return 0.0
    if k >= v.size:
        return math.fsum(v)
    idx = np.argpartition(v, v.size - k)[v.size - k:]
    idx.sort()
    return math.fsum(v[idx])


def worst_case_lhs(row: UncertainRow | UncertainObjective, x: Sequence[float],
                   lam: float) -> float:
    """Largest left-hand side of ``row`` over level-``lam`` scenarios with at
    most ``protection`` deviating coefficients, for nonnegative ``x``.

    On a cost row this is the worst-case cost of ``x``."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (row.n,):
        raise ValueError(f"x has shape {xv.shape}, expected ({row.n},)")
    base = float(np.dot(row.nominal(), xv))
    return base + top_sum(row.half_widths(lam) * xv, row.protection)


# -- dualized blocks ----------------------------------------------------


def dualize_budgeted_row(system: LinearSystem, row: UncertainRow | UncertainObjective,
                         lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Emit the dual variables bounding one budgeted worst case at level ``lam``.

    Adds one scalar dual plus one per coefficient with a positive cut width,
    together with the coupling constraints, and returns the protected row's
    ``(columns, values)``.  The caller attaches whichever right-hand side its
    model requires, so a single dualization serves every variant.
    """
    _check_level(lam)
    x = np.asarray(x, dtype=np.intp)
    if x.shape != (row.n,):
        raise ValueError("decision block does not match the row dimension")
    return _dual_block(system, x, row.nominal(), row.half_widths(lam), row.protection)


def _dual_block(system: LinearSystem, x: np.ndarray, a_hat: np.ndarray,
                widths: np.ndarray, protection: int) -> tuple[np.ndarray, np.ndarray]:
    if protection == 0:
        return x, a_hat
    cut = np.flatnonzero(widths > 0.0)
    w = system.add_variables(1)
    p = system.add_variables(cut.size)
    # Coupling row k: widths[j] x[j] - w - p[k] <= 0 for the k-th cut index j.
    system.add_leq(np.column_stack([x[cut], np.repeat(w, cut.size), p]),
                   np.column_stack([widths[cut], -np.ones((cut.size, 2))]),
                   np.zeros(cut.size))
    return (np.concatenate([x, w, p]),
            np.concatenate([a_hat, [protection], np.ones(cut.size)]))


def _decision_system(feasible_set: FeasibleSet) -> tuple[LinearSystem, np.ndarray]:
    """A new system holding the decision block and the feasible set's rows."""
    system = LinearSystem()
    fs = feasible_set
    if isinstance(fs, Box):
        x = system.add_variables(fs.n, fs.lower, fs.upper)
    else:
        x = system.add_variables(fs.n)
        system.add_leq(x, np.reshape(fs.rows, (-1, fs.n)), fs.rhs)
    system.x_indices = x
    return system, x


# -- per-level rows ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelRows:
    """One model's rows at a fixed level, before any dualization.

    Row ``i`` reads ``a_hat[i] @ x + top_sum(widths[i] * x, protection[i])
    + slack[i] @ s <= rhs[i]`` over ``x`` in ``feasible_set``; a row with
    protection 0 is crisp.  Rows are kept in the order the model's system
    emits them.  ``s`` are nonnegative slack variables, one per column of
    ``slack``: a model with any minimizes their sum, and one without is a
    feasibility model.
    """

    feasible_set: FeasibleSet
    a_hat: np.ndarray
    widths: np.ndarray
    protection: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.slack is None:
            object.__setattr__(self, "slack", np.zeros((self.rhs.size, 0)))

    def _system(self) -> tuple[LinearSystem, np.ndarray, np.ndarray]:
        """A new system holding the decision block, the feasible set's rows and
        the slack columns after them, minimizing the slack sum if there are any."""
        system, x = _decision_system(self.feasible_set)
        s = system.add_variables(self.slack.shape[1])
        if s.size:
            system.set_objective(s, np.ones(s.size))
        return system, x, s

    def dualized(self) -> LinearSystem:
        """The model's linear system: each budgeted worst case is replaced by
        its dual block (exact for nonnegative decisions)."""
        system, x, s = self._system()
        for a, w, k, g, b in zip(self.a_hat, self.widths, self.protection.tolist(),
                                 self.slack, self.rhs.tolist()):
            cols, vals = _dual_block(system, x, a, w, k)
            system.add_leq(np.concatenate([cols, s]), np.concatenate([vals, g]), b)
        return system

    def relaxation(self, rows: np.ndarray, cuts: np.ndarray) -> LinearSystem:
        """A system over the decision block and the slacks alone: the
        feasible set, the crisp rows, and for each ``k`` budgeted row
        ``rows[k]`` with the coefficients picked by the boolean mask
        ``cuts[k]`` at their worst.

        Every cut is implied by its row, so an infeasible relaxation proves
        the level infeasible, and a relaxation optimum bounds the model's
        from below.  The crisp and cut rows are divided by their largest
        absolute coefficient: on generated instances their coefficients reach
        100 against the bound rows' 1, and unscaled they can stall the
        reference simplex or end its phase one at a false verdict.
        """
        crisp = np.flatnonzero(self.protection == 0)
        a = np.vstack([self.a_hat[crisp], self.a_hat[rows] + self.widths[rows] * cuts])
        a = np.hstack([a, self.slack[np.concatenate([crisp, rows])]])
        b = np.concatenate([self.rhs[crisp], self.rhs[rows]])
        scale = np.abs(a).max(axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        system, x, s = self._system()
        system.add_leq(np.concatenate([x, s]), a / scale[:, None], b / scale)
        return system


# One row of a ``LevelRows``: nominal coefficients, cut half-widths,
# protection, right-hand side.
_Row = tuple[np.ndarray, np.ndarray, int, float]


def _level_rows(instance: UncertainInstance, rows: list[_Row]) -> LevelRows:
    n = instance.n
    a_hat, widths, protection, rhs = zip(*rows) if rows else ((), (), (), ())
    return LevelRows(instance.feasible_set, np.reshape(a_hat, (-1, n)),
                     np.reshape(widths, (-1, n)), np.array(protection, dtype=np.intp),
                     np.array(rhs, dtype=float))


def _budgeted(rows: Sequence[UncertainRow | UncertainObjective], lam: float,
              rhs: Sequence[float]) -> list[_Row]:
    return [(row.nominal(), row.half_widths(lam), row.protection, b)
            for row, b in zip(rows, rhs)]


def _protected(instance: UncertainInstance, lam: float, soft: bool = False) -> list[_Row]:
    # Soft rows are granted their graded slack at level ``1 - lam``.
    return _budgeted(instance.rows, lam,
                     [row.rhs.relaxed_rhs(1.0 - lam) if soft else row.rhs.base
                      for row in instance.rows])


def _crisp(a: np.ndarray, b: float) -> _Row:
    return (np.asarray(a, dtype=float), np.zeros(len(a)), 0, b)


def _nominal(instance: UncertainInstance) -> list[_Row]:
    return [_crisp(row.nominal(), row.rhs.base) for row in instance.rows]


def _require_crisp_objective(instance: UncertainInstance, what: str) -> None:
    if instance.has_uncertain_objective:
        raise ValueError(f"{what} requires a crisp objective vector")


def nec_rows(instance: UncertainInstance, lam: float, goal: FuzzyGoal) -> LevelRows:
    """Strict protection at level ``lam`` under a hard cost budget
    ``goal.nominal_optimum + goal.tolerance``."""
    _require_crisp_objective(instance, "the strict necessity model")
    if goal.nominal_optimum is None:
        raise ValueError("goal anchor is unset; solve the nominal problem first")
    return _level_rows(instance, _protected(instance, lam) + [
        _crisp(instance.cost_nominal(), goal.nominal_optimum + goal.tolerance)])


def soft_nec_rows(instance: UncertainInstance, lam: float, goal: FuzzyGoal,
                  include_nominal: bool = False) -> LevelRows:
    """Soft protection at level ``lam``.

    Right-hand sides and the cost budget are granted their graded slack at
    level ``1 - lam``, so lower levels (stronger protection) come with tighter
    budgets.  ``include_nominal`` additionally pins nominal feasibility.
    """
    _require_crisp_objective(instance, "the soft necessity model")
    _check_level(lam)
    rows = _protected(instance, lam, soft=True)
    rows.append(_crisp(instance.cost_nominal(), goal.rhs_at(1.0 - lam)))
    return _level_rows(instance, rows + (_nominal(instance) if include_nominal else []))


def soft_nec_obj_rows(instance: UncertainInstance, lam: float, c_hat: float,
                      include_nominal: bool = False) -> LevelRows:
    """Soft protection at level ``lam`` with a budgeted fuzzy objective.

    The objective is one more budgeted row, placed first, whose bound is the
    goal value plus its own violation slack; with a crisp cost vector and no
    slack this collapses back to the plain soft model's cost row.
    """
    obj = instance.objective
    if not isinstance(obj, UncertainObjective):
        raise ValueError("instance does not carry an uncertain objective")
    _check_level(lam)
    rows = _budgeted([obj], lam, [obj.budget(c_hat, lam)])
    rows += _protected(instance, lam, soft=True)
    return _level_rows(instance, rows + (_nominal(instance) if include_nominal else []))


# -- model builders ------------------------------------------------------


def build_nominal(instance: UncertainInstance) -> LinearSystem:
    """Deterministic counterpart under nominal data: min c.x, Ahat x <= b, x in X."""
    system = _level_rows(instance, _nominal(instance)).dualized()
    system.set_objective(system.x_indices, instance.cost_nominal())
    return system


def build_robust(instance: UncertainInstance, lam: float = 0.0) -> LinearSystem:
    """Budget-protected counterpart at level ``lam`` (full supports at 0)."""
    _require_crisp_objective(instance, "the robust model")
    system = _level_rows(instance, _protected(instance, lam)).dualized()
    system.set_objective(system.x_indices, instance.cost_nominal())
    return system


def light_rows(instance: UncertainInstance, c_hat: float, rho0: float,
               norm: str = "max") -> LevelRows:
    """Slack-minimizing counterpart: stay nominal-feasible, pay at most
    ``c_hat + rho0``, and minimize the norm of the per-row protection slack.

    Each budgeted row at level 0 less its slack, directly followed by its
    nominal row, then the cost budget.  ``norm`` picks the minimized
    aggregate: ``"max"`` gives every budgeted row one shared slack ``t``,
    ``"sum"`` one ``g_i`` per row.  Feasible for any budget whenever the
    nominal problem is.
    """
    _check_light(instance, rho0, norm)
    m = instance.m
    rows = [r for pair in zip(_protected(instance, 0.0), _nominal(instance)) for r in pair]
    rows.append(_crisp(instance.cost_nominal(), c_hat + rho0))
    slack = np.zeros((len(rows), 1 if norm == "max" else m))
    slack[np.arange(0, 2 * m, 2), 0 if norm == "max" else np.arange(m)] = -1.0
    return replace(_level_rows(instance, rows), slack=slack)


def build_light_robust(instance: UncertainInstance, c_hat: float, rho0: float,
                       norm: str = "max") -> LinearSystem:
    """Slack-minimizing system of :func:`light_rows`."""
    return light_rows(instance, c_hat, rho0, norm).dualized()


def _check_light(instance: UncertainInstance, rho0: float, norm: str) -> None:
    if norm not in ("max", "sum"):
        raise ValueError(f"norm must be 'max' or 'sum', got {norm!r}")
    if not (math.isfinite(rho0) and rho0 >= 0):
        raise ValueError(f"cost tolerance must be finite and nonnegative, got {rho0!r}")
    _require_crisp_objective(instance, "the light robust model")


def build_nec(instance: UncertainInstance, lam: float, goal: FuzzyGoal) -> LinearSystem:
    """Feasibility system of :func:`nec_rows`."""
    return nec_rows(instance, lam, goal).dualized()


def build_soft_nec(instance: UncertainInstance, lam: float, goal: FuzzyGoal,
                   include_nominal: bool = False) -> LinearSystem:
    """Feasibility system of :func:`soft_nec_rows`."""
    return soft_nec_rows(instance, lam, goal, include_nominal).dualized()


def build_soft_nec_obj(instance: UncertainInstance, lam: float, c_hat: float,
                       include_nominal: bool = False) -> LinearSystem:
    """Feasibility system of :func:`soft_nec_obj_rows`."""
    return soft_nec_obj_rows(instance, lam, c_hat, include_nominal).dualized()
