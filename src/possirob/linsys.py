"""Crisp linear systems produced by the model builders.

A :class:`LinearSystem` collects named nonnegative (or box-bounded) variables,
``<=`` constraints, and an optional linear objective to minimize.  Builders
append blocks of dual and slack variables next to the decision block; the
decision indices are recorded so solution vectors can be projected back.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

__all__ = ["LinearSystem"]

_INF = math.inf


class LinearSystem:
    """Mutable container for one ``min c.v  s.t.  A v <= b, lb <= v <= ub``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.rows: list[tuple[dict[int, float], float]] = []
        self.objective: dict[int, float] | None = None
        # Indices of the decision block; everything else is auxiliary.
        self.x_indices: list[int] = []

    # -- construction --------------------------------------------------

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None) -> int:
        """Declare a variable and return its index.  ``ub=None`` means unbounded."""
        if not math.isfinite(lb):
            raise ValueError(f"variable {name!r} needs a finite lower bound")
        hi = _INF if ub is None else float(ub)
        if hi < lb:
            raise ValueError(f"variable {name!r} has empty bounds [{lb}, {hi}]")
        self.names.append(name)
        self.lower.append(float(lb))
        self.upper.append(hi)
        return len(self.names) - 1

    def add_leq(self, coeffs: Mapping[int, float], rhs: float) -> None:
        """Append the constraint ``sum(coeffs[j] * v_j) <= rhs``."""
        n = len(self.names)
        row = {}
        for j, a in coeffs.items():
            if not 0 <= j < n:
                raise ValueError(f"constraint references undeclared variable index {j}")
            if a != 0.0:
                row[int(j)] = float(a)
        self.rows.append((row, float(rhs)))

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        n = len(self.names)
        for j in coeffs:
            if not 0 <= j < n:
                raise ValueError(f"objective references undeclared variable index {j}")
        self.objective = {int(j): float(a) for j, a in coeffs.items() if a != 0.0}

    # -- inspection ----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.names)

    @property
    def n_constraints(self) -> int:
        return len(self.rows)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Constraint matrix and right-hand side as dense arrays."""
        m, k = len(self.rows), len(self.names)
        a = np.zeros((m, k))
        b = np.zeros(m)
        for i, (coeffs, rhs) in enumerate(self.rows):
            if coeffs:
                a[i, list(coeffs.keys())] = list(coeffs.values())
            b[i] = rhs
        return a, b

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.lower, dtype=float), np.array(self.upper, dtype=float)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.names))
        if self.objective:
            c[list(self.objective.keys())] = list(self.objective.values())
        return c

    def objective_value(self, point: np.ndarray) -> float:
        return float(np.dot(self.objective_vector(), point))

    def is_feasible(self, point: np.ndarray, tol: float) -> bool:
        """Check ``point`` against rows and bounds with absolute tolerance ``tol``."""
        v = np.asarray(point, dtype=float)
        lo, hi = self.bounds()
        if np.any(v < lo - tol) or np.any(v > hi + tol):
            return False
        a, b = self.dense()
        return bool(b.size == 0 or (a @ v - b).max() <= tol)

    def scaled_violation(self, point: np.ndarray) -> float:
        """Largest violation with each row scaled by ``1 + |rhs|`` (bounds by
        ``1 + |bound|``), so the value compares against a relative tolerance."""
        v = np.asarray(point, dtype=float)
        lo, hi = self.bounds()
        worst = 0.0
        if lo.size:
            worst = max(worst, float(((lo - v) / (1.0 + np.abs(lo))).max()))
            finite = np.isfinite(hi)
            if finite.any():
                over = (v[finite] - hi[finite]) / (1.0 + np.abs(hi[finite]))
                worst = max(worst, float(over.max()))
        a, b = self.dense()
        if b.size:
            worst = max(worst, float(((a @ v - b) / (1.0 + np.abs(b))).max()))
        return worst

    def extract_x(self, point: np.ndarray) -> np.ndarray:
        """Project a full variable vector onto the decision block."""
        if not self.x_indices:
            return np.asarray(point, dtype=float).copy()
        return np.asarray(point, dtype=float)[self.x_indices].copy()

    def __repr__(self) -> str:
        return (f"LinearSystem({self.n_variables} variables, "
                f"{self.n_constraints} constraints, "
                f"objective={'yes' if self.objective is not None else 'no'})")
