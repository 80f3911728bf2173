"""Crisp linear systems produced by the model builders.

A :class:`LinearSystem` holds nonnegative (or box-bounded) variables, ``<=``
constraints and an optional linear objective to minimize, all as numpy
arrays.  Builders append whole blocks of dual and slack variables next to the
decision block; the decision indices are recorded so solution vectors can be
projected back.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["LinearSystem"]

# Relative margin by which a Farkas vector must refute a system; it absorbs
# only the rounding of the check itself.
_REFUTE_MARGIN = 1e-12


class LinearSystem:
    """Mutable container for one ``min c.v  s.t.  A v <= b, lb <= v <= ub``.

    The nonzero entries of ``A`` are kept as parallel ``entries`` arrays
    ``(row, column, value)`` in the order they were added, which is row order.
    """

    def __init__(self) -> None:
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.rhs = np.zeros(0)
        self.entries = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
        self.objective: np.ndarray | None = None
        # Indices of the decision block; everything else is auxiliary.
        self.x_indices: np.ndarray | None = None

    # -- construction --------------------------------------------------

    def add_variables(self, count: int, lb: ArrayLike = 0.0,
                      ub: ArrayLike | None = None) -> np.ndarray:
        """Declare ``count`` variables and return their indices.  ``lb`` and
        ``ub`` are scalars or one value per variable; ``ub=None`` means unbounded."""
        lo, hi = np.empty(count), np.empty(count)
        lo[:], hi[:] = lb, np.inf if ub is None else ub
        if not np.isfinite(lo).all():
            raise ValueError("variables need finite lower bounds")
        if not (lo <= hi).all():
            raise ValueError("variables need upper bounds (not NaN) at or above the lower")
        first = self.n_variables
        self.lower = np.concatenate([self.lower, lo])
        self.upper = np.concatenate([self.upper, hi])
        return np.arange(first, first + count)

    def add_leq(self, cols: ArrayLike, vals: ArrayLike, rhs: ArrayLike) -> None:
        """Append one constraint ``vals[i] @ v[cols[i]] <= rhs[i]`` per entry
        of ``rhs``; a scalar ``rhs`` appends one.  ``cols`` and ``vals``
        broadcast to one row of entries per constraint.  Zero values are dropped;
        a value that is not finite raises ``ValueError``.
        """
        rhs = _finite(np.atleast_1d(rhs), "right-hand sides")
        rows, cols = np.arange(rhs.size)[:, None], self._columns(cols, "constraint")
        vals = _finite(vals, "constraint coefficients")
        grid = np.zeros(np.broadcast(rows, cols, vals).shape, dtype=np.intp)
        rows, cols, vals = rows + grid, cols + grid, vals + grid
        if rows.shape[0] != rhs.size:
            raise ValueError("one row of entries is needed per right-hand side")
        keep = vals != 0.0
        old_rows, old_cols, old_vals = self.entries
        self.entries = (np.concatenate([old_rows, rows[keep] + self.n_constraints]),
                        np.concatenate([old_cols, cols[keep]]),
                        np.concatenate([old_vals, vals[keep]]))
        self.rhs = np.concatenate([self.rhs, rhs])

    def set_objective(self, cols: ArrayLike, vals: ArrayLike) -> None:
        """Minimize ``vals @ v[cols]``; ``vals`` must be finite."""
        cols, vals = self._columns(cols, "objective"), _finite(vals, "objective coefficients")
        keep = vals != 0.0
        self.objective = np.zeros(self.n_variables)
        self.objective[cols[keep]] = vals[keep]

    def _columns(self, cols: ArrayLike, what: str) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size and not (0 <= cols.min() and cols.max() < self.n_variables):
            raise ValueError(f"{what} references an undeclared variable index")
        return cols

    # -- inspection ----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return self.lower.size

    @property
    def n_constraints(self) -> int:
        return self.rhs.size

    @property
    def rows(self) -> list[tuple[np.ndarray, float]]:
        """``(columns, rhs)`` per constraint, columns in the order they were added."""
        row_of, cols, _ = self.entries
        starts = np.searchsorted(row_of, np.arange(1, self.n_constraints))
        return list(zip(np.split(cols, starts), self.rhs.tolist()))

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Constraint matrix and right-hand side as dense arrays."""
        a = np.zeros((self.n_constraints, self.n_variables))
        row_of, cols, vals = self.entries
        a[row_of, cols] = vals
        return a, self.rhs.copy()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower.copy(), self.upper.copy()

    def objective_vector(self) -> np.ndarray:
        if self.objective is None:
            return np.zeros(self.n_variables)
        return np.pad(self.objective, (0, self.n_variables - self.objective.size))

    def objective_value(self, point: np.ndarray) -> float:
        return float(np.dot(self.objective_vector(), point))

    def is_feasible(self, point: np.ndarray, tol: float) -> bool:
        """Check ``point`` against rows and bounds with absolute tolerance ``tol``."""
        v = np.asarray(point, dtype=float)
        if np.any(v < self.lower - tol) or np.any(v > self.upper + tol):
            return False
        a, b = self.dense()
        return bool(b.size == 0 or (a @ v - b).max() <= tol)

    def refuted_by(self, y: ArrayLike) -> bool:
        """Whether the Farkas vector ``y`` proves that no point satisfies the
        rows and bounds.  ``y`` weighs the rows, then one row ``v[j] <=
        upper[j]`` per finite upper bound, in column order; negative entries
        count as 0.

        Shifted by the lower bounds, every point ``x' = v - lower`` of the box
        ``[0, upper - lower]`` that satisfies the rows has ``g @ x' <= y @ b'``,
        with ``g = y @ A`` over the rows and bound rows and ``b'`` their
        right-hand sides less ``A @ lower``.  Over the box ``g @ x'`` is at
        least the sum of ``g[j] * (upper - lower)[j]`` over ``g[j] < 0``, so a
        ``y @ b'`` below that floor, by more than rounding, leaves no point.
        """
        bounded = np.flatnonzero(np.isfinite(self.upper))
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        if y.shape != (self.n_constraints + bounded.size,):
            return False
        row_of, cols, vals = self.entries
        g = np.bincount(np.concatenate([cols, bounded]),
                        weights=np.concatenate([vals * y[row_of], y[self.n_constraints:]]),
                        minlength=self.n_variables)
        width = self.upper - self.lower
        shift = np.bincount(row_of, weights=vals * self.lower[cols],
                            minlength=self.n_constraints)
        b = np.concatenate([self.rhs - shift, width[bounded]])
        down = g < 0.0
        if np.isinf(width[down]).any():
            return False
        floor = float(g[down] @ width[down])
        margin = _REFUTE_MARGIN * float(np.linalg.norm(y) * np.linalg.norm(b))
        return float(y @ b) - floor < -margin

    def extract_x(self, point: np.ndarray) -> np.ndarray:
        """Project a full variable vector onto the decision block."""
        v = np.asarray(point, dtype=float)
        return v.copy() if self.x_indices is None else v[self.x_indices]

    def __repr__(self) -> str:
        return (f"LinearSystem({self.n_variables} variables, "
                f"{self.n_constraints} constraints, "
                f"objective={'yes' if self.objective is not None else 'no'})")


def _finite(values: ArrayLike, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def scaled_violation(point: np.ndarray, a: np.ndarray, b: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest violation of ``a @ point <= b, lo <= point <= hi`` with each row
    scaled by ``1 + |rhs|`` (bounds by ``1 + |bound|``), so the value compares
    against a relative tolerance."""
    v = np.asarray(point, dtype=float)
    worst = 0.0
    if lo.size:
        worst = max(worst, float(((lo - v) / (1.0 + np.abs(lo))).max()))
        finite = np.isfinite(hi)
        if finite.any():
            over = (v[finite] - hi[finite]) / (1.0 + np.abs(hi[finite]))
            worst = max(worst, float(over.max()))
    if b.size:
        worst = max(worst, float(((a @ v - b) / (1.0 + np.abs(b))).max()))
    return worst
