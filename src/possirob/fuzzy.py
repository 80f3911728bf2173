"""Flexible bounds and fuzzy cost goals, with the confidence-level check.

A fuzzy interval, one coefficient of a row in :mod:`possirob.models`, is a
nested family of symmetric cuts around a nominal value: the cut at confidence
level 0 spans the full support ``[nominal - deviation, nominal + deviation]``
and shrinks to the nominal point at level 1.  Read as a possibility
distribution, the cut at level ``lam`` collects every value whose
plausibility is at least ``lam``, so the chance that the true value falls
inside it is at least ``1 - lam``.

Flexible right-hand sides and cost goals are the one-sided counterpart: a
crisp threshold that may be exceeded by a graded slack, largest at level 0
and vanishing at level 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SoftBound",
    "FuzzyGoal",
]


def _check_level(lam: float) -> None:
    # NaN fails both comparisons and is rejected too.
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"confidence level must lie in [0, 1], got {lam!r}")


@dataclass(frozen=True)
class SoftBound:
    """Flexible one-sided bound ``base`` with graded slack up to ``base + slack``.

    ``relaxed_rhs(level)`` is the largest threshold still acceptable to degree
    ``level``: the full ``base + slack`` at level 0, narrowing to the crisp
    ``base`` at level 1.  ``slack = 0`` encodes a crisp bound, and so does
    ``shape = 0``: ``level ** 0`` is 1 at every level (``0 ** 0`` included),
    so no relaxation is ever granted.
    """

    base: float
    slack: float = 0.0
    shape: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base) and math.isfinite(self.slack)
                and math.isfinite(self.shape)):
            raise ValueError("soft bound parameters must be finite")
        if self.slack < 0:
            raise ValueError(f"slack must be nonnegative, got {self.slack}")
        if self.shape < 0:
            raise ValueError(f"shape must be nonnegative, got {self.shape}")

    def relaxed_rhs(self, level: float) -> float:
        """Threshold granted at ``level``: ``base + slack * (1 - level**shape)``."""
        _check_level(level)
        return self.base + self.slack * (1.0 - level ** self.shape)


@dataclass(frozen=True)
class FuzzyGoal:
    """Graded cost target anchored at a reference optimum.

    ``rhs_at(level)`` is the largest cost acceptable to degree ``level``,
    ranging from ``nominal_optimum + tolerance`` at level 0 down to the
    reference optimum itself at level 1.  The anchor may be left unset until
    the reference problem has been solved.  ``shape = 0`` pins the cost to the
    reference optimum regardless of level (``level ** 0`` is always 1).
    """

    nominal_optimum: float | None
    tolerance: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        anchor = 0.0 if self.nominal_optimum is None else self.nominal_optimum
        if not (math.isfinite(anchor) and math.isfinite(self.tolerance)
                and math.isfinite(self.shape)):
            raise ValueError("fuzzy goal parameters must be finite")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")
        if self.shape < 0:
            raise ValueError(f"shape must be nonnegative, got {self.shape}")

    def relaxation(self, level: float) -> float:
        """Slack granted on top of the anchor at ``level``."""
        _check_level(level)
        return self.tolerance * (1.0 - level ** self.shape)

    def rhs_at(self, level: float) -> float:
        if self.nominal_optimum is None:
            raise ValueError("goal anchor is unset; solve the reference problem first")
        return self.nominal_optimum + self.relaxation(level)
