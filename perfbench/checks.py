"""Output checks that use no LP solver.

Every degree witness is re-evaluated at its reported ``lambda_bar`` with the
closed-form budgeted worst case (``worst_case_lhs`` for constraint rows,
``worst_budgeted_cost`` for cost rows) and compared against the bound its
model grants at that level.  Combinatorial witnesses must also be a path or
a spanning tree of their graph.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from possirob import (Box, FuzzyGoal, UncertainInstance, worst_budgeted_cost,
                      worst_case_lhs)

# Relative slack on every comparison.  The LP engines accept residuals of
# about 1e-9 (reference) and 1e-7 (HiGHS) in absolute terms; bounds here are
# in the tens to thousands, so 1e-6 * (1 + |bound|) leaves a wide margin
# while still catching any real violation.
REL_TOL = 1e-6


def _over(value: float, bound: float) -> bool:
    return not value <= bound + REL_TOL * (1.0 + abs(bound))


def _box(instance: UncertainInstance, x: np.ndarray, what: str) -> list[str]:
    fs = instance.feasible_set
    if x.shape != (instance.n,) or not np.all(np.isfinite(x)):
        return [f"{what}: witness has shape {x.shape} or non-finite entries"]
    if isinstance(fs, Box):
        lo, hi = np.array(fs.lower), np.array(fs.upper)
        if np.any(x < lo - REL_TOL) or np.any(x > hi + REL_TOL):
            return [f"{what}: witness leaves the feasible box"]
    return []


def _degree(out, what: str) -> list[str]:
    lam = out.lambda_bar
    if not 0.0 <= lam <= 1.0 or abs(out.degree - (1.0 - lam)) > 1e-12:
        return [f"{what}: lambda_bar {lam} and degree {out.degree} disagree"]
    return []


def nominal_rows(instance: UncertainInstance, x: np.ndarray, what: str) -> list[str]:
    """Feasibility under nominal data: ``a_hat . x <= b`` on every row."""
    problems = _box(instance, x, what)
    for i, row in enumerate(instance.rows):
        lhs = float(np.dot(row.nominal(), x))
        if _over(lhs, row.rhs.base):
            problems.append(f"{what}: nominal row {i} gives {lhs} > {row.rhs.base}")
    return problems


def robust(instance: UncertainInstance, x: np.ndarray, lam: float,
           what: str = "robust") -> list[str]:
    """Every row's budgeted worst case at ``lam`` fits under its crisp bound."""
    problems = _box(instance, x, what)
    for i, row in enumerate(instance.rows):
        worst = worst_case_lhs(row, x, lam)
        if _over(worst, row.rhs.base):
            problems.append(f"{what}: row {i} worst case {worst} > {row.rhs.base} at {lam}")
    return problems


def _soft_rows(instance: UncertainInstance, x: np.ndarray, lam: float,
               what: str) -> list[str]:
    problems = _box(instance, x, what)
    for i, row in enumerate(instance.rows):
        worst = worst_case_lhs(row, x, lam)
        bound = row.rhs.relaxed_rhs(1.0 - lam)
        if _over(worst, bound):
            problems.append(f"{what}: row {i} worst case {worst} > {bound} at {lam}")
    return problems


def light(instance: UncertainInstance, x: np.ndarray, c_hat: float,
          rho0: float) -> list[str]:
    """The light robust solution stays nominal-feasible within the cost budget."""
    problems = nominal_rows(instance, x, "light")
    cost = float(np.dot(instance.cost_nominal(), x))
    if _over(cost, c_hat + rho0):
        problems.append(f"light: cost {cost} exceeds budget {c_hat + rho0}")
    return problems


def nec(instance: UncertainInstance, out, goal: FuzzyGoal) -> list[str]:
    """Strict protection at ``lambda_bar`` under the hard cost budget."""
    x = np.asarray(out.solution, dtype=float)
    problems = _degree(out, "nec") + robust(instance, x, out.lambda_bar, "nec")
    cost = float(np.dot(instance.cost_nominal(), x))
    if _over(cost, goal.nominal_optimum + goal.tolerance):
        problems.append(f"nec: cost {cost} exceeds {goal.nominal_optimum + goal.tolerance}")
    return problems


def soft_nec(instance: UncertainInstance, out, goal: FuzzyGoal) -> list[str]:
    """Soft protection at ``lambda_bar``: graded row slacks and cost goal."""
    x = np.asarray(out.solution, dtype=float)
    lam = out.lambda_bar
    problems = _degree(out, "soft-nec") + _soft_rows(instance, x, lam, "soft-nec")
    cost = float(np.dot(instance.cost_nominal(), x))
    bound = goal.rhs_at(1.0 - lam)
    if _over(cost, bound):
        problems.append(f"soft-nec: cost {cost} exceeds goal {bound} at {lam}")
    return problems


def _cost_row_budget(row, c_hat: float, lam: float) -> float:
    return c_hat + row.goal.relaxation(1.0 - lam) + row.slack.relaxed_rhs(1.0 - lam)


def soft_nec_obj(instance: UncertainInstance, out) -> list[str]:
    """Soft protection with the budgeted fuzzy objective folded in as a row."""
    x = np.asarray(out.solution, dtype=float)
    lam = out.lambda_bar
    problems = _degree(out, "soft-nec-obj") + _soft_rows(instance, x, lam, "soft-nec-obj")
    obj = instance.objective
    worst = worst_budgeted_cost(obj, x, lam)
    bound = _cost_row_budget(obj, out.nominal_value, lam)
    if _over(worst, bound):
        problems.append(f"soft-nec-obj: worst cost {worst} exceeds {bound} at {lam}")
    return problems


def _is_path(graph, x: np.ndarray) -> bool:
    chosen = [graph.edges[e] for e in np.flatnonzero(x > 0.5)]
    out = {}
    for tail, head in chosen:
        if tail in out:
            return False
        out[tail] = head
    v, steps = graph.source, 0
    while v != graph.target:
        if v not in out or steps > len(chosen):
            return False
        v, steps = out[v], steps + 1
    return steps == len(chosen)


def _is_spanning_tree(graph, x: np.ndarray) -> bool:
    chosen = [graph.edges[e] for e in np.flatnonzero(x > 0.5)]
    if len(chosen) != graph.n_vertices - 1:
        return False
    parent = list(range(graph.n_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for tail, head in chosen:
        ra, rb = find(tail), find(head)
        if ra == rb:
            return False
        parent[rb] = ra
    return True


def combinatorial(graph, kind: str, row, out) -> list[str]:
    """A valid path or tree whose worst cost at ``lambda_bar`` fits its budget."""
    x = np.asarray(out.solution, dtype=float)
    what = f"combi-{kind}"
    problems = _degree(out, what)
    if x.shape != (graph.n_edges,) or not np.all((x == 0.0) | (x == 1.0)):
        return problems + [f"{what}: witness is not a 0/1 edge vector"]
    valid = _is_path(graph, x) if kind == "sp" else _is_spanning_tree(graph, x)
    if not valid:
        problems.append(f"{what}: witness is not a {'path' if kind == 'sp' else 'spanning tree'}")
    if _over(out.nominal_value, float(np.dot(row.nominal(), x))):
        problems.append(f"{what}: nominal optimum {out.nominal_value} exceeds the witness's nominal cost")
    worst = worst_budgeted_cost(row, x, out.lambda_bar)
    bound = _cost_row_budget(row, out.nominal_value, out.lambda_bar)
    if _over(worst, bound):
        problems.append(f"{what}: worst cost {worst} exceeds {bound} at {out.lambda_bar}")
    return problems


def violation_summary(infeas: float, aviol: float, what: str) -> list[str]:
    """Scenario metrics are a share in [0, 1] and a nonnegative mean."""
    if not (0.0 <= infeas <= 1.0 and math.isfinite(aviol) and aviol >= 0.0):
        return [f"{what}: scenario metrics out of range (infeas={infeas}, aviol={aviol})"]
    if (infeas == 0.0) != (aviol == 0.0):
        return [f"{what}: infeasible share {infeas} and mean violation {aviol} disagree"]
    return []

