"""Budgeted min-max cost over 0/1 ground sets via threshold enumeration.

For a fixed confidence level the worst-case cost of a 0/1 vector is its
nominal cost plus the sum of its ``protection`` largest cut half-widths.
Minimizing that over the feasible set reduces to calls of a deterministic
single-objective oracle, one per distinct candidate threshold (zero and every
half-width), so at most ``n + 1``, each on costs inflated by the part of the
half-width that exceeds the threshold.  Every candidate solution is re-scored
by direct evaluation, so the reported value is attained by the reported
vector.

The soft degree-maximizing solve wraps this test in the same level bisection
used on the linear path: a level is feasible when the min-max cost fits under
the goal value plus the graded budget and violation slacks.  A bisection
verdict only needs to know whether some candidate fits, so it walks the
Lee & Kwon subset of the thresholds, at most ``ceil((n - protection) / 2) + 2``
of them, and stops at the first candidate that fits; only a miss within
rounding of the budget scores the other thresholds too.  The witness comes
from one full enumeration at the bracketed level.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .fuzzy import FuzzyGoal, _check_level
from .models import UncertainObjective, top_sum, worst_case_lhs
from .solver import SolveOutcome, bisect_feasibility

__all__ = [
    "CombinatorialOracle",
    "ExplicitSetOracle",
    "ShortestPathOracle",
    "SpanningTreeOracle",
    "EdgeListGraph",
    "parse_graph",
    "load_graph",
    "worst_budgeted_cost",
    "minmax_budgeted",
    "brute_force_minmax",
    "solve_soft_nec_combinatorial",
]

class CombinatorialOracle(Protocol):
    """Deterministic solver for the crisp counterpart over the ground set."""

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        """Return a minimum-cost feasible 0/1 vector and its cost."""
        ...


# The worst-case cost of a 0/1 vector is the budgeted worst case of its cost
# row: one evaluator serves constraint and cost rows alike.
worst_budgeted_cost = worst_case_lhs


# A verdict whose best reduced-set score misses the budget by at most this
# share of the score's absolute terms, sum |c_hat| + sum widths, is decided
# again on every distinct threshold.  The scores of the reduced and the full
# enumeration differ only by the rounding of sums of n floats, far below it.
_GUARD_BAND = 1e-9


def _ascending_distinct(thresholds: np.ndarray) -> list[float]:
    """Sorted thresholds without repeats: a repeat gives the same costs."""
    ordered = np.sort(thresholds, kind="stable").tolist()
    return [t for i, t in enumerate(ordered) if i == 0 or t != ordered[i - 1]]


def _candidate(oracle: CombinatorialOracle, c_hat: np.ndarray, widths: np.ndarray,
               protection: int, theta: float) -> tuple[float, np.ndarray]:
    """The oracle's vector on the costs inflated above ``theta``, with its
    worst-case cost (``worst_case_lhs`` on the probe's costs and widths)."""
    x, _ = oracle.minimize(c_hat + np.maximum(widths - theta, 0.0))
    x = np.asarray(x, dtype=float)
    if x.shape != c_hat.shape:
        raise ValueError(f"oracle returned shape {x.shape}, expected {c_hat.shape}")
    return float(np.dot(c_hat, x)) + top_sum(widths * x, protection), x


def minmax_budgeted(row: UncertainObjective, lam: float,
                    oracle: CombinatorialOracle) -> tuple[float, np.ndarray]:
    """Minimize the level-``lam`` worst-case cost over the oracle's feasible set.

    Performs one oracle call per distinct threshold, at most ``n + 1``: a
    repeated threshold gives the same costs, hence the same vector, which
    could never beat the earlier one.  Threshold ties resolve toward the
    smaller threshold; value ties keep the earlier candidate.
    """
    _check_level(lam)
    c_hat = row.nominal()
    widths = row.half_widths(lam)
    best_value = math.inf
    best_x: np.ndarray | None = None
    for theta in _ascending_distinct(np.concatenate([[0.0], widths])):
        value, x = _candidate(oracle, c_hat, widths, row.protection, theta)
        if value < best_value:
            best_value = value
            best_x = x
    assert best_x is not None
    return best_value, best_x


def _fits(row: UncertainObjective, lam: float, oracle: CombinatorialOracle,
          budget: float) -> bool:
    """Whether ``minmax_budgeted(row, lam, oracle)[0] <= budget``.

    With the widths sorted as d_1 >= ... >= d_n and d_{n+1} = 0, the
    thresholds d_l for l in {protection, protection + 2, ...}, l <= n, and
    d_{n+1} reach the optimal value (Lee & Kwon, 4OR 12, 2014): for a fixed
    vector the worst case is convex and piecewise linear in the threshold,
    its integer slope drops by at most 1 at each d_l and is positive above
    d_protection.  They are walked in ascending order and the first fitting
    candidate decides.  When none fits but the best misses by no more than
    the rounding guard band, the remaining thresholds are scored as well.
    """
    c_hat = row.nominal()
    widths = row.half_widths(lam)
    gamma = row.protection
    d = np.append(np.sort(widths)[::-1], 0.0)
    if gamma == 0:
        reduced = d[:1]  # the costs are c_hat
    elif gamma == row.n:
        reduced = d[-1:]  # zero: the costs are c_hat + widths
    else:
        reduced = np.append(d[gamma - 1:-1:2], 0.0)
    tried = _ascending_distinct(reduced)
    best = math.inf
    for theta in tried:
        value, _ = _candidate(oracle, c_hat, widths, gamma, theta)
        if value <= budget:
            return True
        best = min(best, value)
    guard = _GUARD_BAND * (float(np.abs(c_hat).sum()) + float(widths.sum()))
    if best - budget > guard:
        return False
    skip = set(tried)
    return any(_candidate(oracle, c_hat, widths, gamma, theta)[0] <= budget
               for theta in _ascending_distinct(d) if theta not in skip)


def brute_force_minmax(row: UncertainObjective, lam: float,
                       candidates: Sequence[Sequence[float]],
                       ) -> tuple[float, np.ndarray]:
    """Exact reference: enumerate every candidate against every deviation
    subset of size up to the protection budget.  Only for small ground sets."""
    _check_level(lam)
    if not candidates:
        raise ValueError("candidate list is empty")
    c_hat = row.nominal()
    widths = row.half_widths(lam)
    indices = range(row.n)
    best_value = math.inf
    best_x: np.ndarray | None = None
    for cand in candidates:
        xv = np.asarray(cand, dtype=float)
        worst = 0.0
        for size in range(row.protection + 1):
            for subset in itertools.combinations(indices, size):
                dev = math.fsum(widths[j] * xv[j] for j in subset)
                if dev > worst:
                    worst = dev
        value = float(np.dot(c_hat, xv)) + worst
        if value < best_value:
            best_value = value
            best_x = xv
    assert best_x is not None
    return best_value, best_x


def solve_soft_nec_combinatorial(row: UncertainObjective, oracle: CombinatorialOracle,
                                 eps: float = 1e-4) -> SolveOutcome:
    """Maximize the soft-protection degree of the budgeted cost row.

    Seeds with the nominal-cost optimum (the level-1 witness), then bisects:
    a level is feasible when the min-max worst-case cost stays within the
    nominal optimum plus the graded goal and slack allowances.  Each verdict
    calls the oracle on the reduced thresholds until a candidate fits; the
    witness at the bracketed level comes from one ``minmax_budgeted`` call,
    the vector every probe of the full enumeration would have kept.
    """
    x_hat, c_hat = oracle.minimize(row.nominal())
    x_hat = np.asarray(x_hat, dtype=float)
    c_hat = float(c_hat)

    def probe(lam: float) -> np.ndarray | None:
        # any non-None marks a feasible level; the witness is built below
        return x_hat if _fits(row, lam, oracle, row.budget(c_hat, lam)) else None

    _, lam_bar, checks = bisect_feasibility(probe, eps, incumbent=x_hat)
    if lam_bar == 1.0:
        return SolveOutcome(x_hat, lam_bar, c_hat, checks)
    value, witness = minmax_budgeted(row, lam_bar, oracle)
    if value > row.budget(c_hat, lam_bar):
        raise ValueError("the oracle answered the same costs with a different "
                         "vector; it must be deterministic")
    return SolveOutcome(witness, lam_bar, c_hat, checks)


# -- bundled oracles -----------------------------------------------------


@dataclass(frozen=True)
class EdgeListGraph:
    """Graph over 0-based vertices with per-edge nominal costs and deviations.

    Edges are directed tail->head for path problems and read as undirected
    for spanning trees.  ``source``/``target`` only matter for paths.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    c_hat: tuple[float, ...]
    c_bar: tuple[float, ...]
    source: int = 0
    target: int = 0

    def __post_init__(self) -> None:
        if not (len(self.edges) == len(self.c_hat) == len(self.c_bar)):
            raise ValueError("edge list and cost vectors differ in length")
        for tail, head in self.edges:
            if not (0 <= tail < self.n_vertices and 0 <= head < self.n_vertices):
                raise ValueError(f"edge ({tail}, {head}) references an unknown vertex")
        for name in ("source", "target"):
            v = getattr(self, name)
            if not 0 <= v < self.n_vertices:
                raise ValueError(f"{name} vertex {v} out of range")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def cost_row(self, protection: int, rho0: float = 0.0, slack_bar: float = 0.0,
                 shape: float = 1.0) -> UncertainObjective:
        """Bundle the edge costs into a budgeted cost row with the given goal."""
        return UncertainObjective.from_arrays(
            self.c_hat, self.c_bar, protection, slack_bar,
            FuzzyGoal(None, rho0, shape), shape)


def parse_graph(text: str) -> EdgeListGraph:
    """Parse the edge-list format.

    First non-comment line: ``n_vertices n_edges source target``.  Then one
    edge per line: ``tail head c_hat c_bar``.  Lines starting with ``#`` are
    skipped.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph document")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError("graph header must be 'n_vertices n_edges source target'")
    n_vertices, n_edges, source, target = (int(tok) for tok in header)
    if len(lines) - 1 != n_edges:
        raise ValueError(f"header announces {n_edges} edges, found {len(lines) - 1}")
    edges, c_hat, c_bar = [], [], []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 4:
            raise ValueError(f"edge line must be 'tail head c_hat c_bar': {ln!r}")
        edges.append((int(toks[0]), int(toks[1])))
        c_hat.append(float(toks[2]))
        c_bar.append(float(toks[3]))
    return EdgeListGraph(n_vertices, tuple(edges), tuple(c_hat), tuple(c_bar),
                         source, target)


def load_graph(path: str) -> EdgeListGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _checked_costs(costs: np.ndarray) -> np.ndarray:
    costs = np.asarray(costs, dtype=float)
    if not (np.isfinite(costs).all() and (costs >= 0.0).all()):
        raise ValueError("bundled graph oracles require finite nonnegative costs")
    return costs


class ExplicitSetOracle:
    """Oracle over an explicitly listed feasible set; first minimum wins."""

    def __init__(self, candidates: Sequence[Sequence[float]]) -> None:
        if not candidates:
            raise ValueError("candidate list is empty")
        self._candidates = tuple(np.asarray(c, dtype=float) for c in candidates)
        self.calls = 0

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        self.calls += 1
        costs = np.asarray(costs, dtype=float)
        if not np.isfinite(costs).all():
            raise ValueError("oracle costs must be finite")
        best_x = self._candidates[0]
        best_value = float(np.dot(costs, best_x))
        for cand in self._candidates[1:]:
            value = float(np.dot(costs, cand))
            if value < best_value:
                best_value = value
                best_x = cand
        return best_x.copy(), best_value


class ShortestPathOracle:
    """Label-setting source-target path oracle over the directed edge list."""

    def __init__(self, graph: EdgeListGraph) -> None:
        self.graph = graph
        self.calls = 0
        # (edge, head) pairs leaving each vertex, in edge order
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_vertices)]
        for e, (tail, head) in enumerate(graph.edges):
            self._out[tail].append((e, head))

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        self.calls += 1
        costs = _checked_costs(costs)
        cost = costs.tolist()
        g = self.graph
        out, source, target = self._out, g.source, g.target
        push, pop = heapq.heappush, heapq.heappop
        dist = [math.inf] * g.n_vertices
        parent_edge = [-1] * g.n_vertices
        done = [False] * g.n_vertices
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = pop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == target:
                break
            for e, v in out[u]:
                nd = d + cost[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = e
                    push(heap, (nd, v))
        if not math.isfinite(dist[target]):
            raise ValueError(f"target {target} unreachable from {source}")
        x = np.zeros(g.n_edges)
        v = target
        while v != source:
            e = parent_edge[v]
            x[e] = 1.0
            v = g.edges[e][0]
        return x, float(np.dot(costs, x))


class SpanningTreeOracle:
    """Greedy spanning-tree oracle; edges are treated as undirected."""

    def __init__(self, graph: EdgeListGraph) -> None:
        self.graph = graph
        self.calls = 0

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        self.calls += 1
        costs = _checked_costs(costs)
        g = self.graph
        edges = g.edges
        # union-find over one parent list, path halving, the tail's root kept
        parent = list(range(g.n_vertices))
        x = np.zeros(g.n_edges)
        picked = 0
        for e in np.argsort(costs, kind="stable").tolist():
            a, b = edges[e]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            parent[b] = a
            x[e] = 1.0
            picked += 1
            if picked == g.n_vertices - 1:
                break
        if picked != g.n_vertices - 1:
            raise ValueError("graph is not connected; no spanning tree exists")
        return x, float(np.dot(costs, x))
