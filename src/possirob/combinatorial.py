"""Budgeted min-max cost over 0/1 ground sets via threshold enumeration.

For a fixed confidence level the worst-case cost of a 0/1 vector is its
nominal cost plus the sum of its ``protection`` largest cut half-widths.
Minimizing that over the feasible set reduces to ``n + 1`` calls of a
deterministic single-objective oracle: one per candidate threshold (zero and
every half-width), each on costs inflated by the part of the half-width that
exceeds the threshold.  Every candidate solution is re-scored by direct
evaluation, so the reported value is attained by the reported vector.

The soft degree-maximizing solve wraps this test in the same level bisection
used on the linear path: a level is feasible when the min-max cost fits under
the goal value plus the graded budget and violation slacks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .fuzzy import FuzzyGoal, _check_level
from .models import UncertainObjective, worst_case_lhs
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


def minmax_budgeted(row: UncertainObjective, lam: float,
                    oracle: CombinatorialOracle) -> tuple[float, np.ndarray]:
    """Minimize the level-``lam`` worst-case cost over the oracle's feasible set.

    Performs exactly ``n + 1`` oracle calls.  Threshold ties resolve toward
    the smaller threshold; value ties keep the earlier candidate.
    """
    _check_level(lam)
    c_hat = row.nominal()
    widths = row.half_widths(lam)
    thresholds = np.concatenate([[0.0], widths])
    thresholds = thresholds[np.argsort(thresholds, kind="stable")]
    best_value = math.inf
    best_x: np.ndarray | None = None
    for theta in thresholds:
        adjusted = c_hat + np.maximum(widths - theta, 0.0)
        x, _ = oracle.minimize(adjusted)
        x = np.asarray(x, dtype=float)
        value = worst_case_lhs(row, x, lam)
        if value < best_value:
            best_value = value
            best_x = x
    assert best_x is not None
    return best_value, best_x


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
    nominal optimum plus the graded goal and slack allowances.
    """
    x_hat, c_hat = oracle.minimize(row.nominal())
    x_hat = np.asarray(x_hat, dtype=float)
    c_hat = float(c_hat)

    def probe(lam: float) -> np.ndarray | None:
        value, x = minmax_budgeted(row, lam, oracle)
        return x if value <= row.budget(c_hat, lam) else None

    witness, lam_bar, checks = bisect_feasibility(probe, eps, incumbent=x_hat)
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


def _check_nonnegative(costs: np.ndarray) -> None:
    if np.any(costs < 0):
        raise ValueError("bundled graph oracles require nonnegative costs")


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
        self._out: list[list[int]] = [[] for _ in range(graph.n_vertices)]
        for e, (tail, _head) in enumerate(graph.edges):
            self._out[tail].append(e)

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        self.calls += 1
        costs = np.asarray(costs, dtype=float)
        _check_nonnegative(costs)
        g = self.graph
        dist = np.full(g.n_vertices, math.inf)
        parent_edge = np.full(g.n_vertices, -1, dtype=int)
        dist[g.source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, g.source)]
        done = np.zeros(g.n_vertices, dtype=bool)
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == g.target:
                break
            for e in self._out[u]:
                v = g.edges[e][1]
                nd = d + costs[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = e
                    heapq.heappush(heap, (nd, v))
        if not math.isfinite(dist[g.target]):
            raise ValueError(f"target {g.target} unreachable from {g.source}")
        x = np.zeros(g.n_edges)
        v = g.target
        while v != g.source:
            e = int(parent_edge[v])
            x[e] = 1.0
            v = g.edges[e][0]
        return x, float(np.dot(costs, x))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class SpanningTreeOracle:
    """Greedy spanning-tree oracle; edges are treated as undirected."""

    def __init__(self, graph: EdgeListGraph) -> None:
        self.graph = graph
        self.calls = 0

    def minimize(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        self.calls += 1
        costs = np.asarray(costs, dtype=float)
        _check_nonnegative(costs)
        g = self.graph
        order = np.argsort(costs, kind="stable")
        uf = _UnionFind(g.n_vertices)
        x = np.zeros(g.n_edges)
        picked = 0
        for e in order:
            tail, head = g.edges[int(e)]
            if uf.union(tail, head):
                x[int(e)] = 1.0
                picked += 1
                if picked == g.n_vertices - 1:
                    break
        if picked != g.n_vertices - 1:
            raise ValueError("graph is not connected; no spanning tree exists")
        return x, float(np.dot(costs, x))
