"""Combinatorial degree solves on grid graphs, bit for bit, against recordings.

Each case solves one soft degree on a k x k grid (edges pointing right and
down, path from corner to corner) with the shortest-path or the spanning-tree
oracle, for k in 4, 6 and 8.  The deviations are untied, tied (drawn from a
three-value set), or tied together with tied nominal costs, so the recordings
pin how Dijkstra and Kruskal break ties, not only the optimal values.
``tests/golden/combi_grid.json`` holds ``repr(lambda_bar)``, the bisection's
``iterations``, ``repr(nominal_value)`` and the witness's edge indices.
The total number of oracle calls over the cases is pinned too: it does not
depend on the machine.
Re-record them, only when the answers are meant to change, with

    PYTHONPATH=src python tests/test_combi_grid.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from possirob import (EdgeListGraph, ShortestPathOracle, SpanningTreeOracle,
                      solve_soft_nec_combinatorial)

RECORDED = Path(__file__).resolve().parent / "golden" / "combi_grid.json"
SIDES = (4, 6, 8)
KINDS = ("sp", "mst")
VARIANTS = ("untied", "tied_deviations", "tied_costs")
PER_GRID = 8
TIE_LEVELS = (4.0, 12.0, 30.0)
EPS = 1e-4


def grid_graph(k: int, c_hat: np.ndarray, c_bar: np.ndarray) -> EdgeListGraph:
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return EdgeListGraph(k * k, tuple(edges), tuple(map(float, c_hat)),
                         tuple(map(float, c_bar)), source=0, target=k * k - 1)


def _cases():
    """``(name, graph, kind, cost row)`` for every recorded case."""
    for k in SIDES:
        n = 2 * k * (k - 1)
        for kind in KINDS:
            for i in range(PER_GRID):
                variant = VARIANTS[i % len(VARIANTS)]
                rng = np.random.default_rng([k, KINDS.index(kind), i])
                c_hat = rng.uniform(1.0, 100.0, n)
                c_bar = rng.uniform(0.0, 1.0, n) * c_hat
                if variant != "untied":
                    c_bar = rng.choice(TIE_LEVELS, size=n)
                if variant == "tied_costs":
                    c_hat = rng.choice((10.0, 20.0, 30.0), size=n)
                graph = grid_graph(k, c_hat, c_bar)
                scale = float(np.mean(c_hat)) * (2 * k - 2 if kind == "sp" else k * k - 1)
                row = graph.cost_row(int(rng.integers(1, 2 * k)),
                                     rho0=float(rng.uniform(0.05, 0.3)) * scale,
                                     slack_bar=float(rng.uniform(0.0, 0.05)) * scale,
                                     shape=float(rng.choice((0.5, 1.0, 2.0))))
                yield f"k{k}/{kind}/{i}/{variant}", graph, kind, row


# 18,444 when every verdict enumerated each distinct threshold; the reduced
# thresholds with the stop at the first fit, then one full enumeration at
# the bracketed level, make 7,381.
ORACLE_CALLS = 7381


def _solved():
    """``(name, outcome, oracle calls)`` for every recorded case."""
    for name, graph, kind, row in _cases():
        oracle = ShortestPathOracle(graph) if kind == "sp" else SpanningTreeOracle(graph)
        yield name, solve_soft_nec_combinatorial(row, oracle, EPS), oracle.calls


def answers() -> dict[str, dict]:
    return {name: {"lambda_bar": repr(result.lambda_bar),
                   "iterations": result.iterations,
                   "nominal_value": repr(result.nominal_value),
                   "witness": np.flatnonzero(result.solution).tolist()}
            for name, result, _ in _solved()}


def test_every_grid_case_matches_its_recorded_answer():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    current = answers()
    assert sorted(current) == sorted(recorded)
    changed = [name for name in current if current[name] != recorded[name]]
    assert changed == []


def test_total_oracle_calls_over_the_recorded_cases():
    assert sum(calls for _, _, calls in _solved()) == ORACLE_CALLS


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(answers(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
