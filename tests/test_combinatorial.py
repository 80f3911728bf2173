"""Threshold enumeration against subset brute force and against the full
``n + 1`` loop, the reduced-threshold verdict against the enumeration,
bundled graph oracles against networkx, and the degree solve on the
two-route example."""

import math

import numpy as np
import pytest

from possirob import (EdgeListGraph, ExplicitSetOracle, FuzzyGoal,
                      ShortestPathOracle, SpanningTreeOracle, UncertainObjective,
                      brute_force_minmax, minmax_budgeted, parse_graph,
                      solve_soft_nec_combinatorial, worst_budgeted_cost)
from possirob import combinatorial
from possirob.combinatorial import _fits

TWO_PATH = EdgeListGraph(
    n_vertices=3,
    edges=((0, 2), (0, 1), (1, 2)),
    c_hat=(2.0, 1.5, 1.5),
    c_bar=(4.0, 0.5, 0.5),
    source=0, target=2)

PATH_A = (1.0, 0.0, 0.0)
PATH_BC = (0.0, 1.0, 1.0)


def two_path_row(protection: int, rho0: float = 0.0, slack_bar: float = 0.0):
    return TWO_PATH.cost_row(protection, rho0, slack_bar)


def random_graph(rng, n_vertices=6, extra_edges=8):
    # spanning chain keeps everything connected and the target reachable
    edges = [(i, i + 1) for i in range(n_vertices - 1)]
    while len(edges) < n_vertices - 1 + extra_edges:
        a, b = rng.integers(0, n_vertices, size=2)
        if a != b:
            edges.append((int(a), int(b)))
    m = len(edges)
    return EdgeListGraph(n_vertices, tuple(edges),
                         tuple(rng.uniform(0.0, 10.0, m)),
                         tuple(rng.uniform(0.0, 5.0, m)),
                         source=0, target=n_vertices - 1)


def random_oracle(kind: str, rng):
    """An explicit-set, path or tree oracle on a random instance, with its size."""
    if kind == "explicit":
        n = int(rng.integers(1, 9))
        return ExplicitSetOracle([(rng.random(n) < 0.5).astype(float) for _ in range(6)]), n
    graph = random_graph(rng, int(rng.integers(2, 7)), int(rng.integers(0, 8)))
    oracle = (ShortestPathOracle if kind == "path" else SpanningTreeOracle)(graph)
    return oracle, graph.n_edges


def distinct_thresholds(row, lam: float) -> int:
    return len({0.0, *row.half_widths(lam).tolist()})


def reduced_thresholds(row, lam: float) -> set[float]:
    """The Lee & Kwon set: d_l for l = protection, protection + 2, ... up to n,
    and d_{n+1} = 0, from the widths sorted as d_1 >= ... >= d_n."""
    d = sorted(row.half_widths(lam).tolist(), reverse=True) + [0.0]
    gamma, n = row.protection, row.n
    if gamma == 0:
        return {d[0]}
    if gamma == n:
        return {0.0}
    return {d[l - 1] for l in range(gamma, n + 1, 2)} | {0.0}


def full_enumeration(row, lam: float, oracle):
    """One oracle call per threshold, repeated thresholds included."""
    c_hat = row.nominal()
    widths = row.half_widths(lam)
    thresholds = np.sort(np.concatenate([[0.0], widths]), kind="stable")
    best_value, best_x = math.inf, None
    for theta in thresholds:
        x, _ = oracle.minimize(c_hat + np.maximum(widths - theta, 0.0))
        x = np.asarray(x, dtype=float)
        value = worst_budgeted_cost(row, x, lam)
        if value < best_value:
            best_value, best_x = value, x
    return best_value, best_x


class TestMinmaxBudgeted:
    def test_two_route_example(self):
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        value, x = minmax_budgeted(two_path_row(1), 0.0, oracle)
        assert value == 3.5
        assert np.array_equal(x, PATH_BC)

    def test_no_protection_uses_nominal_costs(self):
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        for lam in (0.0, 0.5, 1.0):
            value, x = minmax_budgeted(two_path_row(0), lam, oracle)
            assert value == 2.0
            assert np.array_equal(x, PATH_A)

    def test_full_protection_at_level_zero_takes_upper_supports(self):
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        value, x = minmax_budgeted(two_path_row(3), 0.0, oracle)
        # A worst: 6, BC worst: 3 + 1 = 4
        assert value == 4.0
        assert np.array_equal(x, PATH_BC)

    def test_one_oracle_call_per_distinct_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            candidates = [(rng.random(n) < 0.5).astype(float) for _ in range(4)]
            oracle = ExplicitSetOracle(candidates)
            row = UncertainObjective.from_arrays(
                rng.uniform(0, 5, n), rng.uniform(0, 3, n),
                int(rng.integers(0, n + 1)))
            lam = float(rng.uniform(0, 1))
            before = oracle.calls
            minmax_budgeted(row, lam, oracle)
            assert oracle.calls - before == distinct_thresholds(row, lam)

    def test_tied_widths_take_fewer_than_n_plus_one_calls(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            candidates = [(rng.random(n) < 0.5).astype(float) for _ in range(4)]
            oracle = ExplicitSetOracle(candidates)
            levels = rng.choice([1.0, 2.5, 4.0], size=int(rng.integers(2, 4)), replace=False)
            row = UncertainObjective.from_arrays(
                rng.uniform(0, 5, n), rng.choice(levels, size=n),
                int(rng.integers(0, n + 1)))
            lam = float(rng.uniform(0, 0.9))
            before = oracle.calls
            minmax_budgeted(row, lam, oracle)
            calls = oracle.calls - before
            assert calls == distinct_thresholds(row, lam)
            assert calls < n + 1

    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(120):
            n = int(rng.integers(1, 9))
            pool = {tuple((rng.random(n) < 0.5).astype(float)) for _ in range(6)}
            candidates = [np.array(c) for c in sorted(pool)]
            shape = float(rng.choice([0.5, 1.0, 2.0]))
            row = UncertainObjective.from_arrays(
                rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 5.0, n),
                int(rng.integers(0, n + 1)), shape=shape)
            oracle = ExplicitSetOracle(candidates)
            for lam in (0.0, 0.3, 0.7, 1.0):
                fast_value, fast_x = minmax_budgeted(row, lam, oracle)
                slow_value, _ = brute_force_minmax(row, lam, candidates)
                assert fast_value == slow_value, f"trial {trial} lam {lam}"
                assert fast_value == worst_budgeted_cost(row, fast_x, lam)


class TestSameBitsAsTheFullEnumeration:
    """Skipping repeated thresholds returns the bits of the ``n + 1`` loop,
    on tied nominal costs, widths from a small set and mixed shapes."""

    @staticmethod
    def tied_row(rng, n):
        return UncertainObjective(
            tuple(rng.choice([1.0, 2.0, 3.0], size=n)),
            tuple(rng.choice([0.0, 1.5, 4.0], size=n)),
            tuple(rng.choice([0.5, 1.0, 2.0], size=n)),
            int(rng.integers(0, n + 1)))

    @pytest.mark.parametrize("kind", ["explicit", "path", "tree"])
    def test_same_value_and_vector(self, kind):
        rng = np.random.default_rng(["explicit", "path", "tree"].index(kind))
        for trial in range(40):
            oracle, n = random_oracle(kind, rng)
            row = self.tied_row(rng, n)
            for lam in (0.0, float(rng.uniform(0, 1)), 0.5, 1.0):
                fast_value, fast_x = minmax_budgeted(row, lam, oracle)
                slow_value, slow_x = full_enumeration(row, lam, oracle)
                assert (fast_value, fast_x.tobytes()) == (slow_value, slow_x.tobytes()), \
                    f"trial {trial} lam {lam}"


class TestFitsVerdict:
    """The verdict on the reduced thresholds equals the full enumeration's
    value against the budget, at the full minimum and one ulp either side."""

    @staticmethod
    def widths(rng, n):
        # tied and zero widths in half the trials
        if rng.random() < 0.5:
            return rng.choice([0.0, 1.5, 4.0], size=n)
        return rng.uniform(0.0, 5.0, n)

    @pytest.mark.parametrize("kind", ["explicit", "path", "tree"])
    def test_verdict_equals_the_full_enumeration(self, kind):
        rng = np.random.default_rng(["explicit", "path", "tree"].index(kind) + 40)
        checked = 0
        for _ in range(25):
            oracle, n = random_oracle(kind, rng)
            c_hat = rng.choice([1.0, 2.0, 3.0], size=n) if rng.random() < 0.5 \
                else rng.uniform(0.0, 10.0, n)
            c_bar = self.widths(rng, n)
            shape = float(rng.choice([0.5, 1.0, 2.0]))
            for gamma in range(n + 1):
                row = UncertainObjective.from_arrays(c_hat, c_bar, gamma, shape=shape)
                for lam in (0.0, float(rng.uniform(0, 1)), 1.0):
                    full, _ = minmax_budgeted(row, lam, oracle)
                    for budget in (math.nextafter(full, -math.inf), full,
                                   math.nextafter(full, math.inf), full - 1.0, full + 1.0):
                        assert _fits(row, lam, oracle, budget) == (full <= budget)
                        checked += 1
        assert checked > 1000

    def test_one_ulp_short_falls_back_to_every_threshold(self, monkeypatch):
        # the reduced best misses by one ulp, inside the guard band, so the
        # remaining thresholds are scored before the verdict is refused
        row = UncertainObjective.from_arrays(
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
            [5.0, 3.0, 5.0, 8.0, 9.0, 7.0, 9.0, 3.5], 1)
        oracle = ExplicitSetOracle([[1, 1, 0, 0, 1, 0, 0, 1], [0, 1, 1, 1, 0, 0, 1, 0],
                                    [1, 0, 0, 1, 0, 1, 1, 0], [0, 0, 1, 0, 1, 1, 0, 1]])
        lam = 0.25
        full, _ = minmax_budgeted(row, lam, oracle)
        budget = math.nextafter(full, -math.inf)
        reduced = len(reduced_thresholds(row, lam))
        assert reduced < distinct_thresholds(row, lam)
        before = oracle.calls
        assert not _fits(row, lam, oracle, budget)
        assert oracle.calls - before == distinct_thresholds(row, lam)
        # without the guard band the same verdict stops after the reduced set
        monkeypatch.setattr(combinatorial, "_GUARD_BAND", 0.0)
        before = oracle.calls
        assert not _fits(row, lam, oracle, budget)
        assert oracle.calls - before == reduced

    def test_refused_verdict_calls_once_per_reduced_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            oracle = ExplicitSetOracle(
                [(rng.random(n) < 0.5).astype(float) for _ in range(4)])
            gamma = int(rng.integers(0, n + 1))
            row = UncertainObjective.from_arrays(
                rng.uniform(0, 5, n), self.widths(rng, n), gamma)
            lam = float(rng.uniform(0, 1))
            full, _ = minmax_budgeted(row, lam, oracle)
            before = oracle.calls
            assert not _fits(row, lam, oracle, full - 1.0)
            calls = oracle.calls - before
            assert calls == len(reduced_thresholds(row, lam))
            assert calls <= math.ceil((n - gamma) / 2) + 2

    def test_an_unbounded_budget_stops_at_the_first_call(self):
        row = two_path_row(1)
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        assert _fits(row, 0.5, oracle, math.inf)
        assert oracle.calls == 1


class TestBruteForce:
    def test_no_protection_is_the_nominal_minimum(self):
        row = two_path_row(0)
        value, x = brute_force_minmax(row, 0.0, [PATH_A, PATH_BC])
        assert value == 2.0 and np.array_equal(x, PATH_A)

    def test_single_candidate_returns_its_worst_case(self):
        row = two_path_row(1)
        value, x = brute_force_minmax(row, 0.0, [PATH_A])
        assert value == 6.0 and np.array_equal(x, PATH_A)

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            brute_force_minmax(two_path_row(1), 0.0, [])


class TestSolveCombinatorial:
    def test_two_route_threshold_against_grid_oracle(self):
        # oracle: scan a fine level grid with the brute-force evaluator
        row = two_path_row(1, rho0=1.0)
        goal = row.goal
        candidates = [PATH_A, PATH_BC]

        def feasible(lam: float) -> bool:
            value, _ = brute_force_minmax(row, lam, candidates)
            return value <= 2.0 + goal.relaxation(1.0 - lam)

        grid = np.linspace(0.0, 1.0, 100_001)
        lam_star = next(lam for lam in grid if feasible(float(lam)))
        assert lam_star == pytest.approx(0.8, abs=1e-5)

        oracle = ExplicitSetOracle(candidates)
        out = solve_soft_nec_combinatorial(row, oracle, eps=1e-4)
        assert out.lambda_bar == pytest.approx(lam_star, abs=1e-4)
        assert out.degree == pytest.approx(0.2, abs=1e-4)
        assert out.nominal_value == 2.0

    def test_no_deviations_gives_degree_one(self):
        row = UncertainObjective.from_arrays(
            [2.0, 1.5, 1.5], [0.0, 0.0, 0.0], 2, goal=FuzzyGoal(None, 0.0))
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        out = solve_soft_nec_combinatorial(row, oracle, eps=1e-4)
        assert out.degree >= 1.0 - 1e-4

    def test_no_protection_with_positive_budget_gives_degree_one(self):
        row = two_path_row(0, rho0=0.5)
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        out = solve_soft_nec_combinatorial(row, oracle, eps=1e-4)
        assert out.degree >= 1.0 - 1e-4

    def test_oracle_call_budget_over_the_whole_solve(self):
        eps = 1e-4
        row = two_path_row(1, rho0=1.0)
        oracle = ExplicitSetOracle([PATH_A, PATH_BC])
        out = solve_soft_nec_combinatorial(row, oracle, eps=eps)
        n = 3
        bound = (n + 1) * (math.ceil(math.log2(1.0 / eps)) + 1) + 1
        assert oracle.calls <= bound

    def test_an_oracle_that_changes_its_answer_is_refused(self):
        row = two_path_row(1, rho0=1.0)
        honest = ExplicitSetOracle([PATH_A, PATH_BC])
        out = solve_soft_nec_combinatorial(row, honest)
        assert out.lambda_bar < 1.0
        bisection_calls = honest.calls - distinct_thresholds(row, out.lambda_bar)

        class Turncoat(ExplicitSetOracle):
            """Answers as ``honest`` did during the bisection, then with the
            costliest candidate."""

            def minimize(self, costs):
                if self.calls < bisection_calls:
                    return super().minimize(costs)
                self.calls += 1
                x = max(self._candidates, key=lambda c: float(np.dot(costs, c)))
                return x.copy(), float(np.dot(costs, x))

        with pytest.raises(ValueError, match="deterministic"):
            solve_soft_nec_combinatorial(row, Turncoat([PATH_A, PATH_BC]))

    def test_monotone_feasibility_in_the_level(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            pool = {tuple((rng.random(n) < 0.5).astype(float)) for _ in range(5)}
            candidates = [np.array(c) for c in sorted(pool)]
            row = UncertainObjective.from_arrays(
                rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 4.0, n),
                int(rng.integers(0, n + 1)), slack_bar=float(rng.uniform(0, 1)),
                goal=FuzzyGoal(None, float(rng.uniform(0, 2))))
            oracle = ExplicitSetOracle(candidates)
            x_hat, c_hat = oracle.minimize(row.nominal())
            lams = np.sort(rng.uniform(0.0, 1.0, size=2))

            def feasible(lam: float) -> bool:
                value, _ = minmax_budgeted(row, lam, oracle)
                budget = (c_hat + row.goal.relaxation(1.0 - lam)
                          + row.slack.relaxed_rhs(1.0 - lam))
                return value <= budget

            if feasible(float(lams[0])):
                assert feasible(float(lams[1]))


class TestGraphOracles:
    def test_shortest_path_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(8)
        for _ in range(25):
            graph = random_graph(rng)
            costs = np.asarray(graph.c_hat)
            x, value = ShortestPathOracle(graph).minimize(costs)
            g = nx.MultiDiGraph()
            for e, (tail, head) in enumerate(graph.edges):
                g.add_edge(tail, head, weight=costs[e])
            expected = nx.shortest_path_length(g, 0, graph.n_vertices - 1,
                                               weight="weight")
            assert value == pytest.approx(expected, abs=1e-9)
            assert set(np.unique(x)) <= {0.0, 1.0}

    def test_spanning_tree_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(9)
        for _ in range(25):
            graph = random_graph(rng)
            costs = np.asarray(graph.c_hat)
            x, value = SpanningTreeOracle(graph).minimize(costs)
            assert x.sum() == graph.n_vertices - 1
            g = nx.MultiGraph()
            for e, (tail, head) in enumerate(graph.edges):
                g.add_edge(tail, head, weight=costs[e])
            tree = nx.minimum_spanning_tree(g, weight="weight")
            expected = sum(d["weight"] for _, _, d in tree.edges(data=True))
            assert value == pytest.approx(expected, abs=1e-9)

    def test_negative_costs_rejected(self):
        oracle = ShortestPathOracle(TWO_PATH)
        with pytest.raises(ValueError):
            oracle.minimize(np.array([-1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            SpanningTreeOracle(TWO_PATH).minimize(np.array([-1.0, 1.0, 1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costs_rejected(self, bad):
        for oracle in (ShortestPathOracle(TWO_PATH), SpanningTreeOracle(TWO_PATH)):
            for e in range(TWO_PATH.n_edges):
                costs = np.ones(TWO_PATH.n_edges)
                costs[e] = bad
                with pytest.raises(ValueError, match="finite"):
                    oracle.minimize(costs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_explicit_set_rejects_non_finite_costs(self, bad):
        oracle = ExplicitSetOracle([[1, 0, 0], [0, 1, 1]])
        with pytest.raises(ValueError, match="finite"):
            oracle.minimize(np.array([5.0, bad, 1.0]))

    def test_explicit_set_takes_negative_costs(self):
        x, value = ExplicitSetOracle([[1, 0, 0], [0, 1, 1]]).minimize(
            np.array([-1.0, 2.0, -4.0]))
        assert value == -2.0 and np.array_equal(x, [0.0, 1.0, 1.0])

    def test_unreachable_target_rejected(self):
        graph = EdgeListGraph(3, ((0, 1),), (1.0,), (0.0,), source=0, target=2)
        with pytest.raises(ValueError):
            ShortestPathOracle(graph).minimize(np.array([1.0]))

    def test_disconnected_graph_has_no_tree(self):
        graph = EdgeListGraph(3, ((0, 1),), (1.0,), (0.0,))
        with pytest.raises(ValueError):
            SpanningTreeOracle(graph).minimize(np.array([1.0]))

    def test_shortest_path_end_to_end_on_the_two_route_graph(self):
        oracle = ShortestPathOracle(TWO_PATH)
        row = two_path_row(1, rho0=1.0)
        out = solve_soft_nec_combinatorial(row, oracle, eps=1e-4)
        assert out.degree == pytest.approx(0.2, abs=1e-4)
        assert np.array_equal(out.solution, PATH_A)


class TestGraphParsing:
    TEXT = """# comment line
3 3 0 2
0 2 2.0 4.0
0 1 1.5 0.5
1 2 1.5 0.5
"""

    def test_parse_matches_the_fixture(self):
        graph = parse_graph(self.TEXT)
        assert graph == TWO_PATH

    def test_header_errors(self):
        with pytest.raises(ValueError):
            parse_graph("")
        with pytest.raises(ValueError):
            parse_graph("3 3 0\n0 1 1 0\n0 2 1 0\n1 2 1 0\n")
        with pytest.raises(ValueError):
            parse_graph("3 2 0 2\n0 1 1 0\n")

    def test_edge_line_errors(self):
        with pytest.raises(ValueError):
            parse_graph("2 1 0 1\n0 1 1\n")
        with pytest.raises(ValueError):
            parse_graph("2 1 0 5\n0 1 1 0\n")
