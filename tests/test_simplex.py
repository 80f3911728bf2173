"""LP engine contracts: statuses, witnesses, determinism, and an exhaustive
vertex-enumeration oracle on small systems."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from possirob import (LinearSystem, LpStatus, ScipyBackend, SimplexBackend,
                      SolverConfig, SolverError, solve)
from possirob.linsys import scaled_violation


def tiny_lp():
    s = LinearSystem()
    x = s.add_variables(1, 0.0, 10.0)
    s.add_leq(x, [-1.0], -3.0)
    s.set_objective(x, [1.0])
    return s


class TestBasics:
    def test_minimum_against_lower_constraint(self):
        res = solve(tiny_lp())
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.point[0] == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_bounds_infeasible(self):
        s = LinearSystem()
        x = s.add_variables(1)
        s.add_leq(x, [1.0], 1.0)
        s.add_leq(x, [-1.0], -2.0)
        assert solve(s).status is LpStatus.INFEASIBLE

    def test_empty_constraints_over_unit_box(self):
        s = LinearSystem()
        s.add_variables(4, 0.0, 1.0)
        res = solve(s)
        assert res.status is LpStatus.FEASIBLE
        assert s.is_feasible(res.point, 1e-9)

    def test_unbounded_direction(self):
        s = LinearSystem()
        x = s.add_variables(1)
        s.set_objective(x, [-1.0])
        assert solve(s).status is LpStatus.UNBOUNDED

    def test_iteration_budget_raises_not_lies(self):
        s = LinearSystem()
        xs = s.add_variables(5, 0.0, 1.0)
        for j in range(4):
            s.add_leq(xs[j:j + 2], [1.0, -1.0], 0.1)
        s.add_leq(xs[[0, 4]], [-1.0, -1.0], -0.5)
        s.set_objective(xs, np.arange(5.0) - 2.0)
        with pytest.raises(SolverError, match="pivot budget"):
            solve(s, SolverConfig(max_iterations=1))

    def test_declared_variable_validation(self):
        s = LinearSystem()
        s.add_variables(1)
        with pytest.raises(ValueError):
            s.add_leq([3], [1.0], 0.0)
        with pytest.raises(ValueError):
            s.set_objective([7], [1.0])
        with pytest.raises(ValueError):
            s.add_leq([[0], [0]], [1.0], [0.0])  # two rows of entries, one bound


def random_system(rng: np.random.Generator) -> LinearSystem:
    """Box-bounded system so the feasible region, when nonempty, has vertices."""
    n = int(rng.integers(1, 4))
    s = LinearSystem()
    xs = s.add_variables(n, 0.0, [float(rng.uniform(0.5, 2.0)) for _ in range(n)])
    for _ in range(int(rng.integers(0, 7))):
        coeffs = [float(rng.uniform(-2.0, 2.0)) for _ in range(n)]
        s.add_leq(xs, coeffs, float(rng.uniform(-1.0, 3.0)))
    s.set_objective(xs, [float(rng.uniform(-2.0, 2.0)) for _ in range(n)])
    return s


def vertex_oracle(system: LinearSystem, tol: float = 1e-9):
    """Enumerate candidate vertices from every n-subset of tight constraints.

    Valid for box-bounded systems: a nonempty region then has at least one
    vertex, and every vertex solves some square subsystem.
    """
    n = system.n_variables
    a, b = system.dense()
    lo, hi = system.bounds()
    rows = [a[i] for i in range(a.shape[0])] if a.size else []
    rhs = list(b)
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e.copy())
        rhs.append(-lo[j])
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e)
        rhs.append(hi[j])
    rows_arr = np.array(rows)
    rhs_arr = np.array(rhs)
    c = system.objective_vector()
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        sub = rows_arr[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        point = np.linalg.solve(sub, rhs_arr[list(subset)])
        if np.any(rows_arr @ point > rhs_arr + tol):
            continue
        value = float(c @ point)
        if best is None or value < best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)


class TestVertexOracleAgreement:
    def test_statuses_and_values_match_on_200_random_systems(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            system = random_system(rng)
            expected_status, expected_value = vertex_oracle(system)
            res = solve(system)
            assert res.status.value == expected_status, f"trial {trial}"
            if expected_status == "optimal":
                assert res.value == pytest.approx(expected_value, abs=1e-7), \
                    f"trial {trial}"


class TestWitnessValidity:
    def test_returned_points_reevaluate_feasible(self):
        rng = np.random.default_rng(7)
        tol = SolverConfig().feasibility_tolerance
        for _ in range(100):
            system = random_system(rng)
            arrays = (*system.dense(), system.lower, system.upper)
            res = solve(system)
            if res.point is not None:
                assert scaled_violation(res.point, *arrays) <= 10.0 * tol
            system.objective = None  # phase one alone
            res = solve(system)
            if res.point is not None:
                assert scaled_violation(res.point, *arrays) <= 10.0 * tol


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            seed_state = rng.bit_generator.state
            system_a = random_system(rng)
            rng.bit_generator.state = seed_state
            system_b = random_system(rng)
            ra, rb = solve(system_a), solve(system_b)
            assert ra.status == rb.status
            if ra.point is not None:
                assert ra.value == rb.value
                assert np.array_equal(ra.point, rb.point)


class TestScipyBackendParity:
    def test_statuses_and_values_agree(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(31)
        reference = SimplexBackend()
        adapter = ScipyBackend()
        cfg = SolverConfig()
        for trial in range(100):
            system = random_system(rng)
            ra = reference.solve(system, cfg)
            rb = adapter.solve(system, cfg)
            assert ra.status == rb.status, f"trial {trial}"
            if ra.status is LpStatus.OPTIMAL:
                assert ra.value == pytest.approx(rb.value, abs=1e-7)


class TestScipyUnknownStatus:
    """HiGHS status 4 (model status Unknown) is retried once with the
    interior-point method; a second inconclusive answer is a solver error."""

    @staticmethod
    def backend_answering(statuses):
        pytest.importorskip("scipy")
        backend = ScipyBackend()
        methods = []

        def fake_linprog(c, *, method, **problem):
            methods.append(method)
            return SimpleNamespace(status=statuses[len(methods) - 1],
                                   message="fake status", fun=None, x=None)

        backend._linprog = fake_linprog
        return backend, methods

    def test_retry_settles_an_unknown_status(self):
        backend, methods = self.backend_answering([4, 2])
        assert backend.solve(tiny_lp()).status is LpStatus.INFEASIBLE
        assert methods == ["highs", "highs-ipm"]

    def test_unknown_twice_raises(self):
        backend, methods = self.backend_answering([4, 4])
        with pytest.raises(SolverError):
            backend.solve(tiny_lp())
        assert methods == ["highs", "highs-ipm"]
