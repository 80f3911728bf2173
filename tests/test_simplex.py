"""LP engine contracts: statuses, witnesses, determinism, and an exhaustive
vertex-enumeration oracle on small systems."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possirob import (LinearSystem, LpStatus, ScipyBackend, SimplexBackend,
                      SolverConfig, SolverError, solve)
from possirob import simplex
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

    def test_reference_optimum_carries_its_final_basis(self):
        # min x - y over x, y in [0, 10] with x >= 3: x = 3 and y = 10 are
        # nonbasic at their bounds, each with reduced cost 1.
        s = tiny_lp()
        y = s.add_variables(1, 0.0, 10.0)
        s.set_objective([0, int(y[0])], [1.0, -1.0])
        res = solve(s)
        assert res.point.tolist() == [3.0, 10.0]
        assert res.reduced_costs[res.basis].tolist() == [0.0] * res.basis.size
        assert sorted(np.delete(res.reduced_costs, res.basis).tolist()) == [1.0, 1.0]
        assert solve(LinearSystem()).reduced_costs is None  # feasibility only

    def test_declared_variable_validation(self):
        s = LinearSystem()
        s.add_variables(1)
        with pytest.raises(ValueError):
            s.add_leq([3], [1.0], 0.0)
        with pytest.raises(ValueError):
            s.set_objective([7], [1.0])
        with pytest.raises(ValueError):
            s.add_leq([[0], [0]], [1.0], [0.0])  # two rows of entries, one bound

    # Each of these once solved: <= nan and <= -inf as FEASIBLE, and a NaN
    # objective as OPTIMAL with value nan.
    def test_nan_right_hand_side_is_rejected(self):
        s = LinearSystem()
        x = s.add_variables(2)
        with pytest.raises(ValueError, match="finite"):
            s.add_leq(x, [1.0, 1.0], float("nan"))
        assert s.n_constraints == 0

    def test_infinite_right_hand_side_or_coefficient_is_rejected(self):
        s = LinearSystem()
        x = s.add_variables(2)
        with pytest.raises(ValueError, match="finite"):
            s.add_leq(x, [1.0, 1.0], -np.inf)
        with pytest.raises(ValueError, match="finite"):
            s.add_leq(x, [1.0, np.inf], 1.0)
        assert s.n_constraints == 0

    def test_nan_objective_is_rejected(self):
        s = tiny_lp()
        with pytest.raises(ValueError, match="finite"):
            s.set_objective([0], [float("nan")])
        assert solve(s).value == pytest.approx(3.0, abs=1e-9)

    def test_objective_over_no_nonbasic_column(self):
        # No variables: every tableau column is basic, so the optimum is
        # read without a pricing step.
        s = LinearSystem()
        s.add_leq(np.zeros((1, 0), dtype=int), np.zeros((1, 0)), 5.0)
        s.set_objective([], [])
        res = solve(s)
        assert res.status is LpStatus.OPTIMAL and res.value == 0.0
        assert res.reduced_costs.tolist() == [0.0] and res.basis.tolist() == [0]


class TestPivotCount:
    def test_reference_results_count_their_pivots(self):
        assert solve(tiny_lp()).pivots == 1  # x enters for the artificial of x >= 3
        assert solve(LinearSystem()).pivots == 0

    def test_phase_one_infeasible_counts_its_pivots(self):
        res = solve(capped_lp(2.0))
        assert res.status is LpStatus.INFEASIBLE and res.pivots == 1

    def test_highs_results_carry_no_count(self):
        pytest.importorskip("scipy")
        assert ScipyBackend().solve(tiny_lp(), SolverConfig()).pivots is None


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


def capped_lp(cap):
    """x in [0, 10] and y >= 0 with x >= 3 and x + y <= cap: infeasible
    below a cap of 3."""
    s = LinearSystem()
    x, y = s.add_variables(1, 0.0, 10.0)[0], s.add_variables(1)[0]
    s.add_leq([x], [-1.0], -3.0)
    s.add_leq([x, y], [1.0, 1.0], cap)
    return s


def farkas(res, system):
    return res.reduced_costs[system.n_variables:]


class TestInfeasibilityCertificate:
    """A reference phase-one INFEASIBLE carries a Farkas vector that
    ``LinearSystem.refuted_by`` checks without an LP."""

    def test_phase_one_infeasible_is_refuted_by_its_certificate(self):
        s = capped_lp(2.0)
        res = solve(s)
        assert res.status is LpStatus.INFEASIBLE and res.basis is not None
        y = farkas(res, s)
        assert y.shape == (3,)  # two rows and the bound row of x
        assert s.refuted_by(y)

    def test_certificate_fails_once_the_system_is_feasible(self):
        s = capped_lp(2.0)
        y = farkas(solve(s), s)
        relaxed = capped_lp(3.0)
        assert solve(relaxed).status is LpStatus.FEASIBLE
        assert not relaxed.refuted_by(y)

    def test_negated_and_misshapen_certificates_fail(self):
        s = capped_lp(2.0)
        y = farkas(solve(s), s)
        assert not s.refuted_by(-y)
        assert not s.refuted_by(y[:2])
        assert not s.refuted_by(np.zeros(3))

    def test_negative_weights_count_at_the_far_end_of_the_box(self):
        s = capped_lp(2.0)
        assert s.refuted_by([1.0, 1.0, 0.0])
        # x >= 3 alone refutes nothing: its g_x = -1 lets x reach 10.
        assert not s.refuted_by([1.0, 0.0, 0.0])
        t = LinearSystem()
        z = t.add_variables(1)  # no upper bound
        t.add_leq(z, [-1.0], -3.0)
        t.add_leq(z, [1.0], 2.0)
        assert t.refuted_by([1.0, 1.0])
        # y @ b' = -2 < 0, but g_z = -0.5 sits on an unbounded column.
        assert not t.refuted_by([1.0, 0.5])

    def test_infeasible_after_the_point_check_carries_no_certificate(self, monkeypatch):
        monkeypatch.setattr(simplex, "scaled_violation", lambda *args: 1.0)
        res = solve(tiny_lp())  # phase one runs: x >= 3 flips its row
        assert res.status is LpStatus.INFEASIBLE
        assert res.reduced_costs is None and res.basis is None

    def test_highs_infeasible_carries_no_certificate(self):
        pytest.importorskip("scipy")
        res = ScipyBackend().solve(capped_lp(2.0), SolverConfig())
        assert res.status is LpStatus.INFEASIBLE
        assert res.reduced_costs is None and res.basis is None


def box_system(lo, hi, a, b):
    s = LinearSystem()
    x = s.add_variables(lo.size, lo, hi)
    s.add_leq(x, a, b)
    return s


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_certificates_refute_exactly_the_infeasible_systems(seed):
    # Rows a, b and one more row, -(w @ a) x <= -(w @ b) - gap, whose
    # w-weighted sum with the others reads 0 <= -gap: infeasible on any box.
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    lo = rng.uniform(-2.0, 1.0, k)
    hi = lo + rng.uniform(0.5, 3.0, k)
    a = rng.integers(-3, 4, (m, k)).astype(float)
    b = rng.uniform(-6.0, 6.0, m)
    w = rng.uniform(0.0, 1.0, m)
    a = np.vstack([a, -(w @ a)])
    b = np.append(b, -(w @ b) - rng.uniform(0.5, 2.0))
    infeasible = box_system(lo, hi, a, b)
    res = solve(infeasible)
    assert res.status is LpStatus.INFEASIBLE
    y = farkas(res, infeasible)
    assert infeasible.refuted_by(y)
    # The same rows around a point of the box: no vector refutes them.
    x0 = rng.uniform(lo, hi)
    feasible = box_system(lo, hi, a, a @ x0 + rng.uniform(0.0, 1.0, m + 1))
    assert solve(feasible).status is LpStatus.FEASIBLE
    for candidate in (y, rng.uniform(0.0, 1.0, y.size), -y):
        assert not feasible.refuted_by(candidate)


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
                assert rb.reduced_costs is None and rb.basis is None


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
