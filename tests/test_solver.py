"""Bisection driver: probe counts, brackets, and the worked-example degrees."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from possirob import (AssumptionViolation, Box, FuzzyGoal, GeneratorSpec,
                      LinearSystem, LpStatus, ModelInfeasible, ScipyBackend,
                      SimplexBackend, UncertainInstance, UncertainRow, bisect,
                      bisect_feasibility, build_soft_nec, check_feasible,
                      generate_instance, necessity_degree, nominal_optimum,
                      solve_light_robust, solve_nec, solve_robust,
                      solve_soft_nec, solve_soft_nec_obj, worst_case_lhs)
from possirob.solver import probe_count_bound
from conftest import REPO_ROOT, random_instance


def step_builder(threshold: float):
    """System feasible exactly for levels at or above ``threshold``."""

    def build(lam: float) -> LinearSystem:
        s = LinearSystem()
        s.x_indices = s.add_variables(1, 0.0, 1.0)
        s.add_leq(s.x_indices, [1.0], lam - threshold)
        return s

    return build


class TestNominalOptimum:
    def test_worked_example(self, toy4):
        c_hat, x_hat = nominal_optimum(toy4)
        assert c_hat == pytest.approx(-10.0, abs=1e-6)
        assert np.allclose(x_hat, 1.0, atol=1e-9)

    def test_all_zero_costs(self):
        row = UncertainRow.from_arrays([1.0, 1.0], [0.5, 0.5], 3.0, 1)
        inst = UncertainInstance(objective=(0.0, 0.0), rows=(row,),
                                 feasible_set=Box.unit(2))
        c_hat, _ = nominal_optimum(inst)
        assert c_hat == 0.0

    def test_nominal_infeasibility_raises(self):
        row = UncertainRow.from_arrays([1.0], [0.0], -1.0, 0)
        inst = UncertainInstance(objective=(1.0,), rows=(row,),
                                 feasible_set=Box.unit(1))
        with pytest.raises(AssumptionViolation):
            nominal_optimum(inst)


class TestBisect:
    def test_bracket_contract_on_a_step_family(self):
        eps = 2.0 ** -10
        out = bisect(step_builder(0.5), eps)
        assert 0.5 <= out.lambda_bar <= 0.5 + eps
        assert out.iterations <= probe_count_bound(eps)

    def test_always_feasible_family_converges_to_zero(self):
        eps = 1e-3
        out = bisect(step_builder(0.0), eps)
        assert out.lambda_bar <= eps
        assert out.degree >= 1.0 - eps
        assert not out.effectively_zero

    def test_derived_fields_follow_lambda_bar(self):
        out = bisect(step_builder(0.5), 2.0 ** -10)
        lower = dataclasses.replace(out, lambda_bar=0.0, degree=1.0)
        assert (lower.degree, lower.lambda_bar) == (1.0, 0.0)
        top = dataclasses.replace(out, lambda_bar=1.0)
        assert top.degree == 0.0 and top.effectively_zero
        with pytest.raises(ValueError):
            dataclasses.replace(out, lambda_bar=0.0, degree=0.5)

    def test_never_feasible_family_raises_without_incumbent(self):
        def build(lam):
            s = LinearSystem()
            s.x_indices = s.add_variables(1, 0.0, 1.0)
            s.add_leq(s.x_indices, [1.0], -1.0)
            return s

        with pytest.raises(AssumptionViolation):
            bisect(build, 1e-3)

    def test_accuracy_must_be_positive(self):
        with pytest.raises(ValueError):
            bisect(step_builder(0.5), 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_accuracy_must_be_finite(self, eps):
        with pytest.raises(ValueError):
            bisect(step_builder(0.5), eps)


class TestBisectFeasibility:
    def test_level_one_counts_whether_probed_or_supplied(self):
        levels = []

        def probe(lam):
            levels.append(lam)
            return np.zeros(1) if lam >= 0.3 else None

        probed = bisect_feasibility(probe, 0.25)
        supplied = bisect_feasibility(probe, 0.25, incumbent=np.ones(1))
        assert levels == [1.0, 0.5, 0.25, 0.5, 0.25]
        assert probed[1:] == supplied[1:] == (0.5, 3)
        assert supplied[0][0] == 0.0


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the timeout turns a search that
    never ends into a failure instead of a hung suite."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, cwd=REPO_ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestAccuracyBelowFloatSpacing:
    def test_bisection_stops_at_adjacent_floats(self):
        lam, checks = run_python(
            "from possirob import bisect_feasibility\n"
            "print(*bisect_feasibility(lambda lam: 1 if lam >= 0.3 else None,"
            " 1e-300, 1)[1:])").split()
        assert float(lam) == 0.3
        # Level 1 plus 54 halvings: floats in [0.25, 0.5) are 2**-54 apart.
        assert int(checks) == 55

    def test_necessity_degree_returns(self, toy4):
        x = [1.0, 0.6, 0.6, 0.0]
        degree = float(run_python(
            "from possirob import load_instance, necessity_degree\n"
            "row = load_instance('instances/toy4.json').rows[0]\n"
            f"print(repr(necessity_degree(row, {x}, 1e-300)))"))
        assert degree == pytest.approx(necessity_degree(toy4.rows[0], x, 1e-6),
                                       abs=0.5e-5)


class TestSolveNec:
    def test_published_band(self, toy4):
        out = solve_nec(toy4, rho0=3.0, eps=1e-4)
        assert 0.42 <= out.degree <= 0.45
        assert out.degree == 1.0 - out.lambda_bar
        assert out.nominal_value == pytest.approx(-10.0, abs=1e-6)

    def test_zero_budget_pins_the_nominal_solution(self, toy4):
        out = solve_nec(toy4, rho0=0.0, eps=1e-4)
        assert out.degree == 0.0
        assert out.effectively_zero
        assert np.allclose(out.solution, 1.0, atol=1e-9)

    def test_budget_of_the_robust_gap_reaches_degree_one(self, toy4):
        out = solve_nec(toy4, rho0=6.29, eps=1e-4)
        assert out.degree >= 1.0 - 1e-4

    def test_crisp_instance_keeps_the_nominal_optimizer(self):
        row = UncertainRow.from_arrays([1.0, 2.0], [0.0, 0.0], 2.0, 1)
        inst = UncertainInstance(objective=(-1.0, -1.0), rows=(row,),
                                 feasible_set=Box.unit(2))
        out = solve_nec(inst, rho0=0.0, eps=1e-4)
        assert out.degree >= 1.0 - 1e-4
        c_hat, x_hat = nominal_optimum(inst)
        assert np.allclose(out.solution, x_hat, atol=1e-9)

    def test_budget_is_a_hard_cap_on_the_price(self, toy4):
        costs = np.array(toy4.objective)
        for rho0 in (0.5, 2.0, 5.0):
            out = solve_nec(toy4, rho0=rho0, eps=1e-4)
            price = abs((float(costs @ out.solution) - out.nominal_value)
                        / out.nominal_value)
            assert price <= rho0 / abs(out.nominal_value) + 1e-9


class TestSolveSoftNec:
    def test_degree_nondecreasing_in_the_budget(self, toy4_soft):
        degrees = [solve_soft_nec(toy4_soft, rho0=rho, eps=1e-4).degree
                   for rho in np.linspace(0.0, 6.0, 20)]
        assert all(a <= b + 1e-9 for a, b in zip(degrees, degrees[1:]))

    def test_price_bounded_by_scaled_budget(self, toy4_soft):
        costs = np.array(toy4_soft.objective)
        for rho0 in (1.0, 3.0):
            out = solve_soft_nec(toy4_soft, rho0=rho0, eps=1e-4)
            price = abs((float(costs @ out.solution) - out.nominal_value)
                        / out.nominal_value)
            # linear goal shape: budget at the reported level is rho0 * lambda
            assert price <= rho0 * out.lambda_bar / abs(out.nominal_value) + 1e-9

    def test_degree_dominates_strict_with_matched_budget(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), 2, with_slack=True)
            rho0 = float(rng.uniform(0.5, 3.0))
            strict = solve_nec(inst, rho0=rho0, eps=1e-3)
            lam = strict.lambda_bar
            if lam >= 1.0 - 1e-9 or lam <= 1e-9:
                continue
            scale = 1.0 - (1.0 - lam)
            soft = solve_soft_nec(inst, rho0=rho0 / scale, eps=1e-3)
            assert soft.degree >= strict.degree - 1e-3


class TestSolveSoftNecObj:
    def test_pinned_toy_reaches_one_third(self):
        from possirob import Polyhedron, UncertainObjective

        obj = UncertainObjective.from_arrays(
            [1.0, 1.0], [1.0, 0.0], protection=1, slack_bar=0.0,
            goal=FuzzyGoal(None, 0.5, 1.0))
        pinned = UncertainInstance(
            objective=obj, rows=(),
            feasible_set=Polyhedron(2, ((-1.0, 1.0), (1.0, -1.0), (0.0, 1.0)),
                                    (-1.0, 1.0, 0.0)))
        out = solve_soft_nec_obj(pinned, eps=1e-4)
        assert out.lambda_bar == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert out.degree == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_requires_uncertain_objective(self, toy4):
        with pytest.raises(ValueError):
            solve_soft_nec_obj(toy4)


class TestBisectionContracts:
    def test_probe_counts_and_brackets_on_random_instances(self):
        rng = np.random.default_rng(404)
        eps = 1e-3
        bound = probe_count_bound(eps)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 7)),
                                   int(rng.integers(1, 4)), with_slack=True)
            rho0 = float(rng.uniform(0.0, 2.0))
            out = solve_soft_nec(inst, rho0=rho0, eps=eps)
            assert out.iterations <= bound
            goal = FuzzyGoal(out.nominal_value, rho0)
            assert check_feasible(
                build_soft_nec(inst, out.lambda_bar, goal)).is_feasible
            if out.lambda_bar >= eps:
                assert not check_feasible(
                    build_soft_nec(inst, out.lambda_bar - eps, goal)).is_feasible


class TestLightRobust:
    def test_large_budget_reaches_zero_slack(self, toy4):
        out = solve_light_robust(toy4, rho0=10.0)
        assert out.value == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("rho0", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, toy4, rho0):
        with pytest.raises(ValueError):
            solve_light_robust(toy4, rho0)

    def test_zero_budget_pays_the_full_overshoot(self, toy4):
        out = solve_light_robust(toy4, rho0=0.0)
        overshoot = worst_case_lhs(toy4.rows[0], [1, 1, 1, 1], 0.0) - 6.0
        assert out.value == pytest.approx(overshoot, abs=1e-7)
        assert out.nominal_value == pytest.approx(-10.0, abs=1e-6)

    @pytest.mark.parametrize("seed, p", [(14284151879059536918, 0.0),
                                         (9124745175646384294, 0.02)],
                             ids=["ratio-test", "drift"])
    def test_reference_engine_matches_highs_on_a_round_off_prone_instance(self, seed, p):
        # Round-off once made the reference engine report these light robust
        # LPs (index 0, rho0 = p * |nominal optimum|) infeasible, in two ways.
        # ratio-test: basic values near -1e-8 gave negative ratios, so the
        # ratio test on raw right-hand sides picked a pivot element of 7.9e-7.
        # drift: after 908 phase-one pivots the tableau's right-hand
        # column has drifted by up to 2.2e-7, so a point read from it breaks a
        # row by 7.9e-8; the point solved from the final basis does not.
        pytest.importorskip("scipy")
        inst = generate_instance(GeneratorSpec(n=40, m=5, gamma=30, seed=seed), index=0)
        rho0 = p * abs(nominal_optimum(inst)[0])
        reference = solve_light_robust(inst, rho0, backend=SimplexBackend())
        highs = solve_light_robust(inst, rho0, backend=ScipyBackend())
        assert reference.value == pytest.approx(highs.value, rel=1e-6)


class TestSolveRobust:
    TIGHT = UncertainInstance(
        objective=(-1.0,),
        rows=(UncertainRow.from_arrays([2.0], [3.0], 2.0, 1),),
        feasible_set=Box((1.0,), (1.0,)))

    def test_worked_example(self, toy4):
        out = solve_robust(toy4)
        assert out.value == pytest.approx(-3.71, abs=0.01)
        assert out.nominal_value == pytest.approx(-10.0, abs=1e-6)
        assert worst_case_lhs(toy4.rows[0], out.solution, 0.0) <= 6.0 + 1e-7

    def test_full_protection_that_cannot_fit_is_model_infeasible(self):
        # x is pinned to 1: nominally 2 <= 2, but one deviation gives 5 > 2.
        with pytest.raises(ModelInfeasible) as info:
            solve_robust(self.TIGHT)
        assert info.value.status is LpStatus.INFEASIBLE
