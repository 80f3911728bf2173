"""Model builders against direct evaluation, brute-force subset enumeration,
and the four-variable worked example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possirob import (Box, FuzzyGoal, LinearSystem, LpStatus,
                      Polyhedron, SoftBound, UncertainInstance,
                      UncertainObjective, UncertainRow, build_light_robust,
                      build_nec, build_nominal, build_robust, build_soft_nec,
                      build_soft_nec_obj, check_feasible, dualize_budgeted_row,
                      necessity_degree, solve, top_sum, worst_case_lhs)
from conftest import brute_force_budgeted_max, random_instance, random_row

EX_ROW = UncertainRow.from_arrays([0, 1, 2, 3], [7, 5, 4, 2], b=6.0, protection=2)


def minimize_dual_block(row: UncertainRow, x, lam: float) -> float:
    """LP value of the emitted dual block for a fixed decision vector."""
    system = LinearSystem()
    # pin x by a zero-width box
    x_idx = system.add_variables(len(x), x, x)
    cols, vals = dualize_budgeted_row(system, row, lam, x_idx)
    dual = ~np.isin(cols, x_idx)
    system.set_objective(cols[dual], vals[dual])
    res = solve(system)
    assert res.status is LpStatus.OPTIMAL
    return res.value


class TestTopSum:
    def test_takes_the_largest(self):
        assert top_sum(np.array([3.0, 1.0, 2.0]), 2) == 5.0

    def test_budget_beyond_size_takes_all(self):
        assert top_sum(np.array([1.0, 2.0]), 5) == 3.0

    def test_zero_budget(self):
        assert top_sum(np.array([4.0]), 0) == 0.0


class TestDualizeBudgetedRow:
    def test_full_protection_takes_every_deviation(self):
        x = [1.0, 1.0, 1.0, 1.0]
        row = UncertainRow.from_arrays([0, 1, 2, 3], [7, 5, 4, 2], 6.0, 4)
        assert minimize_dual_block(row, x, 0.0) == pytest.approx(18.0, abs=1e-7)
        assert worst_case_lhs(row, x, 0.0) == pytest.approx(24.0, abs=1e-7)

    def test_two_of_four_deviations(self):
        x = [1.0, 1.0, 1.0, 1.0]
        assert minimize_dual_block(EX_ROW, x, 0.0) == pytest.approx(12.0, abs=1e-7)
        assert worst_case_lhs(EX_ROW, x, 0.0) == pytest.approx(18.0, abs=1e-7)

    def test_no_protection_keeps_the_nominal_row(self):
        x = [1.0, 1.0, 1.0, 1.0]
        row = UncertainRow.from_arrays([0, 1, 2, 3], [7, 5, 4, 2], 6.0, 0)
        system = LinearSystem()
        x_idx = system.add_variables(4, 0.0, 1.0)
        cols, _ = dualize_budgeted_row(system, row, 0.0, x_idx)
        assert set(cols) <= set(x_idx)
        assert system.n_constraints == 0
        assert worst_case_lhs(row, x, 0.5) == pytest.approx(6.0)

    def test_duality_equality_on_200_random_rows(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            row = random_row(rng, n)
            x = rng.uniform(0.0, 1.0, size=n)
            lam = float(rng.uniform(0.0, 1.0))
            direct = worst_case_lhs(row, x, lam) - float(np.dot(row.nominal(), x))
            brute = brute_force_budgeted_max(row.half_widths(lam) * x, row.protection)
            lp_value = minimize_dual_block(row, x, lam)
            assert direct == pytest.approx(brute, abs=1e-7)
            assert lp_value == pytest.approx(brute, abs=1e-7)


class TestWorstCaseLhs:
    def test_reported_robust_solution_is_tight(self):
        value = worst_case_lhs(EX_ROW, [0.325, 0.437, 0.547, 0.0], 0.0)
        assert value == pytest.approx(5.994, abs=1e-9)

    def test_level_one_leaves_the_nominal_row(self):
        assert worst_case_lhs(EX_ROW, [1, 1, 1, 1], 1.0) == pytest.approx(6.0)

    def test_midlevel_arithmetic(self):
        value = worst_case_lhs(EX_ROW, [1.0, 0.6, 0.6, 0.0], 0.56)
        assert value == pytest.approx(1.8 + 0.44 * 10.0, abs=1e-12)


class TestNecessityDegree:
    def test_nominal_optimizer_has_degree_zero(self):
        assert necessity_degree(EX_ROW, [1, 1, 1, 1], 1e-6) == 0.0

    def test_robust_solution_has_degree_one(self):
        assert necessity_degree(EX_ROW, [0.325, 0.437, 0.547, 0.0], 1e-6) == 1.0

    def test_intermediate_solution(self):
        # closed form for uniform linear shapes: (b - nominal) / top-2 sum
        degree = necessity_degree(EX_ROW, [1.0, 0.6, 0.6, 0.0], 1e-6)
        assert degree == pytest.approx((6.0 - 1.8) / 10.0, abs=1e-5)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_tolerance_the_bisection_cannot_reach(self, tol):
        with pytest.raises(ValueError):
            necessity_degree(EX_ROW, [1.0, 1.0, 1.0, 0.0], tol)

    def test_matches_linear_closed_form_on_random_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            row = random_row(rng, n, shape_choices=(1.0,))
            x = rng.uniform(0.0, 1.0, size=n)
            spread = top_sum(row.half_widths(0.0) * x, row.protection)
            slack = row.rhs.base - float(np.dot(row.nominal(), x))
            if spread <= 1e-12:
                expected = 1.0 if slack >= 0 else 0.0
            else:
                expected = min(1.0, max(0.0, slack / spread))
            assert necessity_degree(row, x, 1e-7) == pytest.approx(expected, abs=1e-5)


class TestBuildRobust:
    def test_worked_example_optimum(self, toy4):
        res = solve(build_robust(toy4))
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(-3.71, abs=0.01)
        expected = np.array([0.325, 0.437, 0.547, 0.0])
        assert np.max(np.abs(res.point[:4] - expected)) <= 0.01

    def test_zero_protection_reduces_to_nominal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            stripped = UncertainInstance(
                objective=inst.objective,
                rows=tuple(UncertainRow(r.a_hat, r.a_bar, r.shape, 0, r.rhs) for r in inst.rows),
                feasible_set=inst.feasible_set)
            robust = solve(build_robust(stripped))
            nominal = solve(build_nominal(stripped))
            assert robust.status == nominal.status
            if robust.status is LpStatus.OPTIMAL:
                assert robust.value == pytest.approx(nominal.value, abs=1e-7)

    def test_full_protection_equals_interval_worst_case(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            inst = random_instance(rng, n, m)
            lam = float(rng.choice([0.0, 0.4]))
            full = UncertainInstance(
                objective=inst.objective,
                rows=tuple(UncertainRow(r.a_hat, r.a_bar, r.shape, n, r.rhs) for r in inst.rows),
                feasible_set=inst.feasible_set)
            robust = solve(build_robust(full, lam))
            # every coefficient at its cut upper endpoint
            shifted = UncertainInstance(
                objective=inst.objective,
                rows=tuple(
                    UncertainRow.from_arrays(
                        r.nominal() + r.half_widths(lam), np.zeros(n),
                        r.rhs.base, 0)
                    for r in inst.rows),
                feasible_set=inst.feasible_set)
            upper = solve(build_nominal(shifted))
            assert robust.status == upper.status
            if robust.status is LpStatus.OPTIMAL:
                assert robust.value == pytest.approx(upper.value, abs=1e-7)

    def test_rejects_uncertain_objective(self):
        obj = UncertainObjective.from_arrays([1.0], [0.5], 1)
        inst = UncertainInstance(objective=obj, rows=(), feasible_set=Box.unit(1))
        with pytest.raises(ValueError):
            build_robust(inst)


class TestBuildLightRobust:
    def test_zero_slack_when_budget_covers_the_robust_model(self, toy4):
        res = solve(build_light_robust(toy4, -10.0, 10.0, "max"))
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_pinned_budget_pays_the_worst_case_overshoot(self, toy4):
        # rho0=0 pins x to the nominal optimum (1,1,1,1); the only remaining
        # freedom is the slack, so its optimum is the direct overshoot.
        res = solve(build_light_robust(toy4, -10.0, 0.0, "max"))
        assert res.status is LpStatus.OPTIMAL
        overshoot = worst_case_lhs(EX_ROW, [1, 1, 1, 1], 0.0) - 6.0
        assert res.value == pytest.approx(overshoot, abs=1e-7)

    def test_sum_norm_matches_max_norm_on_single_row(self, toy4):
        res_max = solve(build_light_robust(toy4, -10.0, 3.0, "max"))
        res_sum = solve(build_light_robust(toy4, -10.0, 3.0, "sum"))
        assert res_max.value == pytest.approx(res_sum.value, abs=1e-7)

    def test_norm_validation(self, toy4):
        with pytest.raises(ValueError):
            build_light_robust(toy4, -10.0, 0.0, "median")


class TestBuildNec:
    GOAL3 = FuzzyGoal(-10.0, 3.0)

    def test_witness_feasible_at_published_level(self, toy4):
        system = build_nec(toy4, 0.58, self.GOAL3)
        assert check_feasible(system).status is LpStatus.FEASIBLE
        assert worst_case_lhs(EX_ROW, [1.0, 0.6, 0.6, 0.0], 0.58) == pytest.approx(6.0)

    def test_infeasible_below_level_one_without_budget(self, toy4):
        goal = FuzzyGoal(-10.0, 0.0)
        for lam in (0.3, 0.9, 0.999):
            assert check_feasible(build_nec(toy4, lam, goal)).status is LpStatus.INFEASIBLE

    def test_level_one_feasible_by_assumption(self, toy4):
        assert check_feasible(build_nec(toy4, 1.0, FuzzyGoal(-10.0, 0.0))).status \
            is LpStatus.FEASIBLE


class TestBuildSoftNec:
    def test_fully_relaxed_at_level_one(self, toy4_soft):
        goal = FuzzyGoal(-10.0, 0.0)
        assert check_feasible(build_soft_nec(toy4_soft, 1.0, goal)).status \
            is LpStatus.FEASIBLE

    def test_crisp_budget_and_tight_rows_infeasible_at_level_zero(self, toy4_soft):
        goal = FuzzyGoal(-10.0, 0.0)
        assert check_feasible(build_soft_nec(toy4_soft, 0.0, goal)).status \
            is LpStatus.INFEASIBLE

    def test_nominal_rows_flag_adds_rows_and_tightens(self, toy4_soft):
        goal = FuzzyGoal(-10.0, 6.0)
        lam = 0.6
        plain = build_soft_nec(toy4_soft, lam, goal, include_nominal=False)
        pinned = build_soft_nec(toy4_soft, lam, goal, include_nominal=True)
        assert pinned.n_constraints == plain.n_constraints + toy4_soft.m
        # identical variable layout, extra rows only: a witness of the pinned
        # system satisfies the plain one
        w_pin = check_feasible(pinned)
        assert w_pin.status is LpStatus.FEASIBLE
        assert plain.is_feasible(w_pin.point, 1e-6)

    def test_monotone_feasibility_in_the_level(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 7)),
                                   int(rng.integers(1, 4)), with_slack=True)
            goal = FuzzyGoal(0.0, float(rng.uniform(0.0, 3.0)))
            lams = np.sort(rng.uniform(0.0, 1.0, size=2))
            low = check_feasible(build_soft_nec(inst, float(lams[0]), goal))
            high = check_feasible(build_soft_nec(inst, float(lams[1]), goal))
            if low.status is LpStatus.FEASIBLE:
                assert high.status is LpStatus.FEASIBLE

    def test_strict_feasible_implies_soft_feasible_with_matched_budget(self):
        # With the soft tolerance inflated by 1/(1-(1-lam)^z), both budgets
        # coincide and the soft rows are relaxations of the strict ones.
        rng = np.random.default_rng(22)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 6)),
                                   int(rng.integers(1, 4)), with_slack=True)
            lam = float(rng.uniform(0.05, 0.95))
            rho0 = float(rng.uniform(0.5, 4.0))
            z = 1.0
            strict_goal = FuzzyGoal(0.0, rho0, z)
            scaling = 1.0 - (1.0 - lam) ** z
            soft_goal = FuzzyGoal(0.0, rho0 / scaling, z)
            strict = check_feasible(build_nec(inst, lam, strict_goal))
            if strict.status is not LpStatus.FEASIBLE:
                continue
            soft = check_feasible(build_soft_nec(inst, lam, soft_goal))
            assert soft.status is LpStatus.FEASIBLE


class TestBuildSoftNecObj:
    def toy(self, feasible_rows=()):
        obj = UncertainObjective.from_arrays(
            [1.0, 1.0], [1.0, 0.0], protection=1, slack_bar=0.0,
            goal=FuzzyGoal(None, 0.5, 1.0))
        return UncertainInstance(objective=obj, rows=feasible_rows,
                                 feasible_set=Polyhedron(
                                     2, ((-1.0, -1.0),), (-1.0,)))

    def test_crisp_objective_degenerates_to_plain_soft(self, toy4_soft):
        # same costs wrapped as a deviation-free uncertain objective
        goal = FuzzyGoal(-10.0, 3.0)
        wrapped = UncertainInstance(
            objective=UncertainObjective.from_arrays(
                [-4, -3, -2, -1], [0, 0, 0, 0], protection=0, slack_bar=0.0,
                goal=goal),
            rows=toy4_soft.rows, feasible_set=toy4_soft.feasible_set)
        for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
            plain = check_feasible(build_soft_nec(toy4_soft, lam, goal))
            folded = check_feasible(build_soft_nec_obj(wrapped, lam, -10.0))
            assert plain.status == folded.status

    def test_free_second_coordinate_makes_every_level_feasible(self):
        inst = self.toy()
        # with gamma0=1 c_bar=(1,0): x=(0,1) costs 1 with no deviation, so the
        # system is feasible at every level
        for lam in (0.0, 0.5, 1.0):
            assert check_feasible(build_soft_nec_obj(inst, lam, 1.0)).status \
                is LpStatus.FEASIBLE

    def test_zero_protection_zero_slack_reduces_to_goal_constraint(self):
        obj = UncertainObjective.from_arrays(
            [1.0, 2.0], [0.7, 0.3], protection=0, slack_bar=0.0,
            goal=FuzzyGoal(None, 1.0, 1.0))
        inst = UncertainInstance(objective=obj, rows=(),
                                 feasible_set=Polyhedron(2, ((-1.0, -1.0),), (-1.0,)))
        system = build_soft_nec_obj(inst, 0.4, 1.0)
        # no dual variables were created; after the feasible-set row the block
        # is the bare cost row against the graded goal
        assert system.n_variables == 2
        cols, rhs = system.rows[1]
        assert cols.tolist() == [0, 1]
        assert system.dense()[0][1].tolist() == [1.0, 2.0]
        assert rhs == pytest.approx(1.0 + 1.0 * 0.4)

    def test_pinned_toy_threshold_at_two_thirds(self):
        # forcing x = (1, 0) makes the worst cost 1 + (1 - lam) against the
        # budget 1 + 0.5 lam, so feasibility starts exactly at lam = 2/3
        obj = UncertainObjective.from_arrays(
            [1.0, 1.0], [1.0, 0.0], protection=1, slack_bar=0.0,
            goal=FuzzyGoal(None, 0.5, 1.0))
        pinned = UncertainInstance(
            objective=obj, rows=(),
            feasible_set=Polyhedron(2, ((-1.0, 1.0), (1.0, -1.0), (0.0, 1.0)),
                                    (-1.0, 1.0, 0.0)))
        for lam, expected in ((0.5, LpStatus.INFEASIBLE), (0.6, LpStatus.INFEASIBLE),
                              (0.7, LpStatus.FEASIBLE), (1.0, LpStatus.FEASIBLE)):
            assert check_feasible(build_soft_nec_obj(pinned, lam, 1.0)).status \
                is expected, lam


class TestMixedShapes:
    # A fast-decaying wide interval against a slow-decaying narrow one: the
    # dominant deviation swaps as the level grows, so no single linear closed
    # form for the degree applies.
    ROW = UncertainRow((1.0, 2.0), (6.0, 3.0), (0.3, 4.0), 1, SoftBound(5.0))

    def test_top_set_really_changes_with_the_level(self):
        x = np.array([1.0, 1.0])
        low = np.argmax(self.ROW.half_widths(0.01) * x)
        high = np.argmax(self.ROW.half_widths(0.5) * x)
        assert (low, high) == (0, 1)

    def test_bisection_matches_a_fine_grid_scan(self):
        x = [1.0, 1.0]
        degree = necessity_degree(self.ROW, x, 1e-7)
        grid = np.linspace(0.0, 1.0, 200_001)
        feasible = [worst_case_lhs(self.ROW, x, float(v)) <= 5.0 for v in grid]
        lam_star = grid[int(np.argmax(feasible))]
        assert 0.0 < lam_star < 1.0
        assert degree == pytest.approx(1.0 - lam_star, abs=1e-5)


@st.composite
def mixed_shape_rows(draw):
    n = draw(st.integers(1, 8))

    def vector(lo, hi, **kw):
        return draw(st.lists(st.floats(lo, hi, **kw), min_size=n, max_size=n))

    shape = draw(st.lists(st.sampled_from((0.3, 0.5, 1.0, 2.0, 4.0)),
                          min_size=n, max_size=n))
    return UncertainRow(vector(-50.0, 50.0), vector(0.0, 50.0), shape,
                        draw(st.integers(0, n)), SoftBound(1.0)), vector(0.0, 1.0)


class TestCutWidthsAgainstIntervals:
    """The array-backed row reproduces the per-coefficient cut width
    ``d * (1 - lam ** z)`` in Python floats bit for bit, including rows that
    mix shapes."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_shape_rows(), st.floats(0.0, 1.0))
    def test_half_widths_and_worst_case_are_exact(self, row_and_x, lam):
        row, x = row_and_x
        widths = np.array([d * (1.0 - lam ** z)
                           for d, z in zip(row.a_bar, row.shape)])
        assert row.half_widths(lam).tolist() == widths.tolist()
        xv = np.array(x)
        nominal = np.array(row.a_hat)
        expected = float(np.dot(nominal, xv)) + top_sum(widths * xv, row.protection)
        assert worst_case_lhs(row, xv, lam) == expected


class TestPolyhedralFeasibleSet:
    def simplex_instance(self):
        # x on the simplex face x1+x2+x3 <= 1.5 with a coupling row
        row = UncertainRow.from_arrays([1.0, 2.0, 1.0], [0.5, 1.0, 0.0], 2.0, 1)
        fs = Polyhedron(3, ((1.0, 1.0, 1.0),), (1.5,))
        return UncertainInstance(objective=(-2.0, -3.0, -1.0), rows=(row,),
                                 feasible_set=fs)

    def test_nominal_and_robust_respect_the_polyhedron(self):
        inst = self.simplex_instance()
        for system in (build_nominal(inst), build_robust(inst)):
            res = solve(system)
            assert res.status is LpStatus.OPTIMAL
            x = system.extract_x(res.point)
            assert x.sum() <= 1.5 + 1e-9
            assert np.all(x >= -1e-12)

    def test_robust_solution_passes_the_direct_worst_case(self):
        inst = self.simplex_instance()
        for lam in (0.0, 0.35, 0.8):
            system = build_robust(inst, lam)
            res = solve(system)
            assert res.status is LpStatus.OPTIMAL
            x = system.extract_x(res.point)
            for row in inst.rows:
                assert worst_case_lhs(row, x, lam) <= row.rhs.base + 1e-7


class TestDualDirectConsistency:
    def test_solved_optima_are_feasible_under_direct_evaluation(self):
        rng = np.random.default_rng(3030)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(2, 7)),
                                   int(rng.integers(1, 4)))
            lam = float(rng.uniform(0.0, 1.0))
            system = build_robust(inst, lam)
            res = solve(system)
            if res.status is not LpStatus.OPTIMAL:
                continue
            x = system.extract_x(res.point)
            for row in inst.rows:
                assert worst_case_lhs(row, x, lam) <= row.rhs.base + 1e-6


class TestObjectiveSlack:
    def test_violation_slack_shifts_the_threshold(self):
        # pinned x = (1, 0): worst cost 1 + (1 - lam) against the budget
        # 1 + 0.5 lam + 0.25 lam, so feasibility starts at lam = 4/7
        obj = UncertainObjective.from_arrays(
            [1.0, 1.0], [1.0, 0.0], protection=1, slack_bar=0.25,
            goal=FuzzyGoal(None, 0.5, 1.0))
        pinned = UncertainInstance(
            objective=obj, rows=(),
            feasible_set=Polyhedron(2, ((-1.0, 1.0), (1.0, -1.0), (0.0, 1.0)),
                                    (-1.0, 1.0, 0.0)))
        threshold = 4.0 / 7.0
        for lam, expected in ((threshold - 0.01, LpStatus.INFEASIBLE),
                              (threshold + 0.01, LpStatus.FEASIBLE)):
            assert check_feasible(build_soft_nec_obj(pinned, lam, 1.0)).status \
                is expected


class TestValidation:
    def test_fractional_protection_rejected(self):
        with pytest.raises(ValueError):
            UncertainRow((1.0,), (0.5,), (1.0,), 0.5, SoftBound(1.0))

    def test_protection_range(self):
        with pytest.raises(ValueError):
            UncertainRow.from_arrays([1.0], [0.0], 1.0, 2)

    def test_dimension_mismatch_rejected(self):
        row = UncertainRow.from_arrays([1.0, 2.0], [0.0, 0.0], 1.0, 1)
        with pytest.raises(ValueError):
            UncertainInstance(objective=(1.0,), rows=(row,), feasible_set=Box.unit(1))

    def test_box_bounds_validated(self):
        with pytest.raises(ValueError):
            Box((-1.0,), (1.0,))
        with pytest.raises(ValueError):
            Box((2.0,), (1.0,))

    @pytest.mark.parametrize("make", [
        lambda: Box((0.0,), (float("nan"),)),
        lambda: Box((0.0,), (float("inf"),)),
        lambda: Polyhedron(1, ((float("inf"),),), (1.0,)),
        lambda: Polyhedron(1, ((1.0,),), (float("nan"),)),
        lambda: UncertainInstance(objective=(float("nan"),), rows=(),
                                  feasible_set=Box.unit(1)),
        lambda: LinearSystem().add_variables(1, 0.0, float("nan")),
    ])
    def test_non_finite_data_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_objective_slack_anchored_at_zero(self):
        with pytest.raises(ValueError):
            UncertainObjective((1.0,), (0.0,), (1.0,), 0, SoftBound(1.0, 1.0))
