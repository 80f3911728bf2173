"""Instance generation, scenario sampling, violation metrics, and a small
end-to-end sweep checked for reproducibility."""

import tracemalloc

import numpy as np
import pytest

from possirob import (Box, GeneratorSpec, UncertainInstance, UncertainRow,
                      generate_instance, run_experiment, sample_scenarios,
                      stream, violation_metrics)


class TestGenerateInstance:
    def test_field_ranges_and_derived_quantities(self):
        spec = GeneratorSpec(n=30, m=4, gamma=10, seed=123)
        inst = generate_instance(spec)
        assert inst.n == 30 and inst.m == 4
        costs = inst.cost_nominal()
        assert np.all((costs >= -100) & (costs <= -1))
        assert np.all(costs == np.round(costs))
        for row in inst.rows:
            nominal = row.nominal()
            spread = row.half_widths(0.0)
            assert np.all((nominal >= 1) & (nominal <= 100))
            assert np.all(nominal == np.round(nominal))
            assert np.all((spread >= 0) & (spread <= nominal))
            assert row.rhs.base == pytest.approx(0.3 * nominal.sum())
            assert row.rhs.slack == pytest.approx(0.1 * row.rhs.base)
            assert row.protection == 10
        assert isinstance(inst.feasible_set, Box)
        assert inst.feasible_set.upper == (1.0,) * 30

    def test_same_seed_bit_identical(self):
        spec = GeneratorSpec(n=12, m=3, gamma=5, seed=9)
        a = generate_instance(spec, index=4)
        b = generate_instance(spec, index=4)
        assert a == b

    def test_different_indices_differ(self):
        spec = GeneratorSpec(n=12, m=3, gamma=5, seed=9)
        assert generate_instance(spec, 0) != generate_instance(spec, 1)

    def test_constant_coefficients_fix_the_bound(self):
        spec = GeneratorSpec(n=4, m=1, coeff_range=(5, 5), gamma=2, seed=1)
        inst = generate_instance(spec)
        assert inst.rows[0].rhs.base == pytest.approx(0.3 * 20.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=0)
        with pytest.raises(ValueError):
            GeneratorSpec(n=10, gamma=11)


class TestSampleScenario:
    def instance(self):
        row = UncertainRow.from_arrays([0.0, 10.0], [7.0, 0.0], 5.0, 1)
        return UncertainInstance(objective=(-1.0, -1.0), rows=(row,),
                                 feasible_set=Box.unit(2))

    def test_zero_deviation_coefficients_stay_nominal(self):
        inst = self.instance()
        batch = sample_scenarios(inst, stream(5, 1, 0), 500)
        assert np.all(batch[:, 0, 1] == 10.0)

    def test_every_draw_inside_the_support(self):
        inst = self.instance()
        batch = sample_scenarios(inst, stream(6, 1, 0), 2000)
        assert np.all(batch[:, 0, 0] >= -7.0) and np.all(batch[:, 0, 0] <= 7.0)

    def test_empirical_mean_centers_on_the_nominal(self):
        inst = self.instance()
        batch = sample_scenarios(inst, stream(7, 1, 0), 100_000)
        assert abs(float(batch[:, 0, 0].mean())) <= 0.05

    def test_single_draw_shape(self):
        inst = self.instance()
        scen = sample_scenarios(inst, stream(8, 1, 0), 1)[0]
        assert scen.shape == (1, 2)

    def test_levels_concentrate_mass_near_the_nominal(self):
        # two-stage draw puts more than the uniform share inside half support
        inst = self.instance()
        batch = sample_scenarios(inst, stream(9, 1, 0), 50_000)
        inside = float(np.mean(np.abs(batch[:, 0, 0]) <= 3.5))
        assert inside > 0.6


class TestViolation:
    SCENARIO = np.array([[2.0, 2.0]])

    def instance(self):
        row = UncertainRow.from_arrays([2.0, 2.0], [1.0, 1.0], 2.0, 1)
        return UncertainInstance(objective=(-1.0, -1.0), rows=(row,),
                                 feasible_set=Box.unit(2))

    def test_origin_never_violates(self):
        inst = self.instance()
        assert violation_metrics([0.0, 0.0], self.SCENARIO[None], inst)[1] == 0.0

    def test_direct_arithmetic(self):
        inst = self.instance()
        assert violation_metrics([1.0, 1.0], self.SCENARIO[None], inst)[1] == \
            pytest.approx(1.0)

    def test_feasible_scenario_scores_zero(self):
        inst = self.instance()
        assert violation_metrics([0.4, 0.4], self.SCENARIO[None], inst)[1] == 0.0

    def test_nonpositive_bound_rejected(self):
        row = UncertainRow.from_arrays([1.0], [0.0], 0.0, 0)
        inst = UncertainInstance(objective=(1.0,), rows=(row,),
                                 feasible_set=Box.unit(1))
        with pytest.raises(ValueError):
            violation_metrics([0.0], np.array([[1.0]])[None], inst)


class TestRunExperiment:
    SPEC = GeneratorSpec(n=8, m=2, gamma=4, seed=42)
    GRID = (0.0, 0.05, 0.1)

    @pytest.fixture(scope="class")
    @classmethod
    def report(cls):
        return run_experiment(cls.SPEC, p_grid=cls.GRID, instances_per_p=3,
                              scenarios=40)

    def test_reproducible_report_bytes(self, report):
        again = run_experiment(self.SPEC, p_grid=self.GRID, instances_per_p=3,
                               scenarios=40)
        assert report.to_csv() == again.to_csv()

    def test_csv_layout(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0].startswith("# prng=philox4x64 seed=42")
        assert lines[1] == ("p,d_L,d_S,infeas_L,infeas_S,aviol_L,aviol_S,"
                            "instances,scenarios,excluded")
        assert len(lines) == 2 + len(self.GRID)
        first = lines[2].split(",")
        assert len(first) == 10
        assert first[0] == "0.000000"
        assert first[7:] == ["3", "40", "0"]

    def test_zero_budget_pins_prices_to_zero(self, report):
        point = report.points[0]
        assert point.d_light == pytest.approx(0.0, abs=1e-9)
        assert point.d_soft == pytest.approx(0.0, abs=1e-9)

    def test_details_cover_the_grid(self, report):
        assert len(report.details) == len(self.GRID) * 3
        for record in report.details:
            assert record.infeas_light <= 1.0 and record.infeas_soft <= 1.0
            assert record.aviol_light >= 0.0 and record.aviol_soft >= 0.0

    def test_details_are_ordered_by_budget_then_instance(self, report):
        assert ([(r.p, r.index) for r in report.details]
                == [(p, i) for p in self.GRID for i in range(3)])

    def test_one_scenario_batch_is_held_at_a_time(self):
        # At n=20 and m=5, a batch of 5,000 scenarios takes 4 MB.
        def peak(instances):
            tracemalloc.start()
            try:
                run_experiment(GeneratorSpec(n=20, m=5, gamma=10, seed=0), p_grid=(0.05,),
                               instances_per_p=instances, scenarios=5000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) - peak(2) < 4_000_000

    def test_light_budget_binds_when_slack_is_positive(self, report):
        for record in report.details:
            if record.p == 0.0:
                continue
            bound = record.nominal_value + record.rho0
            assert record.cost_light <= bound + 1e-6
