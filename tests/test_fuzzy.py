"""Cut arithmetic and the flexible bound shapes."""

import math

import numpy as np
import pytest

from possirob import FuzzyGoal, SoftBound, UncertainRow


def coefficient(nominal: float, deviation: float, shape: float = 1.0) -> UncertainRow:
    """A one-coefficient row: its ``half_widths`` is that coefficient's cut."""
    return UncertainRow.from_arrays([nominal], [deviation], 1.0, 0, shape=shape)


class TestAlphaAt:
    def test_linear_triangular_midpoint(self):
        assert coefficient(0, 7, 1).half_widths(0.5)[0] == pytest.approx(3.5)

    def test_top_of_distribution_is_exactly_zero(self):
        assert coefficient(5, 2, 2).half_widths(1.0)[0] == 0.0

    def test_sublinear_shape_quarter_level(self):
        width = coefficient(0, 7, 0.5).half_widths(0.25)[0]
        assert width == pytest.approx(7 * (1 - 0.5))

    def test_bottom_is_exactly_the_deviation(self):
        assert coefficient(3, 11, 2.7).half_widths(0.0)[0] == 11.0

    def test_level_domain_errors(self):
        row = coefficient(0, 1)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                row.half_widths(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            coefficient(0, -1.0)
        with pytest.raises(ValueError):
            coefficient(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            coefficient(math.inf, 1.0)


class TestSoftBound:
    def test_partially_relaxed(self):
        assert SoftBound(6, 2, 1).relaxed_rhs(0.7) == pytest.approx(6.6)

    def test_no_relaxation_at_level_one(self):
        assert SoftBound(6, 2, 1).relaxed_rhs(1.0) == 6.0

    def test_full_relaxation_at_level_zero(self):
        assert SoftBound(6, 2, 1).relaxed_rhs(0.0) == 8.0

    def test_zero_shape_means_crisp(self):
        sb = SoftBound(6, 2, 0.0)
        for level in (0.0, 0.3, 1.0):
            assert sb.relaxed_rhs(level) == 6.0

    def test_endpoints_for_positive_shape(self):
        sb = SoftBound(3.0, 1.5, 2.5)
        assert sb.relaxed_rhs(0.0) == 4.5
        assert sb.relaxed_rhs(1.0) == 3.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SoftBound(0.0, -1.0)
        with pytest.raises(ValueError):
            SoftBound(0.0, 1.0, -0.5)


class TestFuzzyGoal:
    def test_rhs_interpolates_between_anchor_and_tolerance(self):
        goal = FuzzyGoal(-10.0, 3.0, 1.0)
        assert goal.rhs_at(1.0) == -10.0
        assert goal.rhs_at(0.0) == -7.0
        assert goal.rhs_at(0.5) == pytest.approx(-8.5)

    def test_unset_anchor_raises(self):
        with pytest.raises(ValueError):
            FuzzyGoal(None, 3.0).rhs_at(0.5)

    def test_zero_shape_pins_the_anchor(self):
        goal = FuzzyGoal(-10.0, 3.0, 0.0)
        assert goal.rhs_at(0.0) == -10.0
        assert goal.relaxation(0.3) == 0.0

    @pytest.mark.parametrize("args", [(math.nan, 3.0), (-10.0, math.nan),
                                      (-10.0, math.inf), (None, 3.0, math.nan),
                                      (math.inf, 3.0)])
    def test_non_finite_parameters_rejected(self, args):
        with pytest.raises(ValueError):
            FuzzyGoal(*args)


class TestMonotoneShapes:
    GRID = np.linspace(0.0, 1.0, 1000)

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.0, 7.0])
    def test_alpha_nonincreasing_on_grid(self, z):
        row = coefficient(0.0, 3.0, z)
        values = [row.half_widths(v)[0] for v in self.GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 4.0])
    def test_relaxed_rhs_nonincreasing_on_grid(self, z):
        sb = SoftBound(5.0, 2.0, z)
        values = [sb.relaxed_rhs(v) for v in self.GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))
