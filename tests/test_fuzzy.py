"""Cut arithmetic, membership inversion, and the flexible bound shapes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from possirob import FuzzyGoal, FuzzyInterval, SoftBound, joint_possibility

# Shapes far outside this window push float pow into round-off beyond the
# 1e-12 round-trip contract, so the property tests stay within it.
shapes = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
levels = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestAlphaAt:
    def test_linear_triangular_midpoint(self):
        assert FuzzyInterval(0, 7, 1).alpha_at(0.5) == pytest.approx(3.5)

    def test_top_of_distribution_is_exactly_zero(self):
        assert FuzzyInterval(5, 2, 2).alpha_at(1.0) == 0.0

    def test_sublinear_shape_quarter_level(self):
        # oracle: membership inversion of the same point must give the level back
        fi = FuzzyInterval(0, 7, 0.5)
        width = fi.alpha_at(0.25)
        assert width == pytest.approx(7 * (1 - 0.5))
        assert fi.membership(fi.nominal + width) == pytest.approx(0.25, abs=1e-12)

    def test_bottom_is_exactly_the_deviation(self):
        assert FuzzyInterval(3, 11, 2.7).alpha_at(0.0) == 11.0

    def test_level_domain_errors(self):
        fi = FuzzyInterval(0, 1)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                fi.alpha_at(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FuzzyInterval(0, -1.0)
        with pytest.raises(ValueError):
            FuzzyInterval(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FuzzyInterval(math.inf, 1.0)


class TestLambdaCut:
    def test_support_of_first_coefficient(self):
        assert FuzzyInterval(0, 7, 1).lambda_cut(0.0) == (-7.0, 7.0)

    def test_support_of_second_coefficient(self):
        assert FuzzyInterval(1, 5, 1).lambda_cut(0.0) == (-4.0, 6.0)

    def test_degenerate_cut_at_level_one(self):
        assert FuzzyInterval(3, 2, 1).lambda_cut(1.0) == (3.0, 3.0)

    @given(shapes, levels, levels)
    def test_cuts_are_nested(self, z, lam1, lam2):
        lo_level, hi_level = min(lam1, lam2), max(lam1, lam2)
        fi = FuzzyInterval(2.0, 5.0, z)
        outer = fi.lambda_cut(lo_level)
        inner = fi.lambda_cut(hi_level)
        assert outer[0] <= inner[0] and inner[1] <= outer[1]


class TestMembership:
    def test_nominal_value(self):
        assert FuzzyInterval(0, 7, 1).membership(0.0) == 1.0

    def test_triangular_halfway(self):
        # oracle: alpha_at(0.5) = 3.5 for <0,7>, so 3.5 maps back to 0.5
        assert FuzzyInterval(0, 7, 1).membership(3.5) == pytest.approx(0.5)

    def test_outside_support(self):
        assert FuzzyInterval(0, 7, 1).membership(8.0) == 0.0

    def test_support_endpoint_maps_to_zero(self):
        assert FuzzyInterval(0, 7, 2).membership(7.0) == 0.0

    def test_zero_deviation_is_an_indicator(self):
        fi = FuzzyInterval(4.0, 0.0)
        assert fi.membership(4.0) == 1.0
        assert fi.membership(4.0 + 1e-12) == 0.0

    @given(shapes, st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
    @settings(max_examples=200)
    def test_round_trip_through_the_cut_boundary(self, z, lam):
        # Below lam**z ~ 1e-3 the term 1 - lam**z cancels so hard in float64
        # that no evaluation of the closed form can return the level to 1e-12.
        assume(lam ** z >= 1e-3)
        fi = FuzzyInterval(-1.5, 4.0, z)
        value = fi.nominal + fi.alpha_at(lam)
        assert abs(fi.membership(value) - lam) <= 1e-12


class TestJointPossibility:
    ROW = (FuzzyInterval(0, 7, 1), FuzzyInterval(1, 5, 1))

    def test_nominal_scenario(self):
        assert joint_possibility(self.ROW, (0.0, 1.0)) == 1.0

    def test_min_over_coordinates(self):
        assert joint_possibility(self.ROW, (3.5, 1.0)) == pytest.approx(0.5)

    def test_outside_one_support(self):
        assert joint_possibility(self.ROW, (0.0, 7.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            joint_possibility(self.ROW, (0.0,))

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2))
    def test_equals_min_of_memberships(self, scenario):
        expected = min(fi.membership(v) for fi, v in zip(self.ROW, scenario))
        assert joint_possibility(self.ROW, scenario) == expected


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
        assert sb.is_crisp

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
        fi = FuzzyInterval(0.0, 3.0, z)
        values = [fi.alpha_at(v) for v in self.GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 4.0])
    def test_relaxed_rhs_nonincreasing_on_grid(self, z):
        sb = SoftBound(5.0, 2.0, z)
        values = [sb.relaxed_rhs(v) for v in self.GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))
