"""Depth-scale grids, critical line, and trainable-length bounds."""

import math

import numpy as np
import pytest

from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.meanfield import MeanFieldParams
from mfdl.phase import critical_line, default_grid, depth_scale_grid


def _trainable_bound(p, act):
    """The trainable_bound column of a one-point grid at p."""
    return depth_scale_grid([p.sigma_w_sq], p, act).trainable_bound[0]


class TestDepthScaleGrid:
    def test_linear_point_values(self):
        p_base = MeanFieldParams(0.5, 0.05, 1.0)
        curve = depth_scale_grid([0.25, 0.5, 0.75], p_base, Activation.LINEAR)
        assert np.all(curve.converged)
        assert curve.xi1[1] == pytest.approx(1.0 / math.log(2.0), rel=1e-9)
        assert curve.chi1[1] == pytest.approx(0.5, abs=1e-12)

    def test_divergent_points_flagged_not_dropped(self):
        p_base = MeanFieldParams(0.5, 0.05, 1.0)
        curve = depth_scale_grid([0.5, 1.5], p_base, Activation.LINEAR)
        assert curve.converged.tolist() == [True, False]
        assert math.isnan(curve.xi1[1])
        assert len(curve.diagnostics) == 1
        assert curve.sigma_w_sq_grid.size == 2

    def test_zero_bias_ordered_points_flagged(self):
        """Without bias the ordered side has q* = 0, where the correlation is
        undefined; the chaotic side has q* > 0."""
        p_base = MeanFieldParams(0.5, 0.0, 1.0)
        curve = depth_scale_grid([0.5, 2.0], p_base, Activation.TANH)
        assert curve.converged.tolist() == [False, True]
        assert "DegenerateStateError" in curve.diagnostics[0]
        assert curve.q_star[1] > 0.0

    def test_trainable_bound_is_pointwise_min(self):
        p_base = MeanFieldParams(1.0, 0.05, 0.9)
        grid = np.linspace(0.8, 3.0, 7)
        curve = depth_scale_grid(grid, p_base, Activation.TANH)
        np.testing.assert_array_equal(
            curve.trainable_bound, np.minimum(curve.bound_12xi1, curve.bound_12xi2)
        )
        ok = curve.converged
        assert np.all(curve.trainable_bound[ok] <= curve.bound_12xi1[ok])
        assert np.all(curve.trainable_bound[ok] <= curve.bound_12xi2[ok])

    def test_single_peak_structure_around_pole(self):
        """xi1 rises toward the chi1 = 1 crossing and falls beyond it: the
        |1/ln chi| branch has no sign flips away from the pole."""
        p_base = MeanFieldParams(1.0, 0.05, 1.0)
        grid = np.linspace(1.0, 4.0, 24)
        curve = depth_scale_grid(grid, p_base, Activation.TANH)
        xi1 = curve.xi1
        peak = int(np.nanargmax(xi1))
        assert 0 < peak < 23
        assert np.all(np.diff(xi1[: peak + 1]) > 0)
        assert np.all(np.diff(xi1[peak + 1 :]) < 0)
        assert curve.chi1[peak - 1] < 1.0 < curve.chi1[peak + 1] or curve.chi1[peak] > 1.0

    def test_fine_grid_through_the_pole(self):
        """Every point of a 200-point grid across chi1 = 1 converges, with
        xi1 <= xi2 on both sides of the pole."""
        p_base = MeanFieldParams(1.6, 0.05, 1.0)
        curve = depth_scale_grid(np.linspace(1.6, 1.9, 200), p_base, Activation.TANH)
        assert np.all(curve.converged), curve.diagnostics
        assert curve.chi1[0] < 1.0 < curve.chi1[-1]
        assert np.all(curve.xi1 <= curve.xi2)

    def test_invalid_grid_rejected(self):
        p_base = MeanFieldParams(1.0, 0.05, 1.0)
        with pytest.raises(ConfigError):
            depth_scale_grid([], p_base, Activation.TANH)
        with pytest.raises(ConfigError):
            depth_scale_grid([2.0, 1.0], p_base, Activation.TANH)

    def test_default_grid(self):
        g = default_grid(1.0, 4.0, 64, True)
        assert g.size == 64 and g[0] == 1.0 and g[-1] == pytest.approx(4.0)
        assert np.all(np.diff(np.log(g)) > 0)


class TestCriticalLine:
    def test_linear_no_dropout(self):
        p = MeanFieldParams(0.5, 0.05, 1.0)
        assert critical_line(p, Activation.LINEAR, (0.5, 2.0)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_linear_half_keep_rate(self):
        p = MeanFieldParams(0.3, 0.05, 0.5)
        assert critical_line(p, Activation.LINEAR, (0.2, 1.0)) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_relu_no_dropout(self):
        p = MeanFieldParams(1.0, 0.05, 1.0)
        assert critical_line(p, Activation.RELU, (1.0, 3.0)) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_residual_at_root(self):
        from mfdl.meanfield import chi1_at_fixed_point
        from dataclasses import replace

        p = MeanFieldParams(1.0, 0.05, 1.0)
        crit = critical_line(p, Activation.TANH, (0.5, 4.0))
        chi = chi1_at_fixed_point(replace(p, sigma_w_sq=crit), Activation.TANH)
        assert abs(chi - 1.0) < 1e-8

    def test_bad_bracket_rejected(self):
        p = MeanFieldParams(1.0, 0.05, 1.0)
        with pytest.raises(ConfigError):
            critical_line(p, Activation.RELU, (2.5, 3.0))  # chi1 > 1 on both ends
        with pytest.raises(ConfigError):
            critical_line(p, Activation.RELU, (3.0, 2.0))


class TestTrainableLength:
    def test_equal_scales_give_twelve(self):
        """chi1 = chi2 = 1/e makes both depth scales 1, so the bound is 12."""
        p = MeanFieldParams(math.exp(-1.0), 0.3, 1.0)
        assert _trainable_bound(p, Activation.LINEAR) == pytest.approx(12.0, rel=1e-9)

    def test_no_dropout_binds_via_xi1(self):
        """At rho = 1 the single-input scale is the smaller one, so the
        bound equals 12 xi1."""
        from mfdl.meanfield import depth_scales

        for sw2 in (0.8, 1.4, 2.5):
            p = MeanFieldParams(sw2, 0.05, 1.0)
            d = depth_scales(p, Activation.TANH)
            if math.isinf(d.xi1):
                continue
            assert _trainable_bound(p, Activation.TANH) == pytest.approx(
                12.0 * d.xi1, rel=1e-12
            )

    def test_infinite_exactly_at_criticality(self):
        """A point where chi1 = chi2 = 1 exactly maps to an infinite bound."""
        p = MeanFieldParams(1.0, 0.0, 1.0)  # identity length and correlation maps
        assert _trainable_bound(p, Activation.LINEAR) == math.inf
