"""Gaussian moment engine against adaptive-quadrature and identity oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.moments import _ndtr, _relu_cross_kernel, bvn_cdf, dphi_cross, dphi_sq, phi_cross, phi_sq

_PDF = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _quad_sq(act, q, deriv):
    f = act.derivative_at if deriv else act.value_at
    s = math.sqrt(q)
    pts = sorted({0.0, 1.0 / s, -1.0 / s}) if q > 0 else None
    val, _ = quad(
        lambda z: float(f(s * z)) ** 2 * _PDF(z), -40, 40, limit=500, points=pts
    )
    return val


QS = [0.01, 0.25, 1.0, 4.0, 25.0, 100.0]


class TestUnivariate:
    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("q", QS)
    def test_value_moment_vs_adaptive_quadrature(self, act, q):
        assert abs(phi_sq(act, q) - _quad_sq(act, q, False)) < 2e-8

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("q", QS)
    def test_derivative_moment_vs_adaptive_quadrature(self, act, q):
        assert abs(dphi_sq(act, q) - _quad_sq(act, q, True)) < 2e-8

    def test_closed_values(self):
        assert phi_sq(Activation.LINEAR, 3.7) == 3.7
        assert phi_sq(Activation.RELU, 3.0) == 1.5
        assert dphi_sq(Activation.RELU, 0.9) == 0.5
        assert abs(dphi_sq(Activation.ERF, 1.0) - 1 / math.sqrt(1 + math.pi)) < 1e-15
        assert abs(dphi_sq(Activation.HARDTANH, 2.0) - math.erf(0.5)) < 1e-15

    def test_negative_q_rejected(self):
        with pytest.raises(ConfigError):
            phi_sq(Activation.TANH, -0.1)


class TestBivariate:
    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("qa,qb,c", [(1.0, 1.0, 0.3), (2.0, 0.7, 0.9), (0.5, 0.5, -0.6)])
    def test_cross_vs_monte_carlo(self, act, qa, qb, c):
        rng = np.random.default_rng(123)
        n = 2_000_000
        z1, z2 = rng.standard_normal((2, n))
        u1 = math.sqrt(qa) * z1
        u2 = math.sqrt(qb) * (c * z1 + math.sqrt(1 - c * c) * z2)
        mc_v = np.mean(act.value_at(u1) * act.value_at(u2))
        mc_d = np.mean(act.derivative_at(u1) * act.derivative_at(u2))
        sd_v = np.std(act.value_at(u1) * act.value_at(u2)) / math.sqrt(n)
        sd_d = np.std(act.derivative_at(u1) * act.derivative_at(u2)) / math.sqrt(n)
        assert abs(phi_cross(act, qa, qb, c) - mc_v) < 6 * sd_v + 1e-5
        assert abs(dphi_cross(act, qa, qb, c) - mc_d) < 6 * sd_d + 1e-5

    @pytest.mark.parametrize("act", list(Activation))
    def test_degenerate_ties_exact(self, act):
        """|c| = 1 must reduce exactly to the univariate moments so that
        slope identities hold to machine precision at a fully correlated
        fixed point."""
        q = 1.3
        assert phi_cross(act, q, q, 1.0) == phi_sq(act, q)
        # relu(u) relu(-u) = 0; every other kind is odd
        expected = 0.0 if act is Activation.RELU else -phi_sq(act, q)
        assert phi_cross(act, q, q, -1.0) == expected
        assert dphi_cross(act, q, q, 1.0) == dphi_sq(act, q)
        expected = 0.0 if act is Activation.RELU else dphi_sq(act, q)
        assert dphi_cross(act, q, q, -1.0) == expected

    @pytest.mark.parametrize("q", [0.3, 1.3, 25.0])
    def test_relu_cross_continuous_at_anticorrelation(self, q):
        """c -> -1 follows the arc-cosine kernel down to its value 0 at
        c = -1, with equal or unequal lengths."""
        act = Activation.RELU
        for eps in (1e-2, 1e-6, 1e-12):
            c = -1.0 + eps
            assert phi_cross(act, q, q, c) == pytest.approx(q * _relu_cross_kernel(c), rel=1e-12)
        assert phi_cross(act, q, q, -1.0) == q * _relu_cross_kernel(-1.0) == 0.0
        assert phi_cross(act, q, q * (1.0 + 1e-7), -1.0) == 0.0

    @pytest.mark.parametrize("q", [0.3, 1.0, 4.0, 25.0])
    def test_hardtanh_cross_continuous_at_full_correlation(self, q):
        """The value cross moment approaches phi_sq at c -> 1 at rate
        q P(|u| < 1) (1 - c), with no offset left by the quadrature."""
        act = Activation.HARDTANH
        gap = phi_sq(act, q) - phi_cross(act, q, q, 1.0 - 1e-10)
        assert 0.0 <= gap < 2e-10 * q

    def test_zero_length_gives_zero_cross(self):
        for act in Activation:
            assert phi_cross(act, 0.0, 1.0, 0.5) == 0.0

    def test_uncorrelated_odd_cross_vanishes(self):
        for act in (Activation.LINEAR, Activation.TANH, Activation.HARDTANH, Activation.ERF):
            assert abs(phi_cross(act, 1.0, 2.0, 0.0)) < 1e-14


class TestBvnCdf:
    def test_normal_cdf_vs_mpmath(self):
        """Phi from math.erfc: relative error <= 1e-12 down to the deep lower
        tail (x/sqrt(2) is rounded before erfc), absolute <= 1e-15 in the bulk."""
        with mpmath.workdps(40):
            for x in np.linspace(-37.0, 8.0, 1801):
                exact = float(mpmath.ncdf(x))
                assert abs(_ndtr(x) - exact) <= 1e-12 * exact, x
                if abs(x) <= 8.0:
                    assert abs(_ndtr(x) - exact) <= 1e-15, x

    def test_independence(self):
        from scipy.special import ndtr

        for h, k in [(0.7, -0.2), (0.0, 1.3), (-2.0, -1.0)]:
            assert abs(bvn_cdf(h, k, 0.0) - ndtr(h) * ndtr(k)) < 1e-14

    def test_orthant_formula(self):
        for r in (-0.9, -0.3, 0.0, 0.5, 0.95):
            assert abs(bvn_cdf(0.0, 0.0, r) - (0.25 + math.asin(r) / (2 * math.pi))) < 1e-14

    def test_comonotone_limits(self):
        from scipy.special import ndtr

        assert bvn_cdf(0.3, 1.2, 1.0) == pytest.approx(ndtr(0.3), abs=1e-15)
        assert bvn_cdf(0.3, -0.3, -1.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        n = 4_000_000
        z1, z2 = rng.standard_normal((2, n))
        for h, k, r in [(0.5, -0.3, 0.8), (1.0, 1.0, -0.5), (-1.2, 0.7, 0.95)]:
            y = r * z1 + math.sqrt(1 - r * r) * z2
            mc = np.mean((z1 <= h) & (y <= k))
            assert abs(bvn_cdf(h, k, r) - mc) < 6e-4
