"""Gaussian moment engine against adaptive-quadrature and identity oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.moments import (
    _GH_NODES,
    _GH_WEIGHTS,
    _gh_cross,
    _ndtr,
    _relu_cross_kernel,
    bvn_cdf,
    dphi_cross,
    dphi_sq,
    phi_cross,
    phi_sq,
)

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

    def test_tanh_value_moment_at_small_q_vs_mpmath(self):
        """phi_sq ~ q - 2q^2 as q -> 0, so 1 - E[sech^2] keeps only an absolute
        accuracy there (relative error 1.3e-4 at q = 1e-12); the value must
        stay relatively exact.  Oracle: mpmath's quadrature at 40 digits."""
        with mpmath.workdps(40):
            for q in np.geomspace(1e-12, 1.0, 25):
                s = mpmath.sqrt(q)
                exact = 2 * mpmath.quad(lambda z: mpmath.tanh(s * z) ** 2 * mpmath.npdf(z), [0, 1, 4, 10, 40])
                got = phi_sq(Activation.TANH, q)
                assert abs(got - exact) <= 1e-13 * exact, q


class TestGaussHermiteRule:
    """The 64-node rule of the bivariate Tanh moments, rescaled to N(0, 1)."""

    def test_weights_positive_and_sum_to_one(self):
        assert np.all(_GH_WEIGHTS > 0.0)
        assert abs(_GH_WEIGHTS.sum() - 1.0) < 1e-14

    def test_nodes_increasing_and_symmetric(self):
        assert _GH_NODES.shape == _GH_WEIGHTS.shape == (64,)
        assert np.all(np.diff(_GH_NODES) > 0.0)
        np.testing.assert_array_equal(_GH_NODES, -_GH_NODES[::-1])
        np.testing.assert_array_equal(_GH_WEIGHTS, _GH_WEIGHTS[::-1])

    @pytest.mark.parametrize("k", range(6))
    def test_even_moments_exact(self, k):
        """E[z^2k] = (2k - 1)!!; odd moments vanish by the symmetry."""
        exact = math.prod(range(2 * k - 1, 0, -2))
        assert abs(np.dot(_GH_WEIGHTS, _GH_NODES ** (2 * k)) - exact) <= 1e-13 * exact
        assert np.dot(_GH_WEIGHTS, _GH_NODES ** (2 * k + 1)) == pytest.approx(0.0, abs=1e-15 * exact)

    def test_arrays_read_only(self):
        for arr in (_GH_NODES, _GH_WEIGHTS):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("qa,qb,c", [(1.0, 1.0, 0.0), (2.0, 0.7, 0.3), (0.4, 9.0, -0.95)])
    def test_tensor_rule_exact_on_a_polynomial(self, qa, qb, c):
        """E[u1 u2] = sqrt(qa qb) c: the correlated tensor sum is exact for
        Linear, whose integrand is a degree-2 polynomial."""
        got = _gh_cross(Activation.LINEAR, qa, qb, c, False)
        assert abs(got - math.sqrt(qa * qb) * c) <= 1e-14

    def test_tensor_rule_integrates_a_constant(self):
        """Linear's derivative is 1, so the sum is the rule's total weight,
        on the tensor rule and on the one-dimensional |c| = 1 branch."""
        for c in (-1.0, 0.0, 0.3, 1.0):
            assert abs(_gh_cross(Activation.LINEAR, 1.3, 0.6, c, True) - 1.0) < 1e-13

    def test_unit_variance_on_the_diagonal(self):
        """c = 1 takes the one-dimensional branch: E[z z] = 1."""
        assert abs(_gh_cross(Activation.LINEAR, 1.0, 1.0, 1.0, False) - 1.0) < 1e-12


class TestBivariate:
    @pytest.mark.parametrize("c", [1.5, -1.0001, float("nan")])
    def test_invalid_correlation_rejected(self, c):
        for f in (phi_cross, dphi_cross):
            with pytest.raises(ConfigError):
                f(Activation.TANH, 1.0, 2.0, c)

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
