"""Quadrature rule construction and Gaussian-expectation evaluation."""

import math

import numpy as np
import pytest

from mfdl.errors import ConfigError, EvaluationError
from mfdl.quadrature import expect1, expect2, make_rule


class TestMakeRule:
    def test_two_point_rule_is_exact(self):
        """The 2-point rule is {-1, +1} with weights {1/2, 1/2}.

        Derived by hand from the two-node Hermite rule rescaled to the
        standard normal measure; exact for polynomials of degree <= 3.
        """
        rule = make_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 16, 64, 129, 360])
    def test_weights_sum_to_one_and_positive(self, order):
        rule = make_rule(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert np.all(rule.weights > 0.0)

    @pytest.mark.parametrize("order", [2, 17, 64, 360])
    def test_nodes_increasing_and_symmetric(self, order):
        rule = make_rule(order)
        assert np.all(np.diff(rule.nodes) > 0.0)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])

    def test_second_moment_order_64(self):
        rule = make_rule(64)
        assert abs(np.sum(rule.weights * rule.nodes**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, -3, 361, 513, 2.5, "64"])
    def test_invalid_orders_rejected(self, order):
        with pytest.raises(ConfigError):
            make_rule(order)

    def test_rule_is_immutable(self):
        rule = make_rule(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestExpect1:
    def test_constant(self, rule64):
        assert abs(expect1(lambda z: 1.0, rule64) - 1.0) < 1e-14

    def test_unit_variance(self, rule64):
        assert abs(expect1(lambda z: z * z, rule64) - 1.0) < 1e-12

    def test_relu_squared_half(self, rule64):
        """E[max(0,z)^2] = 1/2 by symmetry; cross-checked by Monte-Carlo."""
        val = expect1(lambda z: np.maximum(z, 0.0) ** 2, rule64)
        assert abs(val - 0.5) < 1e-12
        mc = np.random.default_rng(7).standard_normal(10_000_000)
        assert abs(np.mean(np.maximum(mc, 0.0) ** 2) - val) < 1e-3

    def test_polynomial_exactness(self):
        """Exact for polynomials up to degree 2*order - 1 (1e-10 relative).

        Gaussian moments E[z^(2k)] = (2k-1)!! supply the oracle.
        """
        for order in (4, 8, 32):
            rule = make_rule(order)
            for k in range(order):  # degree 2k <= 2*order - 2
                exact = float(np.prod(np.arange(2 * k - 1, 0, -2, dtype=np.float64))) if k else 1.0
                got = expect1(lambda z, k=k: z ** (2 * k), rule)
                assert abs(got - exact) <= 1e-10 * max(exact, 1.0), (order, k)

    def test_scalar_only_callable(self, rule64):
        # math.tanh rejects arrays, forcing the per-node fallback path;
        # libm and numpy may differ in the last ulp
        val = expect1(lambda z: math.tanh(z) ** 2, rule64)
        vec = expect1(lambda z: np.tanh(z) ** 2, rule64)
        assert abs(val - vec) < 1e-14

    def test_nan_integrand_rejected(self, rule64):
        with pytest.raises(EvaluationError):
            expect1(lambda z: np.sqrt(z), rule64)  # NaN for z < 0


class TestExpect2:
    def test_constant(self, rule64):
        for c in (-1.0, 0.0, 0.3, 1.0):
            assert abs(expect2(lambda z1, z2: 1.0, c, rule64) - 1.0) < 1e-13

    def test_independent_product_vanishes(self, rule64):
        assert abs(expect2(lambda z1, z2: z1 * z2, 0.0, rule64)) < 1e-14

    def test_correlated_pair_covariance(self, rule64):
        """E[z1 * (c z1 + sqrt(1-c^2) z2)] = c; Monte-Carlo cross-check."""
        c = 0.3
        s = math.sqrt(1 - c * c)
        f = lambda z1, z2: z1 * (c * z1 + s * z2)
        val = expect2(f, c, rule64)
        assert abs(val - 0.3) < 1e-12
        rng = np.random.default_rng(11)
        z1, z2 = rng.standard_normal((2, 2_000_000))
        assert abs(np.mean(f(z1, z2)) - val) < 2e-3

    def test_degenerate_c_equals_expect1(self, rule64):
        """At c=1 the pair integrand collapses to f(u, u); the tensor rule
        reproduces expect1 exactly because the weights sum to 1."""
        q = 1.7
        sq = math.sqrt(q)
        f2 = lambda z1, z2: np.tanh(sq * z1) * np.tanh(sq * (1.0 * z1 + 0.0 * z2))
        f1 = lambda z: np.tanh(sq * z) ** 2
        assert abs(expect2(f2, 1.0, rule64) - expect1(f1, rule64)) < 1e-14

    @pytest.mark.parametrize("c", [1.5, -1.0001, float("nan")])
    def test_invalid_correlation_rejected(self, rule64, c):
        with pytest.raises(ConfigError):
            expect2(lambda z1, z2: 1.0, c, rule64)
