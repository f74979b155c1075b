"""Closed-form linear-network gradient metrics and their explicit oracles."""

import math

import numpy as np
import pytest

from mfdl.errors import ConfigError
from mfdl.linear_theory import g_aa_closed, g_ab_closed, independence_baseline
from mfdl.meanfield import MeanFieldParams
from oracles import appendix_layer_oracle, delta_moment_explicit


class TestGaaClosed:
    def test_last_layer(self):
        p = MeanFieldParams(0.5, 1.5, 1.0)
        assert g_aa_closed(10, 10, p, 3.0) == pytest.approx(36.0, rel=1e-14)

    def test_penultimate_layer(self):
        p = MeanFieldParams(0.5, 1.5, 1.0)
        # 4 * 9 * 0.5 * (1 + 0.5)
        assert g_aa_closed(9, 10, p, 3.0) == pytest.approx(27.0, rel=1e-14)

    def test_marginal_ratio_grows_linearly(self):
        """At sigma_w^2 = rho the power factor is 1 and the bracket grows by
        one unit per layer of depth."""
        p = MeanFieldParams(0.7, 0.2, 0.7)
        q = 1.0
        vals = [g_aa_closed(l, 30, p, q) for l in (30, 29, 28, 27)]
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0], rtol=1e-12)

    def test_ratio_approaches_chi1(self):
        p = MeanFieldParams(0.5, 0.1, 0.8)
        chi1 = 0.5 / 0.8
        L = 120
        ratio = g_aa_closed(20, L, p, 1.3) / g_aa_closed(21, L, p, 1.3)
        assert ratio == pytest.approx(chi1, rel=1e-10)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = MeanFieldParams(rng.uniform(0.05, 2.0), rng.uniform(0, 1), rng.uniform(0.2, 1.0))
            assert g_aa_closed(3, 17, p, rng.uniform(0.01, 5.0)) > 0.0

    def test_layer_out_of_range(self):
        p = MeanFieldParams(0.5, 0.1, 1.0)
        with pytest.raises(ConfigError):
            g_aa_closed(0, 10, p, 1.0)
        with pytest.raises(ConfigError):
            g_aa_closed(11, 10, p, 1.0)


class TestGabClosed:
    def test_last_layer(self):
        p = MeanFieldParams(0.9, 0.3, 0.6)
        assert g_ab_closed(7, 7, p, 1.7) == pytest.approx(4 * 1.7**2, rel=1e-14)

    def test_penultimate_rho_one(self):
        p = MeanFieldParams(0.5, 0.1, 1.0)
        expected = 4 * 2.0**2 * 0.5 * 1.5
        assert g_ab_closed(9, 10, p, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_dropout_bracket_explodes_geometrically(self):
        """For sigma_w^2 > rho^2 the bracket grows like (sigma_w^2/rho^2)^n,
        the mechanism behind the deep-layer blow-up of the pair metric."""
        p = MeanFieldParams(0.5, 0.1, 0.4)  # bracket ratio = 3.125
        vals = np.array([g_ab_closed(l, 60, p, 1.0) for l in (40, 30, 20)])
        ratios = vals[1:] / vals[:-1]
        # dominant per-layer factor is sigma_w^2 * sigma_w^2/rho^2 = 1.5625
        per_layer = 0.5 * 0.5 / 0.4**2
        assert ratios[0] == pytest.approx(per_layer**10, rel=1e-6)

    def test_log_space_matches_direct_at_boundary(self):
        """Continuity across the direct/log-space switch at offset 50."""
        p = MeanFieldParams(0.6, 0.2, 0.5)
        L = 200
        for q_ab in (0.3, 2.0):
            v50 = g_ab_closed(L - 50, L, p, q_ab)
            v51 = g_ab_closed(L - 51, L, p, q_ab)
            per_layer = v51 / v50
            v52 = g_ab_closed(L - 52, L, p, q_ab)
            assert v52 / v51 == pytest.approx(per_layer, rel=1e-8)

    def test_deep_overflow_is_inf(self):
        p = MeanFieldParams(2.0, 0.1, 0.3)
        assert g_ab_closed(1, 500, p, 1.0) == math.inf


class TestOracle:
    def test_delta_moment_last_layer(self):
        p = MeanFieldParams(0.5, 0.1, 0.8)
        assert delta_moment_explicit(0, "aa", p, 1.7) == 4 * 1.7
        assert delta_moment_explicit(0, "ab", p, 0.6) == 4 * 0.6

    def test_delta_moment_pair_penultimate_rho_one(self):
        p = MeanFieldParams(0.5, 0.1, 1.0)
        expected = 4 * 2.0 * 0.5 * (1 + 0.5)
        assert delta_moment_explicit(1, "ab", p, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_unsupported_offset(self):
        p = MeanFieldParams(0.5, 0.1, 1.0)
        with pytest.raises(ConfigError):
            delta_moment_explicit(3, "aa", p, 1.0)
        with pytest.raises(ConfigError):
            delta_moment_explicit(1, "cc", p, 1.0)

    def test_oracle_equals_closed_forms(self):
        """The explicit last-three-layer expressions agree with the closed
        induction forms at l = L - k to 1e-12 relative (random parameters
        in the convergent regime sigma_w^2 < rho)."""
        rng = np.random.default_rng(17)
        L = 9
        for _ in range(100):
            rho = rng.uniform(0.25, 1.0)
            p = MeanFieldParams(rng.uniform(0.02, 0.95) * rho, rng.uniform(0.0, 1.5), rho)
            q = rng.uniform(0.05, 6.0)
            for k in (0, 1, 2):
                aa = appendix_layer_oracle(k, "aa", p, q)
                ab = appendix_layer_oracle(k, "ab", p, q)
                assert aa == pytest.approx(g_aa_closed(L - k, L, p, q), rel=1e-12)
                assert ab == pytest.approx(g_ab_closed(L - k, L, p, q), rel=1e-12)


class TestIndependenceBaseline:
    def test_anchor_layer_unchanged(self):
        assert independence_baseline(12, 12, 0.7, 0.5, 3.0, 2.0) == (3.0, 2.0)

    def test_unit_slope_is_constant(self):
        g_aa, _ = independence_baseline(2, 40, 1.0, 0.5, 5.0, 1.0)
        assert g_aa == 5.0

    def test_agrees_with_closed_form_up_to_bracket(self):
        """At rho = 1 with sigma_w^2 < 1 the closed-form bracket converges,
        so the geometric extrapolation tracks the closed form up to a
        constant factor deep inside the network."""
        p = MeanFieldParams(0.5, 0.1, 1.0)
        q = 0.2
        L = 100
        chi1 = 0.5
        g_L = g_aa_closed(L, L, p, q)
        ratios = []
        for l in (10, 20, 30):
            base, _ = independence_baseline(l, L, chi1, chi1, g_L, g_L)
            ratios.append(g_aa_closed(l, L, p, q) / base)
        assert np.allclose(ratios, ratios[0], rtol=1e-10)
