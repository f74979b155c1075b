"""Gaussian moment engine against adaptive-quadrature and identity oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mfdl import moments
from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.moments import (
    _GH_NODES,
    _GH_WEIGHTS,
    _even_decay_integral,
    _gh_cross,
    _rectangle_prob,
    _relu_cross_kernel,
    _sech2,
    _sech4,
    dphi_cross,
    dphi_sq,
    phi_cross,
    phi_sq,
)
from oracles import _ndtr, even_decay_integral_loop, rectangle_prob_loop

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

    @pytest.mark.parametrize("q", [1.0, 4.0, 1e4, 1e16, 1e150, 1e300])
    def test_hardtanh_value_moment_at_large_q_vs_mpmath(self, q):
        """E[hardtanh(sqrt(q) z)^2] = q E[z^2; |z| < a] + P(|z| > a), a = 1/sqrt(q),
        tends to 1; q (erf(a/sqrt2) - 2 a pdf(a)) would cancel.  Oracle: the
        truncated second moment as the lower incomplete gamma function
        (2/sqrt(pi)) gamma(3/2, a^2/2), at 50 digits."""
        with mpmath.workdps(50):
            a = 1 / mpmath.sqrt(q)
            inside = 2 / mpmath.sqrt(mpmath.pi) * mpmath.gammainc(mpmath.mpf(1.5), 0, a * a / 2)
            exact = q * inside + mpmath.erfc(a / mpmath.sqrt(2))
        got = phi_sq(Activation.HARDTANH, q)
        assert abs(got - exact) <= 1e-15 * exact

    def test_hardtanh_value_moment_continuous_at_unit_q(self):
        """The series takes over above q = 1, the closed form at and below."""
        at_one = phi_sq(Activation.HARDTANH, 1.0)
        for q in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
            assert abs(phi_sq(Activation.HARDTANH, float(q)) - at_one) <= 1e-15 * at_one


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

    @pytest.mark.parametrize("c", [-0.9, 0.0, 0.5, 0.999])
    def test_hardtanh_derivative_cross_at_zero_length(self, c):
        """phi'(0) = 1, so a zero-length input leaves P(|u| < 1) of the other,
        which is dphi_sq (phi'^2 = phi' for an indicator): the q -> 0+ limit."""
        act = Activation.HARDTANH
        for qb in (0.3, 1.0, 25.0):
            assert dphi_cross(act, 0.0, qb, c) == dphi_sq(act, qb)
            assert dphi_cross(act, qb, 0.0, c) == dphi_sq(act, qb)
            assert abs(dphi_cross(act, 1e-300, qb, c) - dphi_sq(act, qb)) <= 1e-15
        assert dphi_cross(act, 0.0, 0.0, c) == 1.0

    def test_uncorrelated_odd_cross_vanishes(self):
        for act in (Activation.LINEAR, Activation.TANH, Activation.HARDTANH, Activation.ERF):
            assert abs(phi_cross(act, 1.0, 2.0, 0.0)) < 1e-14


class TestErfCrossVsMpmath:
    """The Erf closed forms against 50-digit mpmath over the whole variance
    range: qa * qb overflows past q ~ 1e154, and the determinant
    (1 + h qa)(1 + h qb) - h^2 qa qb c^2, h = pi/2, cancels as |c| -> 1."""

    PAIRS = [(q, q) for q in (1e-3, 1.0, 1e3, 1e12, 1e150, 1e300)] + [(1e-3, 1e300), (2.0, 1e12)]

    @staticmethod
    def _exact(qa, qb, c):
        h, qa, qb, c = mpmath.pi / 2, mpmath.mpf(qa), mpmath.mpf(qb), mpmath.mpf(c)
        na, nb = 1 + h * qa, 1 + h * qb
        cross = 2 / mpmath.pi * mpmath.asin(h * mpmath.sqrt(qa * qb) * c / mpmath.sqrt(na * nb))
        return cross, 1 / mpmath.sqrt(na * nb - h * h * qa * qb * c * c)

    @pytest.mark.parametrize("qa,qb", PAIRS)
    def test_vs_mpmath(self, qa, qb):
        with mpmath.workdps(50):
            for c in (0.0, 0.5, -0.5, 0.999999, -0.999999):
                cross, dcross = self._exact(qa, qb, c)
                got = phi_cross(Activation.ERF, qa, qb, c)
                assert abs(got - cross) <= 1e-13 * abs(cross), (c, got, cross)
                got = dphi_cross(Activation.ERF, qa, qb, c)
                assert abs(got - dcross) <= 1e-14 * dcross, (c, got, dcross)


class TestBvnCdf:
    """Bivariate normal probabilities: the library's rectangle against its
    closed limits and sampling, and the oracle's normal CDF against mpmath."""

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
        for alpha, beta in [(0.7, 0.2), (1.3, 1.3), (2.0, 30.0), (1e-3, 0.8)]:
            independent = math.erf(alpha / math.sqrt(2)) * math.erf(beta / math.sqrt(2))
            assert abs(_rectangle_prob(alpha, beta, 0.0) - independent) < 1e-14

    def test_comonotone_limits(self):
        """|r| = 1 gives P(|X| < min(alpha, beta)), and the formula reaches
        it from inside."""
        limit = math.erf(0.3 / math.sqrt(2))
        for r in (1.0, -1.0, 1.0 - 1e-12, -1.0 + 1e-12):
            assert _rectangle_prob(0.3, 1.2, r) == pytest.approx(limit, abs=1e-15)
            assert _rectangle_prob(1.2, 0.3, r) == pytest.approx(limit, abs=1e-15)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        n = 4_000_000
        z1, z2 = rng.standard_normal((2, n))
        for alpha, beta, r in [(0.5, 0.3, 0.8), (1.0, 1.0, -0.5), (1.2, 0.7, 0.95)]:
            y = r * z1 + math.sqrt(1 - r * r) * z2
            mc = np.mean((np.abs(z1) < alpha) & (np.abs(y) < beta))
            assert abs(_rectangle_prob(alpha, beta, r) - mc) < 6e-4


def _tanh2(u):
    return np.tanh(u) ** 2


_PANEL_QS = [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1e-3, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 3.0, 1e3]
_PANEL_INTEGRANDS = {"sech2": _sech2, "sech4": _sech4, "tanh2": _tanh2}


def _panel_loop(g, q):
    # below q ~ 1e-306 the loop's Gaussian exponent overflows to -inf, and exp
    # gives the right 0
    with np.errstate(over="ignore"):
        return even_decay_integral_loop(g, q)


def _price_nodes(c):
    """The correlations at which _hardtanh_cross evaluates the rectangle."""
    lo = math.sqrt(1.0 - abs(c))
    u = lo + 0.5 * (1.0 - lo) * (1.0 + moments._GL_CORR_NODES)
    return 1.0 - u * u


class TestArrayRulesBitForBit:
    """The array-valued panel rule against the one-panel-at-a-time loop it
    replaced (tests/oracles.py): every bit equal, since fixed points, phase
    grids and CSVs rest on it."""

    @pytest.mark.parametrize("g", _PANEL_INTEGRANDS.values(), ids=_PANEL_INTEGRANDS.keys())
    @pytest.mark.parametrize("q", _PANEL_QS)
    def test_panel_integral_equals_panel_loop(self, g, q):
        assert _even_decay_integral(g, q) == _panel_loop(g, q)

    @pytest.mark.parametrize("q", _PANEL_QS)
    def test_tanh_moments_equal_panel_loop(self, q):
        value = _panel_loop(_tanh2, q) if q <= 1.0 else 1.0 - _panel_loop(_sech2, q)
        assert phi_sq(Activation.TANH, q) == value
        assert dphi_sq(Activation.TANH, q) == _panel_loop(_sech4, q)

    @settings(max_examples=150, deadline=None)
    @given(q=st.floats(0.0, 1e6))
    def test_property_equal_to_loops(self, q):
        for g in _PANEL_INTEGRANDS.values():
            assert _even_decay_integral(g, q) == _panel_loop(g, q)


class TestRectangleAccuracy:
    """The four-term rectangle against 40-digit mpmath and against the
    four-corner loop of the general bivariate CDF (tests/oracles.py)."""

    QS = (1e-3, 0.5, 3.0, 100.0, 1e3)

    @staticmethod
    def _plackett(qa, qb, r):
        """P(r) = P(0) + int_0^r P'(t) dt for r >= 0, with P' from Plackett's
        identity, in u = sqrt(1 - t), which absorbs its 1/sqrt(1 - t) growth
        as t -> 1."""
        alpha, beta = 1 / mpmath.sqrt(qa), 1 / mpmath.sqrt(qb)
        at_zero = mpmath.erf(alpha / mpmath.sqrt(2)) * mpmath.erf(beta / mpmath.sqrt(2))
        dp = _rectangle_derivative(alpha, beta)
        return at_zero + mpmath.quad(lambda u: 2 * u * dp(1 - u * u), [mpmath.sqrt(1 - mpmath.mpf(r)), 1])

    def test_vs_mpmath(self):
        """Within 1e-13 relative, plus two ulps of 1: the form 1 - 2 (sum of
        T) cannot resolve P below its own rounding, so P ~ 7e-4 at
        qa = qb = 1e3 is held to ~6e-13 relative (README, "Numerical
        notes"; ROADMAP J).  P is even
        in r and symmetric in (alpha, beta), so one oracle value checks four
        library values; r = 0 is the product of erfs."""
        with mpmath.workdps(40):
            for i, qa in enumerate(self.QS):
                for qb in self.QS[i:]:
                    for r in (0.0, 0.3, 0.9, 0.999999):
                        exact = (
                            mpmath.erf(1 / mpmath.sqrt(2 * qa)) * mpmath.erf(1 / mpmath.sqrt(2 * qb))
                            if r == 0.0 else self._plackett(qa, qb, r)
                        )
                        for a, b in ((qa, qb), (qb, qa)):
                            for sign in (1.0, -1.0):
                                got = _rectangle_prob(1 / math.sqrt(a), 1 / math.sqrt(b), sign * r)
                                assert abs(got - exact) <= 1e-13 * exact + 2.0**-51, (a, b, sign * r)

    def test_oracle_crosses_the_step(self):
        """At r = 0.999999 the inner probability of the 1-D integral over x
        steps within s = sqrt(1 - r^2) of x = +-beta/r; with breakpoints there
        it agrees with the Plackett oracle used above."""
        qa = qb = 100.0
        with mpmath.workdps(40):
            alpha, beta = 1 / mpmath.sqrt(qa), 1 / mpmath.sqrt(qb)
            r = mpmath.mpf(0.999999)
            s = mpmath.sqrt((1 - r) * (1 + r))
            step = beta / r
            pts = {mpmath.mpf(0)} | {x for b in (step, -step) for x in (b, b - s, b + s)}
            pts = sorted({-alpha, alpha} | {x for x in pts if -alpha < x < alpha})
            inner = lambda x: mpmath.ncdf((beta - r * x) / s) - mpmath.ncdf((-beta - r * x) / s)
            over_x = mpmath.quad(lambda x: mpmath.npdf(x) * inner(x), pts)
            assert abs(over_x - self._plackett(qa, qb, r)) <= mpmath.mpf(10) ** -30
        got = _rectangle_prob(float(alpha), float(beta), 0.999999)
        assert abs(got - over_x) <= 1e-13 * over_x

    @settings(max_examples=150, deadline=None)
    @given(qa=st.floats(1e-6, 10.0), qb=st.floats(1e-6, 10.0), c=st.floats(-1.0, 1.0))
    def test_property_close_to_corner_loop(self, qa, qb, c):
        alpha, beta = 1.0 / math.sqrt(qa), 1.0 / math.sqrt(qb)
        r = _price_nodes(c)
        loop = rectangle_prob_loop(alpha, beta, r)
        assert np.max(np.abs(_rectangle_prob(alpha, beta, r) - loop) / loop) <= 1e-14


class TestArrayRuleStructure:
    """Each rule is one array evaluation, whatever its panel or node count."""

    @pytest.mark.parametrize("q", [q for q in _PANEL_QS if q > 0.0])
    def test_panel_integrand_evaluated_once(self, q):
        """One (P, 24) block of at most 8 panels, with no warning: panels stop
        where the Gaussian is 0.0 (u >= 40 sqrt(q)), so a subnormal q neither
        overflows the exponent nor builds hundreds of panels."""
        calls = []

        def g(u):
            calls.append(u.shape)
            return _sech2(u)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _even_decay_integral(g, q)
        assert len(calls) == 1 and calls[0][0] <= 8 and calls[0][1] == 24, calls

    @pytest.mark.parametrize("nodes", [48, 96])
    def test_owens_t_calls_independent_of_node_count(self, monkeypatch, nodes):
        """Four Owen's T calls per rectangle, on all correlation nodes at once."""
        calls = []
        owens_t = scipy.special.owens_t

        def counting(h, a):
            calls.append(np.shape(a))
            return owens_t(h, a)

        monkeypatch.setattr(scipy.special, "owens_t", counting)
        x, w = leggauss(nodes)
        monkeypatch.setattr(moments, "_GL_CORR_NODES", x)
        monkeypatch.setattr(moments, "_GL_CORR_WEIGHTS", w)
        phi_cross(Activation.HARDTANH, 0.7, 2.0, 0.4)
        assert len(calls) == 4 and set(calls) == {(nodes,)}, calls
        calls.clear()
        dphi_cross(Activation.HARDTANH, 0.7, 2.0, 0.4)
        assert calls == [()] * 4, calls


def _rectangle_derivative(alpha, beta):
    """d/dt P(|X| < alpha, |Y| < beta) at correlation t: Plackett's identity
    d/dt P(X <= h, Y <= k) = phi2(h, k; t), summed over the four corners."""

    def phi2(h, k, t):
        s2 = 1 - t * t
        return mpmath.exp(-(h * h - 2 * t * h * k + k * k) / (2 * s2)) / (2 * mpmath.pi * mpmath.sqrt(s2))

    return lambda t: 2 * (phi2(alpha, beta, t) - phi2(alpha, -beta, t))


class TestHardTanhCrossVsMpmath:
    """Independent oracles for the Owen's T route, at 30 digits: the
    rectangle probability as a 1-D integral over the first variable, and the
    value moment as its Price integral in c, with the rectangle from
    Plackett's identity."""

    POINTS = [(0.5, 0.5, 0.3), (2.0, 0.7, 0.9), (0.05, 3.0, -0.6), (1.0, 1.2, 0.999)]

    @pytest.mark.parametrize("qa,qb,c", POINTS)
    def test_derivative_moment_is_rectangle_integral(self, qa, qb, c):
        with mpmath.workdps(30):
            alpha, beta = 1 / mpmath.sqrt(qa), 1 / mpmath.sqrt(qb)
            t = mpmath.mpf(c)
            s = mpmath.sqrt(1 - t * t)
            inner = lambda z: mpmath.ncdf((beta - t * z) / s) - mpmath.ncdf((-beta - t * z) / s)
            # the inner probability steps where t z = +-beta
            pts = sorted({-alpha, alpha} | {x for x in (beta / t, -beta / t) if -alpha < x < alpha})
            exact = mpmath.quad(lambda z: mpmath.npdf(z) * inner(z), pts)
            at_zero = mpmath.erf(alpha / mpmath.sqrt(2)) * mpmath.erf(beta / mpmath.sqrt(2))
            plackett = at_zero + mpmath.quad(_rectangle_derivative(alpha, beta), [0, t])
        got = dphi_cross(Activation.HARDTANH, qa, qb, c)
        assert abs(got - exact) <= 1e-13 * abs(exact)
        assert abs(got - plackett) <= 1e-13 * abs(plackett)

    @pytest.mark.parametrize("qa,qb,c", POINTS)
    def test_value_moment_is_price_integral(self, qa, qb, c):
        """phi_cross = sqrt(qa qb) int_0^c P(t) dt, and with P(t) = P(0) +
        int_0^t P'(s) ds the double integral folds to one:
        c P(0) + int_0^c (c - s) P'(s) ds."""
        with mpmath.workdps(30):
            alpha, beta = 1 / mpmath.sqrt(qa), 1 / mpmath.sqrt(qb)
            t = mpmath.mpf(c)
            dp = _rectangle_derivative(alpha, beta)
            at_zero = mpmath.erf(alpha / mpmath.sqrt(2)) * mpmath.erf(beta / mpmath.sqrt(2))
            price = t * at_zero + mpmath.quad(lambda s: (t - s) * dp(s), [0, t])
            exact = mpmath.sqrt(mpmath.mpf(qa) * qb) * price
        got = phi_cross(Activation.HARDTANH, qa, qb, c)
        assert abs(got - exact) <= 1e-13 * abs(exact)
