"""Length/correlation recursions, fixed points, slopes, and depth scales."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfdl.activations import Activation
from mfdl.errors import (
    ConfigError,
    DegenerateStateError,
    EvaluationError,
    NonConvergenceError,
)
from mfdl.meanfield import (
    DepthScales,
    LengthState,
    MeanFieldParams,
    brent_root,
    c_fixed_point,
    c_step,
    c_trajectory,
    chi1,
    chi1_at_fixed_point,
    chi2,
    depth_scales,
    q_fixed_point,
    q_step,
    q_trajectory,
    xi_from_chi,
)
from mfdl.moments import phi_cross
from oracles import NonExponentialDecayError, c_convergence_rate


class TestParams:
    def test_valid(self):
        MeanFieldParams(1.0, 0.0, 1.0)
        MeanFieldParams(0.0, 0.5, 0.2)  # degenerate zero weight variance allowed

    @pytest.mark.parametrize(
        "sw2,sb2,rho",
        [(-0.1, 0.0, 1.0), (1.0, -0.5, 1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.2), (float("nan"), 0.0, 1.0)],
    )
    def test_invalid(self, sw2, sb2, rho):
        with pytest.raises(ConfigError):
            MeanFieldParams(sw2, sb2, rho)


class TestQStep:
    def test_affine_fixed_point(self):
        """Linear map q' = 0.5 q + 1.5 leaves q = 3 fixed."""
        p = MeanFieldParams(0.5, 1.5, 1.0)
        assert q_step(3.0, p, Activation.LINEAR) == pytest.approx(3.0, abs=1e-14)

    def test_identity_map(self):
        p = MeanFieldParams(1.0, 0.0, 1.0)
        for q in (0.2, 1.0, 7.5):
            assert q_step(q, p, Activation.LINEAR) == pytest.approx(q, rel=1e-14)

    def test_relu_halving(self):
        p = MeanFieldParams(2.0, 0.0, 1.0)
        assert q_step(1.0, p, Activation.RELU) == pytest.approx(1.0, abs=1e-14)

    def test_result_at_least_bias(self):
        for act in Activation:
            p = MeanFieldParams(0.9, 0.7, 0.6)
            assert q_step(2.0, p, act) >= 0.7

    def test_negative_q_rejected(self):
        with pytest.raises(ConfigError):
            q_step(-1.0, MeanFieldParams(1.0, 0.0, 1.0), Activation.TANH)


class TestQFixedPoint:
    def test_linear_geometric(self):
        q, _ = q_fixed_point(MeanFieldParams(0.5, 1.5, 1.0), Activation.LINEAR)
        assert q == pytest.approx(3.0, abs=1e-9)

    def test_linear_with_dropout(self):
        q, _ = q_fixed_point(MeanFieldParams(0.25, 1.0, 0.5), Activation.LINEAR)
        assert q == pytest.approx(2.0, abs=1e-9)

    def test_constant_map_converges_immediately(self):
        p = MeanFieldParams(0.0, 2.25, 1.0)
        q, its = q_fixed_point(p, Activation.LINEAR, q0=2.25)
        assert q == 2.25 and its == 1

    def test_divergent_regime_reported(self):
        with pytest.raises(NonConvergenceError) as err:
            q_fixed_point(MeanFieldParams(1.5, 0.5, 1.0), Activation.LINEAR)
        assert err.value.last_iterate > 0

    def test_start_independence(self):
        """Converged q* does not depend on q0 (within 10x the tolerance)."""
        tol = 1e-12
        for act in (Activation.TANH, Activation.RELU, Activation.ERF):
            p = MeanFieldParams(1.2, 0.3, 0.8)
            vals = [
                q_fixed_point(p, act, q0=q0)[0] for q0 in (0.1, 1.0, 10.0)
            ]
            assert max(vals) - min(vals) < 10 * tol

    @pytest.mark.parametrize(
        "act,sw2",
        [
            (Activation.TANH, 1.0),  # slope exactly 1 at q = 0: q^n ~ 1/n
            (Activation.TANH, 0.5),
            (Activation.ERF, 0.5),
            (Activation.HARDTANH, 0.9),
            (Activation.RELU, 1.5),
            (Activation.LINEAR, 0.5),
        ],
    )
    def test_zero_bias_ordered_side_is_zero_by_structure(self, act, sw2):
        """Without bias q = 0 is a fixed point; with slope chi1(0) <= 1 it is
        q* exactly, after the first step and one look at the end, where
        direct iteration stops near tol (or, at slope 1, never)."""
        assert q_fixed_point(MeanFieldParams(sw2, 0.0, 1.0), act) == (0.0, 2)

    def test_divergence_detected_without_max_iter(self):
        """q' = q + 0.1 has no fixed point; the doubling walk reports it after
        about log2(cap) evaluations, not after a step budget."""
        with pytest.raises(NonConvergenceError) as err:
            q_fixed_point(MeanFieldParams(1.0, 0.1, 1.0), Activation.LINEAR)
        assert err.value.iterations < 50
        assert 1e11 < err.value.last_iterate <= 1e12

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_tanh_just_above_criticality_vs_mpmath(self, eps):
        """Without bias and just above sigma_w^2 = 1, Tanh's q* ~ eps/2 rests
        on phi_sq at q ~ 1e-10, where 1 - E[sech^2] would cancel (q* read
        6.4e-9 at eps = 1e-9).  Oracle: the root of (1 + eps) E[tanh^2]/q = 1
        from mpmath's quadrature at 40 digits."""
        import mpmath

        with mpmath.workdps(40):
            s = 1 + mpmath.mpf(eps)

            def ratio(q):
                r = mpmath.sqrt(q)
                e = 2 * mpmath.quad(lambda z: mpmath.tanh(r * z) ** 2 * mpmath.npdf(z), [0, 1, 4, 10, 40])
                return s * e / q - 1

            exact = float(mpmath.findroot(ratio, eps / 2))
        q_star, _ = q_fixed_point(MeanFieldParams(1.0 + eps, 0.0, 1.0), Activation.TANH)
        assert abs(q_star - exact) <= 1e-12


class TestCStep:
    def test_fully_correlated_fixed_at_rho_one(self):
        """c = 1 stays fixed at rho = 1 once the lengths sit at q*."""
        for act in Activation:
            p = MeanFieldParams(0.8, 0.4, 1.0)  # convergent for every kind
            q_star, _ = q_fixed_point(p, act)
            s = LengthState(q_aa=q_star, q_bb=q_star, c_ab=1.0)
            out = c_step(s, p, act)
            assert abs(out.c_ab - 1.0) < 1e-8
            assert out.layer == 1

    def test_linear_identity_on_c(self):
        p = MeanFieldParams(1.0, 0.0, 1.0)
        s = LengthState(q_aa=2.0, q_bb=2.0, c_ab=0.37)
        assert c_step(s, p, Activation.LINEAR).c_ab == pytest.approx(0.37, abs=1e-14)

    def test_dropout_decorrelates_relu(self):
        p = MeanFieldParams(0.9, 0.5, 0.7)
        q_star, _ = q_fixed_point(p, Activation.RELU)
        s = LengthState(q_aa=q_star, q_bb=q_star, c_ab=0.9)
        cs = []
        for _ in range(200):
            s = c_step(s, p, Activation.RELU)
            cs.append(s.c_ab)
        assert cs[-1] < 1.0 - 1e-3
        assert abs(cs[-1] - cs[-2]) < 1e-10  # converged

    def test_c_stays_in_range(self):
        for act in Activation:
            s = LengthState(q_aa=0.5, q_bb=3.0, c_ab=-0.8)
            p = MeanFieldParams(1.5, 0.1, 0.9)
            for _ in range(50):
                s = c_step(s, p, act)
                assert abs(s.c_ab) <= 1.0

    def test_degenerate_state_rejected(self):
        p = MeanFieldParams(0.0, 0.0, 1.0)  # q' = 0 identically
        s = LengthState(q_aa=1.0, q_bb=1.0, c_ab=0.5)
        from mfdl.errors import DegenerateStateError

        with pytest.raises(DegenerateStateError):
            c_step(s, p, Activation.TANH)

    def test_nan_correlation_rejected(self):
        with pytest.raises(ConfigError):
            LengthState(q_aa=1.0, q_bb=1.0, c_ab=float("nan"))

    def test_chaotic_relu_stays_finite_until_overflow(self):
        """The lengths grow by 1.25 per layer.  The products q_aa * q_bb and
        qa * qb overflowed at q ~ 1.3e154 (layer ~1590), turning c into 0 and
        then NaN; c must instead rise monotonically while q is finite, and
        the step whose lengths overflow must say so as a numerical error."""
        p = MeanFieldParams(2.5, 0.1, 1.0)
        s = LengthState(q_aa=1.0, q_bb=1.0, c_ab=0.9)
        while s.layer < 3000:
            nxt = c_step(s, p, Activation.RELU)
            assert math.isfinite(nxt.c_ab) and abs(nxt.c_ab) <= 1.0
            assert nxt.c_ab >= s.c_ab
            s = nxt
        with pytest.raises(EvaluationError, match="layer"):
            while s.layer < 3200:
                s = c_step(s, p, Activation.RELU)


class TestCFixedPoint:
    def test_ordered_tanh_fully_correlates(self):
        p = MeanFieldParams(1.4, 0.1, 1.0)
        q_star, _ = q_fixed_point(p, Activation.TANH)
        assert chi1(q_star, p, Activation.TANH) < 1.0  # ordered side
        c_star, _ = c_fixed_point(p, Activation.TANH)
        assert abs(c_star - 1.0) < 1e-9

    @pytest.mark.parametrize("act", [Activation.RELU, Activation.ERF, Activation.TANH])
    def test_dropout_gives_partial_correlation(self, act):
        p = MeanFieldParams(0.81, 0.25, 0.7)
        c_star, _ = c_fixed_point(p, act)
        assert c_star < 1.0 - 1e-3

    def test_identity_map_reports_start(self):
        p = MeanFieldParams(1.0, 0.0, 1.0)
        c_star, its = c_fixed_point(p, Activation.LINEAR, c0=0.42)
        assert c_star == 0.42 and its == 1

    def test_divergent_lengths_homogeneous_fallback(self):
        """ReLU with sigma_w^2/(2 rho) > 1 has no q* but a scale-free c*."""
        p = MeanFieldParams(0.81, 0.25, 0.4)
        with pytest.raises(NonConvergenceError):
            q_fixed_point(p, Activation.RELU)
        c_star, _ = c_fixed_point(p, Activation.RELU)
        assert 0.0 < c_star < 1.0 - 1e-3

    def test_invalid_c0(self):
        with pytest.raises(ConfigError):
            c_fixed_point(MeanFieldParams(1.0, 0.1, 1.0), Activation.TANH, c0=1.0)

    def test_pole_point_is_fully_correlated(self):
        """sigma_w^2 = 1.76 lies 2e-4 below the chi1 = 1 pole, where direct
        iteration of the correlation map contracts too slowly to finish."""
        d = depth_scales(MeanFieldParams(1.76, 0.05, 1.0), Activation.TANH)
        assert d.chi1 < 1.0
        assert d.c_star == 1.0 and d.chi2 == d.chi1

    def test_zero_length_fixed_point_rejected(self):
        with pytest.raises(DegenerateStateError):
            depth_scales(MeanFieldParams(0.0, 0.0, 1.0), Activation.TANH)

    def test_zero_bias_ordered_side_has_no_correlation(self):
        """q* = 0 exactly, so the correlation is undefined (not c* = -1)."""
        with pytest.raises(DegenerateStateError, match="correlation undefined"):
            depth_scales(MeanFieldParams(0.5, 0.0, 1.0), Activation.TANH)

    @pytest.mark.parametrize("sw2", [2.5, 3.0])
    def test_relu_divergent_lengths_fully_correlated_at_rho_one(self, sw2):
        """The scale-free ReLU map has c = 1 as a fixed point of slope 1, so
        c* = 1 exactly; iterating the joint (q, q, c) recursion instead
        approaches it like 1/n until q_aa * q_bb overflows to a NaN."""
        c_star, _ = c_fixed_point(MeanFieldParams(sw2, 0.1, 1.0), Activation.RELU)
        assert c_star == 1.0

    def test_relu_divergent_lengths_match_joint_recursion(self):
        """The value iterating the joint (q, q, c) recursion settles on."""
        c_star, _ = c_fixed_point(MeanFieldParams(3.0, 0.1, 0.9), Activation.RELU)
        assert abs(c_star - 0.62714588495) < 1e-9

    def test_linear_divergent_lengths_decorrelate_exactly(self):
        """m_inf(c) = rho c has c* = 0 exactly."""
        c_star, _ = c_fixed_point(MeanFieldParams(1.5, 0.1, 0.9), Activation.LINEAR)
        assert c_star == 0.0

    @pytest.mark.parametrize("sw2,sb2,q0,c0", [(1.25, 0.1, 1.0, 0.9), (2.0, 0.5, 2.0, 0.3)])
    def test_linear_divergent_lengths_at_rho_one_closed_form(self, sw2, sb2, q0, c0):
        """Where m_inf is the identity, c* is the limit of the joint recursion
        from (q0, q0, c0), here iterated in exact rational arithmetic until
        its distance to the limit, ~sigma_w^-2n, is far below 1e-16."""
        s, b = Fraction(sw2), Fraction(sb2)
        q, q_ab = Fraction(q0), Fraction(c0) * Fraction(q0)
        for _ in range(400):
            q, q_ab = s * q + b, s * q_ab + b
        c_star, _ = c_fixed_point(MeanFieldParams(sw2, sb2, 1.0), Activation.LINEAR, c0=c0, q0=q0)
        assert c_star == pytest.approx(float(q_ab / q), abs=2e-16)

    def test_linear_critical_lengths_fully_correlate(self):
        """q' = q + sigma_b^2 grows linearly, and 1 - c shrinks like 1/q."""
        c_star, _ = c_fixed_point(MeanFieldParams(1.0, 0.1, 1.0), Activation.LINEAR)
        assert c_star == 1.0


def _damped_c_iteration(p, act, q_star, c0):
    """Oracle: c <- c + (m(c) - c) / 2 until the step falls below 1e-14."""
    denom = q_step(q_star, p, act)
    c = c0
    for _ in range(100_000):
        m = min((p.sigma_w_sq * phi_cross(act, q_star, q_star, c) + p.sigma_b_sq) / denom, 1.0)
        c_next = c + 0.5 * (m - c)
        if abs(c_next - c) < 1e-14:
            return c_next
        c = c_next
    raise AssertionError("oracle iteration did not settle")


# sigma_w^2 / rho per kind: ordered for every kind, chaotic for the bounded ones
_ORACLE_WEIGHT_RATIOS = {
    Activation.LINEAR: (0.5,),
    Activation.RELU: (1.0,),
    Activation.TANH: (0.8, 2.5),
    Activation.ERF: (0.8, 2.5),
    Activation.HARDTANH: (0.8, 2.5),
}


@pytest.mark.parametrize("rho", [1.0, 0.9, 0.6])
@pytest.mark.parametrize("c0", [-0.6, 0.3, 0.9])
@pytest.mark.parametrize("act", list(Activation))
def test_c_star_matches_damped_direct_iteration(act, rho, c0):
    for ratio in _ORACLE_WEIGHT_RATIOS[act]:
        p = MeanFieldParams(ratio * rho, 0.1, rho)
        q_star, _ = q_fixed_point(p, act)
        assert abs(chi1(q_star, p, act) - 1.0) > 0.05
        c_star, _ = c_fixed_point(p, act, c0=c0)
        assert abs(c_star - _damped_c_iteration(p, act, q_star, c0)) < 1e-9, (p, c_star)


@settings(max_examples=60, deadline=None)
@given(
    act=st.sampled_from(list(Activation)),
    sw2=st.floats(0.05, 4.0),
    sb2=st.floats(0.01, 1.0),
    rho=st.one_of(st.just(1.0), st.floats(0.2, 0.99)),
    c0=st.floats(0.0, 0.99),
)
def test_c_star_structure_property(act, sw2, sb2, rho, c0):
    """At rho = 1 and chi1 < 1, c* is exactly 1; at rho < 1, c* lies in
    [0, 1) and solves the correlation map to 1e-12.  (Without bias the
    ordered side has q* = 0, where the correlation map is 0/0.)"""
    p = MeanFieldParams(sw2, sb2, rho)
    try:
        q_star, _ = q_fixed_point(p, act)
    except NonConvergenceError:
        assume(False)
    c_star, _ = c_fixed_point(p, act, c0=c0)
    if rho == 1.0:
        if chi1(q_star, p, act) < 1.0:
            assert c_star == 1.0
    else:
        m = (sw2 * phi_cross(act, q_star, q_star, c_star) + sb2) / q_step(q_star, p, act)
        assert 0.0 <= c_star < 1.0
        assert abs(m - c_star) <= 1e-12


def _damped_q_iteration(p, act, q0):
    """Oracle: q <- q + (q_step(q) - q) / 2 until the step falls below 1e-14."""
    q = q0
    for _ in range(100_000):
        q_next = q + 0.5 * (q_step(q, p, act) - q)
        if abs(q_next - q) < 1e-14:
            return q_next
        q = q_next
    raise AssertionError("oracle iteration did not settle")


@pytest.mark.parametrize("rho", [1.0, 0.9, 0.6])
@pytest.mark.parametrize("act", list(Activation))
def test_q_star_matches_damped_direct_iteration(act, rho):
    """The walk finds the q* that direct iteration reaches from q0."""
    for ratio in _ORACLE_WEIGHT_RATIOS[act]:
        p = MeanFieldParams(ratio * rho, 0.1, rho)
        for q0 in (0.1, 1.0, 10.0):
            q_star, _ = q_fixed_point(p, act, q0=q0)
            oracle = _damped_q_iteration(p, act, q0)
            assert abs(q_star - oracle) < 1e-9 * max(1.0, oracle), (p, q0, q_star)


@settings(max_examples=80, deadline=None)
@given(
    act=st.sampled_from(list(Activation)),
    sw2=st.floats(0.05, 4.0),
    sb2=st.floats(0.01, 1.0),
    rho=st.one_of(st.just(1.0), st.floats(0.2, 0.99)),
    q0=st.floats(0.01, 100.0),
)
def test_q_star_solves_length_map(act, sw2, sb2, rho, q0):
    """|q_step(q*) - q*| <= 10 tol.  Above q* = 1 the bound scales with q*,
    since float spacing there exceeds tol (a Linear q* = sigma_b^2 / (1 -
    sigma_w^2 / rho) can be large)."""
    p = MeanFieldParams(sw2, sb2, rho)
    tol = 1e-12
    try:
        q_star, _ = q_fixed_point(p, act, q0=q0)
    except NonConvergenceError:
        assume(False)
    assert abs(q_step(q_star, p, act) - q_star) <= 10 * tol * max(1.0, q_star)


def test_every_fixed_point_goes_through_brent_root(monkeypatch):
    """q*, c* at q*, the scale-free c* and the critical line all call the
    one root finder."""
    import mfdl.meanfield as meanfield
    import mfdl.phase as phase

    calls = []
    real = meanfield.brent_root

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(meanfield, "brent_root", counting)
    monkeypatch.setattr(phase, "brent_root", counting)

    def brent_calls(solve):
        calls.clear()
        solve()
        return len(calls)

    p = MeanFieldParams(1.5, 0.1, 0.9)
    assert brent_calls(lambda: q_fixed_point(p, Activation.TANH)) == 1
    assert brent_calls(lambda: c_fixed_point(p, Activation.TANH)) == 2  # q*, then c*
    p_div = MeanFieldParams(3.0, 0.1, 0.9)
    assert brent_calls(lambda: c_fixed_point(p_div, Activation.RELU)) == 1
    crit = lambda: phase.critical_line(MeanFieldParams(1.0, 0.05, 1.0), Activation.TANH, (1.0, 3.0))
    assert brent_calls(crit) > 1  # the line, and q* at each trial point


class TestBrentRoot:
    def test_transcendental_root(self):
        f = lambda x: math.cos(x) - x
        root, evals = brent_root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-14)
        assert abs(f(root)) < 1e-14
        assert evals < 12  # bisection would need ~47

    def test_zero_at_bracket_end(self):
        f = lambda x: x * x - 1.0
        assert brent_root(f, 0.0, 1.0, f(0.0), 0.0, 1e-12) == (1.0, 0)
        assert brent_root(f, 1.0, 3.0, 0.0, f(3.0), 1e-12) == (1.0, 0)

    def test_evaluation_cap(self, monkeypatch):
        """Out of evaluations, the finder raises with the count and last x."""
        import mfdl.meanfield as meanfield

        monkeypatch.setattr(meanfield, "_BRENT_MAX_EVALS", 5)
        f = lambda x: -1.0 if x < 0.3 else 1.0  # a jump: ~40 steps to 1e-12
        with pytest.raises(NonConvergenceError) as err:
            brent_root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
        assert err.value.iterations == 5
        assert 0.0 <= err.value.last_iterate <= 1.0


class TestChi:
    def test_linear_chi1(self):
        p = MeanFieldParams(0.8, 0.3, 0.5)
        assert chi1(1.7, p, Activation.LINEAR) == pytest.approx(1.6, abs=1e-14)

    def test_relu_chi1(self):
        p = MeanFieldParams(2.0, 0.0, 1.0)
        assert chi1(0.9, p, Activation.RELU) == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight_variance(self):
        p = MeanFieldParams(0.0, 0.3, 1.0)
        assert chi1(0.3, p, Activation.TANH) == 0.0
        assert chi2(0.3, 0.5, p, Activation.TANH) == 0.0

    def test_chi2_fully_correlated_ties_chi1(self):
        """At c* = 1 and rho = 1 the two slopes coincide exactly."""
        for act in Activation:
            p = MeanFieldParams(0.9, 0.2, 1.0)  # convergent for every kind
            q_star, _ = q_fixed_point(p, act)
            assert chi2(q_star, 1.0, p, act) == chi1(q_star, p, act)

    def test_chi2_linear_any_c(self):
        p = MeanFieldParams(0.7, 0.1, 0.9)
        for c in (-0.5, 0.0, 0.8):
            assert chi2(2.0, c, p, Activation.LINEAR) == pytest.approx(0.7, abs=1e-14)

    @pytest.mark.parametrize("act", [Activation.LINEAR, Activation.RELU])
    def test_scale_free_chi1_needs_no_length_solve(self, act, monkeypatch):
        """chi1 of a positively homogeneous kind does not depend on q, so it
        is found without solving for q*, also where the length map diverges."""
        import mfdl.meanfield as meanfield

        p = MeanFieldParams(0.4, 0.1, 0.8)
        expected = chi1(q_fixed_point(p, act)[0], p, act)

        def no_length_solve(*args, **kwargs):
            raise AssertionError("q_fixed_point called")

        monkeypatch.setattr(meanfield, "q_fixed_point", no_length_solve)
        assert chi1_at_fixed_point(p, act) == expected
        p_chaotic = MeanFieldParams(3.0, 0.1, 0.8)
        assert chi1_at_fixed_point(p_chaotic, act) == chi1(123.0, p_chaotic, act)

    def test_chi1_monotone_in_weight_variance(self):
        """chi1 grows with sigma_w^2 (q* re-solved at each point)."""
        for act in (Activation.TANH, Activation.ERF, Activation.HARDTANH):
            vals = []
            for sw2 in np.linspace(0.5, 3.0, 8):
                p = MeanFieldParams(sw2, 0.1, 1.0)
                vals.append(chi1_at_fixed_point(p, act))
            assert np.all(np.diff(vals) > -1e-12)


class TestDepthScales:
    def test_xi_definition(self):
        assert xi_from_chi(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert xi_from_chi(1.0) == math.inf
        assert xi_from_chi(1.0 + 5e-13) == math.inf
        assert xi_from_chi(0.0) == 0.0
        assert xi_from_chi(-0.5) == xi_from_chi(0.5)

    def test_linear_example(self):
        d = depth_scales(MeanFieldParams(0.5, 1.5, 1.0), Activation.LINEAR)
        assert d.xi1 == pytest.approx(1.0 / math.log(2.0), rel=1e-9)
        assert d.q_star == pytest.approx(3.0, abs=1e-9)
        assert d.c_star == 1.0

    def test_xi1_le_xi2_without_dropout(self):
        """Across a tanh grid at rho = 1 the single-input scale never
        exceeds the pair scale (exact ties on the fully correlated side)."""
        for sb2 in (0.05, 0.5):
            for sw2 in np.linspace(0.5, 3.0, 8):
                d = depth_scales(MeanFieldParams(sw2, sb2, 1.0), Activation.TANH)
                if math.isinf(d.xi1) and math.isinf(d.xi2):
                    continue
                assert d.xi1 <= d.xi2, (sw2, sb2, d)

    def test_reports_evaluation_counts(self):
        p = MeanFieldParams(1.4, 0.1, 1.0)
        d = depth_scales(p, Activation.TANH)
        assert d.q_evals == q_fixed_point(p, Activation.TANH)[1] > 1
        assert d.c_evals == 2  # first step, then c = 1 by structure

    def test_propagates_divergence(self):
        with pytest.raises(NonConvergenceError):
            depth_scales(MeanFieldParams(1.2, 0.3, 1.0), Activation.LINEAR)


class TestTrajectories:
    def test_q_first_step_is_linear_in_input(self):
        """The raw input enters the first layer without an activation."""
        p = MeanFieldParams(6.25, 0.25, 0.7)
        traj = q_trajectory(1.0, 5, p, Activation.TANH)
        assert traj[0] == pytest.approx(6.25 / 0.7 + 0.25, rel=1e-14)
        assert traj[1] == pytest.approx(q_step(traj[0], p, Activation.TANH), rel=1e-14)

    def test_q_converges_to_fixed_point(self):
        p = MeanFieldParams(0.25, 2.25, 0.4)
        traj = q_trajectory(1.0, 60, p, Activation.LINEAR)
        q_star, _ = q_fixed_point(p, Activation.LINEAR)
        assert traj[-1] == pytest.approx(q_star, rel=1e-10)

    def test_c_trajectory_first_step(self):
        p = MeanFieldParams(0.81, 0.25, 0.7)
        qs, cs = c_trajectory(2.0, 0.5, 4, p, Activation.ERF)
        q1 = 0.81 / 0.7 * 2.0 + 0.25
        c1 = (0.81 * 0.5 * 2.0 + 0.25) / q1
        assert qs[0] == pytest.approx(q1, rel=1e-14)
        assert cs[0] == pytest.approx(c1, rel=1e-14)

    def test_c_trajectory_converges_to_c_star(self):
        p = MeanFieldParams(0.81, 0.25, 0.7)
        _, cs = c_trajectory(1.0, 0.5, 300, p, Activation.ERF)
        c_star, _ = c_fixed_point(p, Activation.ERF)
        assert cs[-1] == pytest.approx(c_star, abs=1e-8)


class TestConvergenceRate:
    def test_linear_rate_matches_xi2(self):
        """For an affine correlation map the contraction factor is exactly
        chi2, so the fitted scale matches |1/ln chi2| to high accuracy."""
        p = MeanFieldParams(0.5, 0.5, 1.0)
        d = depth_scales(p, Activation.LINEAR)
        rate = c_convergence_rate(p, Activation.LINEAR, c0=0.3, layers=40)
        assert rate == pytest.approx(d.xi2, rel=0.02)

    def test_tanh_rate_matches_xi2(self):
        p = MeanFieldParams(1.4, 0.1, 1.0)
        d = depth_scales(p, Activation.TANH)
        rate = c_convergence_rate(p, Activation.TANH, c0=0.5, layers=200)
        assert rate == pytest.approx(d.xi2, rel=0.05)

    def test_non_decaying_map_rejected(self):
        p = MeanFieldParams(1.0, 0.0, 1.0)  # identity map: chi2 = 1, no decay
        with pytest.raises(NonExponentialDecayError):
            c_convergence_rate(p, Activation.LINEAR, c0=0.5, layers=50)


def test_depth_scales_is_frozen_bundle():
    d = depth_scales(MeanFieldParams(1.4, 0.1, 1.0), Activation.TANH)
    assert isinstance(d, DepthScales)
    with pytest.raises(AttributeError):
        d.q_star = 0.0
