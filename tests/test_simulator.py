"""Monte-Carlo engine: determinism, exactness, and ensemble statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfdl.simulator as simulator
from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.meanfield import MeanFieldParams, depth_scales, q_fixed_point, q_trajectory
from mfdl.simulator import (
    METRIC_NAMES,
    ROLE_MASK_A,
    ROLE_MASK_B,
    ROLE_WEIGHTS,
    NetworkConfig,
    _instance_metrics_many,
    _LazyGaussian,
    backward,
    ensemble_run_many,
    forward,
    gradient_metrics,
    sample_inputs,
    sample_network,
    stream,
)


def _cfg(depth=4, width=8, sw2=0.81, sb2=0.25, rho=0.7, act=Activation.TANH, seed=7):
    return NetworkConfig(depth, width, MeanFieldParams(sw2, sb2, rho), act, seed=seed)


def _q_stars(cfgs):
    """Length fixed points, the inputs an ensemble starts at by convention."""
    return [q_fixed_point(cfg.params, cfg.activation)[0] for cfg in cfgs]


class TestSampling:
    def test_network_deterministic(self):
        cfg = _cfg()
        a = sample_network(cfg, 5)
        b = sample_network(cfg, 5)
        np.testing.assert_array_equal(a.weight(3), b.weight(3))
        np.testing.assert_array_equal(a.bias(2), b.bias(2))

    def test_instances_and_layers_independent(self):
        cfg = _cfg()
        net = sample_network(cfg, 0)
        assert not np.array_equal(net.weight(1), net.weight(2))
        assert not np.array_equal(net.weight(1), sample_network(cfg, 1).weight(1))

    def test_zero_weight_variance(self):
        cfg = _cfg(sw2=0.0)
        assert np.all(sample_network(cfg).weight(1) == 0.0)

    def test_weight_variance_matches_target(self):
        cfg = _cfg(depth=1, width=1000, sw2=0.9)
        w = sample_network(cfg).weight(1)
        assert abs(w.var() / (0.9 / 1000) - 1.0) < 5.0 / 1000  # 1e6 entries

    def test_inputs_exact_moments(self):
        xa, xb = sample_inputs(512, q0=2.5, c0=0.3, seed=1)
        n = 512
        assert (xa @ xa) / n == pytest.approx(2.5, rel=1e-13)
        assert (xb @ xb) / n == pytest.approx(2.5, rel=1e-13)
        assert (xa @ xb) / n == pytest.approx(0.75, abs=1e-13)

    def test_inputs_perfectly_correlated(self):
        xa, xb = sample_inputs(64, q0=1.0, c0=1.0, seed=2)
        np.testing.assert_array_equal(xa, xb)
        xa, xb = sample_inputs(64, q0=1.0, c0=-1.0, seed=2)
        np.testing.assert_array_equal(xa, -xb)

    def test_inputs_orthogonal_exact(self):
        xa, xb = sample_inputs(128, q0=1.0, c0=0.0, seed=3)
        assert abs((xa @ xb) / 128) < 1e-13

    def test_input_errors(self):
        with pytest.raises(ConfigError):
            sample_inputs(16, q0=0.0, c0=0.5, seed=0)
        with pytest.raises(ConfigError):
            sample_inputs(16, q0=1.0, c0=1.5, seed=0)
        with pytest.raises(ConfigError):
            sample_inputs(1, q0=1.0, c0=0.5, seed=0)


class TestForward:
    def test_no_dropout_equals_plain_network(self):
        """rho = 1 reduces to an ordinary fully connected forward pass."""
        cfg = _cfg(rho=1.0, act=Activation.TANH)
        net = sample_network(cfg, 0)
        x, _ = sample_inputs(cfg.width_N, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        assert np.all(tr.masks)
        y = x
        for l in range(1, cfg.depth_L + 1):
            z = net.weight(l) @ y + net.bias(l)
            np.testing.assert_allclose(tr.pre_activations[l - 1], z, rtol=1e-12, atol=1e-14)
            y = np.tanh(z)

    def test_single_layer_definition(self):
        """z^1 = (1/rho) W (p . x) + b, unrolled by hand."""
        cfg = _cfg(depth=1, width=16, sb2=0.0)
        net = sample_network(cfg, 2)
        x, _ = sample_inputs(16, 1.0, 0.5, cfg.seed, instance=2)
        tr = forward(net, x, ROLE_MASK_A)
        expected = net.weight(1) @ (tr.masks[0] * x) / cfg.params.rho
        np.testing.assert_allclose(tr.pre_activations[0], expected, rtol=1e-12, atol=1e-15)

    def test_mask_statistics(self):
        cfg = _cfg(depth=50, width=200, rho=0.7)
        tr = forward(sample_network(cfg), np.ones(200), ROLE_MASK_A)
        mean = tr.masks.mean()
        assert abs(mean - 0.7) < 4 * math.sqrt(0.7 * 0.3 / (50 * 200))

    def test_masks_differ_between_inputs(self):
        cfg = _cfg(rho=0.5)
        net = sample_network(cfg)
        x, _ = sample_inputs(cfg.width_N, 1.0, 0.5, cfg.seed)
        tra = forward(net, x, ROLE_MASK_A)
        trb = forward(net, x, ROLE_MASK_B)
        assert not np.array_equal(tra.masks, trb.masks)

    def test_shape_mismatch_rejected(self):
        net = sample_network(_cfg(width=8))
        with pytest.raises(ConfigError):
            forward(net, np.ones(9), ROLE_MASK_A)


class TestBackward:
    def test_single_layer_chain_rule(self):
        """dE/dW^1_ij = 2 z^1_i (p_j/rho) x_j for a one-layer linear net."""
        cfg = _cfg(depth=1, width=12, act=Activation.LINEAR, rho=0.6)
        net = sample_network(cfg, 1)
        x, _ = sample_inputs(12, 1.0, 0.5, cfg.seed, instance=1)
        tr = forward(net, x, ROLE_MASK_A)
        gt = backward(net, tr)
        z1 = tr.pre_activations[0]
        expected = np.outer(2 * z1, tr.masks[0] * x / 0.6)
        np.testing.assert_allclose(gt.weight_grad(1), expected, rtol=1e-12, atol=1e-15)

    def test_last_layer_delta(self):
        cfg = _cfg()
        net = sample_network(cfg)
        x, _ = sample_inputs(cfg.width_N, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        gt = backward(net, tr)
        np.testing.assert_array_equal(gt.deltas[-1], 2 * tr.pre_activations[-1])

    def test_relu_deltas_vanish_on_negative_preactivations(self):
        cfg = _cfg(depth=5, width=32, rho=1.0, act=Activation.RELU)
        net = sample_network(cfg, 4)
        x, _ = sample_inputs(32, 1.0, 0.5, cfg.seed, instance=4)
        tr = forward(net, x, ROLE_MASK_A)
        gt = backward(net, tr)
        for l in range(1, cfg.depth_L):  # delta^L = 2 z^L is unaffected
            dead = tr.pre_activations[l - 1] < 0
            assert np.all(gt.deltas[l - 1][dead] == 0.0)

    def test_mask_reuse_is_bitwise(self):
        """Backward consumes the stored forward masks; the outer-product
        reconstruction of dE/dW uses exactly (p/rho) * y of the trace."""
        cfg = _cfg(depth=3, width=10, rho=0.5)
        net = sample_network(cfg)
        x, _ = sample_inputs(10, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        gt = backward(net, tr)
        y1 = cfg.activation.value_at(tr.pre_activations[0])
        np.testing.assert_array_equal(gt.input_factors[1], tr.masks[1] * y1 / 0.5)

    @pytest.mark.parametrize("depth", [1, 6])
    @pytest.mark.parametrize("act", list(Activation))
    def test_block_activations_equal_row_by_row(self, act, depth):
        """phi and phi' evaluated on a trace's whole pre-activation block give
        the bits of the layer-by-layer loop, deltas and input factors both."""
        cfg = _cfg(depth=depth, width=33, sw2=1.3, rho=0.7, act=act, seed=17)
        x, _ = sample_inputs(33, 1.2, 0.5, cfg.seed, 2)
        net = sample_network(cfg, 2)
        got = backward(net, forward(net, x, ROLE_MASK_A))
        net = sample_network(cfg, 2)
        t = forward(net, x, ROLE_MASK_A)
        L, s_in, inv_rho = depth, math.sqrt(1.3 / 33) / 0.7, 1.0 / 0.7
        deltas, factors = np.empty((L, 33)), np.empty((L, 33))
        deltas[L - 1] = 2.0 * t.pre_activations[L - 1]
        y = t.x
        for l in range(L):
            factors[l] = (t.masks[l] * y) * inv_rho
            y = act.value_at(t.pre_activations[l])
        for l in range(L - 1, 0, -1):
            back = net._layer(l + 1).rmatvec(deltas[l])
            dphi = act.derivative_at(t.pre_activations[l - 1])
            deltas[l - 1] = dphi * (t.masks[l] * back) * s_in
        np.testing.assert_array_equal(got.input_factors, factors)
        np.testing.assert_array_equal(got.deltas, deltas)

    def test_trace_network_mismatch_rejected(self):
        cfg = _cfg()
        net = sample_network(cfg, 0)
        other = sample_network(cfg, 1)
        x, _ = sample_inputs(cfg.width_N, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        with pytest.raises(ConfigError):
            backward(other, tr)

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("rho", [1.0, 0.6])
    def test_finite_difference_spot_check(self, act, rho):
        """Analytic gradients match central differences of the loss."""
        cfg = _cfg(depth=3, width=6, sw2=1.1, sb2=0.3, rho=rho, act=act, seed=13)
        net = sample_network(cfg, 0)
        x, _ = sample_inputs(6, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        gt = backward(net, tr)

        def loss(layer, i, j, eps):
            y = x
            for l in range(1, cfg.depth_L + 1):
                w = net.weight(l)
                if l == layer:
                    w = w.copy()
                    w[i, j] += eps
                z = w @ (tr.masks[l - 1] * y) / rho + net.bias(l)
                y = act.value_at(z)
            return float(np.sum(z * z))

        rng = np.random.default_rng(2)
        h = 1e-4
        for _ in range(6):
            layer = int(rng.integers(1, cfg.depth_L + 1))
            i, j = (int(v) for v in rng.integers(0, 6, 2))
            fd = (loss(layer, i, j, h) - loss(layer, i, j, -h)) / (2 * h)
            an = gt.weight_grad(layer)[i, j]
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestLazyWeights:
    """Products are answered from the conditional law of what is revealed;
    a materialized weight matrix is drawn from the same law and pinned."""

    @staticmethod
    def _check(layer, asked):
        w = layer.dense()
        for side, v, answer in asked:
            got = w @ v if side == "f" else w.T @ v
            assert np.max(np.abs(got - answer)) <= 1e-12 * np.max(np.abs(answer))

    @pytest.mark.parametrize("width", [1, 2, 7, 64])
    def test_materialized_weights_reproduce_every_product(self, width):
        rng = np.random.default_rng(width)
        net = sample_network(_cfg(width=width), 3)
        layer = net._layer(2)
        v_a, v_b, d_a, d_b = rng.standard_normal((4, width))
        steps = [
            ("f", v_a),
            ("f", v_a),  # v_b = v_a: the basis stays at rank one
            ("b", d_a),
            ("f", -2.5 * v_a + 1e-3 * v_b),
            ("b", 1e-30 * d_b),  # a tiny delta still reveals a new direction
            ("b", 3.0 * d_a - d_b),
            ("f", v_b),
        ]
        asked = []
        for side, v in steps:
            answer = layer.matvec(v) if side == "f" else layer.rmatvec(v)
            asked.append((side, v, answer))
        np.testing.assert_array_equal(asked[1][2], asked[0][2])
        self._check(layer, asked)
        # pinned: later products and calls use the materialized matrix
        w = net.weight_std(2)
        assert w is net.weight_std(2) and not w.flags.writeable
        np.testing.assert_array_equal(layer.matvec(v_b), w @ v_b)

    def test_traced_passes_reproduced_by_materialized_network(self):
        """Forward and backward products of a deep pass, re-done on the
        weights materialized afterwards."""
        cfg = _cfg(depth=5, width=12, sw2=1.1, rho=0.6, act=Activation.TANH, seed=3)
        net = sample_network(cfg, 1)
        xa, xb = sample_inputs(12, 1.0, 0.4, cfg.seed, 1)
        ta, tb = forward(net, xa, ROLE_MASK_A), forward(net, xb, ROLE_MASK_B)
        ga, gb = backward(net, ta), backward(net, tb)
        s_in = math.sqrt(cfg.params.sigma_w_sq / cfg.width_N) / cfg.params.rho
        for l in range(1, cfg.depth_L + 1):
            w = net.weight_std(l)
            for t, g in ((ta, ga), (tb, gb)):
                y = t.x if l == 1 else cfg.activation.value_at(t.pre_activations[l - 2])
                z = w @ ((t.masks[l - 1] * y) * s_in) + net.bias(l)
                np.testing.assert_allclose(t.pre_activations[l - 1], z, rtol=1e-12, atol=1e-13)
                if l > 1:
                    back = w.T @ g.deltas[l - 1]
                    dphi = cfg.activation.derivative_at(t.pre_activations[l - 2])
                    np.testing.assert_allclose(
                        g.deltas[l - 2], dphi * (t.masks[l - 1] * back) * s_in,
                        rtol=1e-12, atol=1e-13,
                    )

    def test_backward_needs_the_forward_network(self):
        """A second sample of the same (config, instance) reveals its own
        weights, so it cannot backpropagate another sample's trace."""
        cfg = _cfg()
        net = sample_network(cfg, 0)
        x, _ = sample_inputs(cfg.width_N, 1.0, 0.5, cfg.seed)
        tr = forward(net, x, ROLE_MASK_A)
        with pytest.raises(ConfigError):
            backward(sample_network(cfg, 0), tr)

    @pytest.mark.parametrize(
        "act,sw2,sb2,rho",
        [(Activation.TANH, 1.5, 0.2, 0.8), (Activation.RELU, 1.6, 0.1, 0.9),
         (Activation.LINEAR, 0.9, 0.2, 0.7)],
    )
    def test_law_matches_materialized_oracle(self, act, sw2, sb2, rho):
        """Per-layer means of all five metrics, lazy against weights
        materialized before any product (the dense engine), at N = 16 over
        400 instances a side on separate seeds: every |z| <= 4 (60
        layer-metric pairs per case)."""
        L, N, n = 12, 16, 400

        def metrics(seed, materialize):
            cfg = NetworkConfig(L, N, MeanFieldParams(sw2, sb2, rho), act, seed=seed)
            rows = {m: [] for m in METRIC_NAMES}
            for i in range(n):
                net = sample_network(cfg, i)
                if materialize:
                    for l in range(1, L + 1):
                        net.weight_std(l)
                xa, xb = sample_inputs(N, 1.0, 0.5, seed, i)
                ta, tb = forward(net, xa, ROLE_MASK_A), forward(net, xb, ROLE_MASK_B)
                za, zb = ta.pre_activations, tb.pre_activations
                qa, qb = np.einsum("li,li->l", za, za), np.einsum("li,li->l", zb, zb)
                rows["q_aa"].append(qa / N)
                rows["c_ab"].append(np.einsum("li,li->l", za, zb) / np.sqrt(qa * qb))
                for m, v in gradient_metrics(backward(net, ta), backward(net, tb)).items():
                    rows[m].append(v)
            return {m: np.stack(v) for m, v in rows.items()}

        lazy, dense = metrics(101, False), metrics(202, True)
        for m in METRIC_NAMES:
            a, b = lazy[m], dense[m]
            se = np.sqrt(a.var(axis=0, ddof=1) / n + b.var(axis=0, ddof=1) / n)
            z = (a.mean(axis=0) - b.mean(axis=0)) / se
            assert np.all(np.abs(z) <= 4.0), (m, z)


class _ReferenceGaussian(_LazyGaussian):
    """The conditioning kernel with every step always taken: v scaled to
    max |v| in [1/2, 1) on every product, and both Gram-Schmidt passes and
    the other side's projections done on empty bases too."""

    def _reveal(self, v, basis, image, other, other_image):
        exp = math.frexp(float(np.abs(v).max()))[1]
        v = np.ldexp(v, -exp)
        coef = basis @ v
        perp = v - coef @ basis
        fix = basis @ perp
        perp -= fix @ basis
        coef += fix
        out = coef @ image
        norm = math.sqrt(perp @ perp)
        if norm <= simulator._RANK_TOL * math.sqrt(v @ v):
            return np.ldexp(out, exp), basis, image
        u = perp / norm
        g = self._gen.standard_normal(self._n)
        w_u = (other_image @ u) @ other + (g - (other @ g) @ other)
        out += norm * w_u
        return (
            np.ldexp(out, exp),
            np.concatenate((basis, u[None])),
            np.concatenate((image, w_u[None])),
        )


def _layer_pair(width, cls=_LazyGaussian):
    """Two fresh layers on the same weight stream: a cls and a kernel one."""
    return (
        cls(stream(11, 0, ROLE_WEIGHTS, 1), width),
        _LazyGaussian(stream(11, 0, ROLE_WEIGHTS, 1), width),
    )


def _ask(layer, side, v):
    return layer.matvec(v) if side == "f" else layer.rmatvec(v)


class TestRevealKernel:
    """The conditioning kernel skips the work an empty basis or an in-range
    norm makes moot; its bits equal those of the kernel that always does it."""

    @pytest.mark.parametrize("first", ["f", "b"])
    @pytest.mark.parametrize("width", [1, 7, 64, 1000])
    def test_bits_equal_the_reference_kernel(self, width, first):
        ref, lean = _layer_pair(width, _ReferenceGaussian)
        rng = np.random.default_rng(width)
        v_a, v_b, d_a, d_b = rng.standard_normal((4, width))
        zero = np.zeros(width)
        steps = [
            ("f", zero),  # zero on an empty side: exact zeros, nothing drawn
            ("b", zero),
            ("f", v_a),  # first product, both sides empty
            ("f", v_a),  # v_b = v_a: the rank drop
            ("b", 1e-30 * d_a),  # first product of the other side, tiny but in range
            ("f", zero),  # zero on a non-empty side
            ("b", np.ldexp(d_b, -700)),  # squared norm underflows: rescaled
            ("f", -2.5 * v_a + 1e-3 * v_b),
            ("b", np.ldexp(3.0 * d_a - d_b, 700)),  # squared norm overflows: rescaled
            ("b", zero),
            ("f", v_b),
        ]
        flip = {"f": "b", "b": "f"}
        for k, (side, v) in enumerate(steps):
            side = side if first == "f" else flip[side]
            got, want = _ask(lean, side, v), _ask(ref, side, v)
            np.testing.assert_array_equal(got, want, err_msg=f"step {k}")
            if k < 2:
                assert not np.any(got) and len(lean._q) == len(lean._p) == 0
            for name in ("_q", "_z", "_p", "_y"):
                np.testing.assert_array_equal(getattr(lean, name), getattr(ref, name))
        np.testing.assert_array_equal(lean.dense(), ref.dense())
        np.testing.assert_array_equal(lean._gen.standard_normal(3), ref._gen.standard_normal(3))

    @settings(max_examples=80, deadline=None)
    @given(
        e=st.integers(-900, 900),
        width=st.sampled_from([1, 5, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(e=0, width=64, seed=0)
    @example(e=-330, width=64, seed=0)
    @example(e=330, width=64, seed=0)
    def test_power_of_two_equivariance(self, e, width, seed):
        """A product with v * 2^e is the product with v, times 2^e, bit for
        bit, on the first and second product of each side, whether or not
        either vector's squared norm is in the range used unscaled."""
        scaled, plain = _layer_pair(width)
        vs = np.random.default_rng(seed).standard_normal((4, width))
        for side, v in zip("ffbb", vs):
            np.testing.assert_array_equal(
                _ask(scaled, side, np.ldexp(v, e)), np.ldexp(_ask(plain, side, v), e)
            )


class _DrawsOnly:
    """A generator with only the draws a traced benchmark run proxies:
    standard_normal and random, with one positional size."""

    def __init__(self, gen):
        self._gen = gen

    def standard_normal(self, size):
        return self._gen.standard_normal(size)

    def random(self, size):
        return self._gen.random(size)


def test_simulator_draws_only_proxied_calls(monkeypatch):
    """The ensemble draws through stream() only as standard_normal(size) and
    random(size), the calls a tracing proxy of the generator forwards."""
    cfgs = [
        _cfg(depth=5, width=32, rho=1.0, act=Activation.TANH, seed=3),
        _cfg(depth=4, width=17, sw2=1.3, rho=0.6, act=Activation.ERF, seed=3),
    ]

    def run():
        return ensemble_run_many(cfgs, 3, c0=0.4, metrics=METRIC_NAMES, q0s=[1.0, 0.8])

    want = run()
    real_stream = simulator.stream
    monkeypatch.setattr(simulator, "stream", lambda *key: _DrawsOnly(real_stream(*key)))
    for got_cfg, want_cfg in zip(run(), want):
        for m in METRIC_NAMES:
            np.testing.assert_array_equal(got_cfg[m].per_layer_mean, want_cfg[m].per_layer_mean)
            np.testing.assert_array_equal(
                got_cfg[m].per_layer_variance, want_cfg[m].per_layer_variance
            )


def test_pair_instance_evaluates_phi_once_per_layer_and_trace(monkeypatch):
    """One pair instance runs phi L - 1 times per trace, in its forward pass
    (phi(z^L) is no layer's input), and draws its bias block once for both
    traces."""
    cfg = _cfg(depth=6, width=16)
    calls, bias_streams = [], []
    value_at = Activation.value_at
    monkeypatch.setattr(Activation, "value_at", lambda a, z: calls.append(z) or value_at(a, z))
    real_stream = simulator.stream

    def counted_stream(seed, instance, role, layer=0):
        if role == simulator.ROLE_BIAS:
            bias_streams.append((instance, layer))
        return real_stream(seed, instance, role, layer)

    monkeypatch.setattr(simulator, "stream", counted_stream)
    _instance_metrics_many([cfg], 0, 0.5, [1.0], METRIC_NAMES)
    assert len(calls) == 2 * (cfg.depth_L - 1)
    assert bias_streams == [(0, 0)]


class TestGradientMetrics:
    def _traces(self, cfg, instance=0, c0=0.5):
        net = sample_network(cfg, instance)
        xa, xb = sample_inputs(cfg.width_N, 1.0, c0, cfg.seed, instance)
        ga = backward(net, forward(net, xa, ROLE_MASK_A))
        gb = backward(net, forward(net, xb, ROLE_MASK_B))
        return ga, gb

    def test_identical_traces_collapse(self):
        ga, _ = self._traces(_cfg())
        m = gradient_metrics(ga, ga)
        np.testing.assert_array_equal(m["g_aa"], m["g_ab"])
        np.testing.assert_array_equal(m["g_ab"], m["g_tilde_ab"])

    def test_zero_gradients(self):
        cfg = _cfg(sw2=0.0, sb2=0.0)
        ga, gb = self._traces(cfg)
        m = gradient_metrics(ga, gb)
        for v in m.values():
            assert np.all(v == 0.0)

    def test_factorization_matches_materialized_sums(self):
        """The rank-one factorized metrics equal the literal N^2 sums."""
        cfg = _cfg(depth=3, width=7)
        ga, gb = self._traces(cfg)
        m = gradient_metrics(ga, gb)
        n_sq = 49.0
        for l in range(1, 4):
            wa, wb = ga.weight_grad(l), gb.weight_grad(l)
            assert m["g_aa"][l - 1] == pytest.approx(np.sum(wa * wa) / n_sq, rel=1e-12)
            assert m["g_ab"][l - 1] == pytest.approx(abs(np.sum(wa * wb)) / n_sq, rel=1e-12)
            assert m["g_tilde_ab"][l - 1] == pytest.approx(np.sum(np.abs(wa * wb)) / n_sq, rel=1e-12)

    def test_triangle_inequality(self):
        for instance in range(5):
            ga, gb = self._traces(_cfg(depth=6, width=24), instance)
            m = gradient_metrics(ga, gb)
            assert np.all(m["g_tilde_ab"] >= m["g_ab"] - 1e-18)

    def test_mismatched_instances_rejected(self):
        ga, _ = self._traces(_cfg(), 0)
        gb, _ = self._traces(_cfg(), 1)
        with pytest.raises(ConfigError):
            gradient_metrics(ga, gb)


class TestSingleTraceIdentity:
    """The single-trace API (forward, backward, gradient_metrics) reproduces
    the ensemble's per-instance metrics bit for bit."""

    @staticmethod
    def _single(cfg, instance, c0, q0):
        net = sample_network(cfg, instance)
        xa, xb = sample_inputs(cfg.width_N, q0, c0, cfg.seed, instance)
        ta, tb = forward(net, xa, ROLE_MASK_A), forward(net, xb, ROLE_MASK_B)
        za, zb = ta.pre_activations, tb.pre_activations
        qa, qb = np.einsum("li,li->l", za, za), np.einsum("li,li->l", zb, zb)
        out = gradient_metrics(backward(net, ta), backward(net, tb))
        out["q_aa"] = qa / cfg.width_N
        out["c_ab"] = np.einsum("li,li->l", za, zb) / np.sqrt(qa * qb)
        return out

    @pytest.mark.parametrize(
        "metrics",
        [("q_aa",), ("g_aa",), ("c_ab", "g_tilde_ab"), ("q_aa", "c_ab", "g_aa", "g_ab", "g_tilde_ab")],
    )
    @pytest.mark.parametrize("rho", [1.0, 0.6])
    @pytest.mark.parametrize("act", list(Activation))
    def test_one_config(self, act, rho, metrics):
        cfg = _cfg(depth=5, width=16, sw2=1.1, rho=rho, act=act, seed=31)
        for instance in range(3):
            fused = _instance_metrics_many([cfg], instance, 0.6, [1.3], metrics)[0]
            single = self._single(cfg, instance, 0.6, 1.3)
            assert set(fused) == set(metrics)
            for m in metrics:
                np.testing.assert_array_equal(fused[m], single[m])

    def test_mixed_activations(self):
        cfgs = [
            _cfg(depth=5, width=16, rho=0.6, act=Activation.RELU, seed=31),
            _cfg(depth=5, width=16, sw2=1.4, rho=1.0, act=Activation.ERF, seed=31),
        ]
        q0s = [0.7, 1.9]
        fused = _instance_metrics_many(cfgs, 2, 0.3, q0s, METRIC_NAMES)
        for cfg, q0, got in zip(cfgs, q0s, fused):
            single = self._single(cfg, 2, 0.3, q0)
            for m in METRIC_NAMES:
                np.testing.assert_array_equal(got[m], single[m])


class TestEnsemble:
    def test_width_one_needs_exact_correlation(self):
        """A width-1 pair of inputs cannot have |c0| < 1, so pair metrics are
        rejected, while single-input metrics stay well defined."""
        cfg = _cfg(depth=3, width=1)
        with pytest.raises(ConfigError):
            ensemble_run_many([cfg], 2, c0=0.5, metrics=("c_ab",), q0s=_q_stars([cfg]))
        q = ensemble_run_many([cfg], 2, c0=0.5, metrics=("q_aa",), q0s=[1.0])[0]["q_aa"]
        assert np.all(np.isfinite(q.per_layer_mean))

    def test_bit_reproducible(self):
        cfg = _cfg(depth=5, width=32)
        a = ensemble_run_many([cfg], 4, metrics=("q_aa", "g_aa"), q0s=_q_stars([cfg]))[0]
        b = ensemble_run_many([cfg], 4, metrics=("q_aa", "g_aa"), q0s=_q_stars([cfg]))[0]
        np.testing.assert_array_equal(a["q_aa"].per_layer_mean, b["q_aa"].per_layer_mean)
        np.testing.assert_array_equal(a["g_aa"].per_layer_stderr, b["g_aa"].per_layer_stderr)

    def test_threads_do_not_change_results(self):
        cfg = _cfg(depth=5, width=32)
        a = ensemble_run_many([cfg], 6, metrics=("q_aa", "c_ab"), q0s=_q_stars([cfg]), threads=1)[0]
        b = ensemble_run_many([cfg], 6, metrics=("q_aa", "c_ab"), q0s=_q_stars([cfg]), threads=3)[0]
        np.testing.assert_array_equal(a["c_ab"].per_layer_mean, b["c_ab"].per_layer_mean)

    def test_shared_run_equals_separate_runs(self):
        """Every config samples its own networks, so configs of any widths,
        depths and seeds share one ensemble call and still equal separate
        runs bit for bit."""
        cfgs = [
            _cfg(depth=6, width=40, rho=1.0, act=Activation.TANH, seed=99),
            NetworkConfig(6, 40, MeanFieldParams(0.5, 0.1, 0.6), Activation.RELU, seed=99),
            _cfg(depth=4, width=17, sw2=1.3, rho=0.8, act=Activation.ERF, seed=5),
        ]
        q0s = [1.0, 0.6, 1.4]
        fused = ensemble_run_many(cfgs, 4, c0=0.4, metrics=METRIC_NAMES, q0s=q0s)
        for cfg, q0, st in zip(cfgs, q0s, fused):
            alone = ensemble_run_many([cfg], 4, c0=0.4, metrics=METRIC_NAMES, q0s=[q0])[0]
            for m in METRIC_NAMES:
                np.testing.assert_array_equal(st[m].per_layer_mean, alone[m].per_layer_mean)
                np.testing.assert_array_equal(st[m].per_layer_variance, alone[m].per_layer_variance)

    def test_stderr_definition(self):
        cfg = _cfg(depth=3, width=16)
        st = ensemble_run_many([cfg], 8, metrics=("q_aa",), q0s=_q_stars([cfg]))[0]["q_aa"]
        np.testing.assert_allclose(
            st.per_layer_stderr, np.sqrt(st.per_layer_variance / 8), rtol=1e-14
        )
        assert np.all(st.per_layer_variance >= 0.0)
        assert st.n_instances == 8

    def test_identical_instances_have_zero_variance(self):
        """Variance vanishes when every ensemble member is the same draw."""
        cfg = _cfg(depth=3, width=16)
        one = _instance_metrics_many([cfg], 0, 0.5, [1.0], ("q_aa",))[0]["q_aa"]
        data = np.stack([one, one])
        assert np.all(data.var(axis=0, ddof=1) == 0.0)

    def test_doubling_instances_shrinks_stderr(self):
        cfg = _cfg(depth=3, width=24, seed=5)
        small = ensemble_run_many([cfg], 100, metrics=("q_aa",), q0s=_q_stars([cfg]))[0]["q_aa"]
        large = ensemble_run_many([cfg], 200, metrics=("q_aa",), q0s=_q_stars([cfg]))[0]["q_aa"]
        ratio = (large.per_layer_stderr**2 / small.per_layer_stderr**2).mean()
        assert 0.3 < ratio < 0.8  # ~0.5 within sampling noise

    def test_ensemble_mean_is_unbiased_linear(self):
        """For linear networks the expected squared length obeys the theory
        recursion exactly at any finite width, making this a sharp check of
        the dropout scaling in the engine."""
        p = MeanFieldParams(0.25, 2.25, 0.4)
        cfg = NetworkConfig(4, 64, p, Activation.LINEAR, seed=3)
        st = ensemble_run_many([cfg], 3000, metrics=("q_aa",), q0s=[1.0])[0]["q_aa"]
        th = q_trajectory(1.0, 4, p, Activation.LINEAR)
        dev = np.abs(st.per_layer_mean - th) / st.per_layer_stderr
        assert np.all(dev < 4.0), dev

    def test_c_convergence_rate_compatible_with_xi2(self):
        """Simulated correlations approach c* at a rate compatible with the
        pair depth scale (slope within 15%)."""
        p = MeanFieldParams(0.5, 0.5, 1.0)
        d = depth_scales(p, Activation.LINEAR)
        cfg = NetworkConfig(8, 500, p, Activation.LINEAR, seed=21)
        st = ensemble_run_many([cfg], 300, c0=0.2, metrics=("c_ab",), q0s=[d.q_star])[0]["c_ab"]
        gap = 1.0 - st.per_layer_mean  # c* = 1 here
        ls = np.arange(1, 9)
        keep = gap > 0.01
        slope = np.polyfit(ls[keep], np.log(gap[keep]), 1)[0]
        assert -slope == pytest.approx(1.0 / d.xi2, rel=0.15)

    def test_one_instance_is_instance_zero(self):
        """One instance gives instance 0's metrics as the mean, and NaN for
        the variance and stderr, which it leaves undefined."""
        cfg = _cfg(depth=4, width=16)
        st = ensemble_run_many([cfg], 1, c0=0.5, metrics=METRIC_NAMES, q0s=[1.0])[0]
        want = _instance_metrics_many([cfg], 0, 0.5, [1.0], METRIC_NAMES)[0]
        for m in METRIC_NAMES:
            np.testing.assert_array_equal(st[m].per_layer_mean, want[m])
            assert np.all(np.isnan(st[m].per_layer_variance))
            assert np.all(np.isnan(st[m].per_layer_stderr))

    def test_config_validation(self):
        cfg = _cfg()
        with pytest.raises(ConfigError):
            ensemble_run_many([cfg], 0, metrics=("q_aa",), q0s=_q_stars([cfg]))
        with pytest.raises(ConfigError):
            ensemble_run_many([cfg], 4, metrics=("bogus",), q0s=_q_stars([cfg]))
        with pytest.raises(ConfigError):
            ensemble_run_many([], 4, q0s=[])
