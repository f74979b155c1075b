"""Finite-width Monte-Carlo engine for random dropout networks.

Samples networks with weights W^l_ij ~ N(0, sigma_w^2/N) and biases
b^l_i ~ N(0, sigma_b^2), propagates one or two inputs forward through

    z^l = (1/rho) W^l (p^l . y^{l-1}) + b^l,     y^l = phi(z^l),

with per-layer Bernoulli(rho) masks p^l, and backpropagates the squared
loss E = sum_i (z^L_i)^2 (zero labels, no softmax) through the SAME weights
and the SAME stored masks:

    delta^L = 2 z^L
    delta^l = phi'(z^l) . (p^{l+1}/rho) . (W^{l+1})^T delta^{l+1}
    dE/dW^l_ij = (p^l_j / rho) phi(z^{l-1}_j) delta^l_i

One kernel, lazily revealed weights
-----------------------------------
Every trace runs through one forward pass (_forward) and one backward pass
(_backward) of one network instance.  The forward pass stores each layer's
pre-activations and input factors (p^l/rho) y^{l-1}, so phi is evaluated
once per layer and trace, and the backward pass evaluates only phi'.
Neither pass holds a weight matrix: each layer's standard-normal W is a
_LazyGaussian that answers the products asked of it, W v going forward and
W^T delta going backward.  It keeps W Q = Z and W^T P = Y for orthonormal
bases Q and P of the vectors asked about so far.  Given those, W is
distributed as

    P Y^T + (I - PP^T) Z Q^T + (I - PP^T) G (I - QQ^T),    G fresh,

so a new product W v is the part Z Q^T v that is already fixed plus
|v_perp| (P Y^T u + (I - PP^T) g) with u = v_perp / |v_perp| and N fresh
normals g (Bolthausen's conditioning, arXiv:1201.2891).  Backward products
go through the SAME weights as the forward ones, exactly in law, at O(N)
work and memory per product instead of O(N^2).  A product does only the
work its state needs: v is rescaled (by an exact power of two) only when
its squared norm leaves (1e-200, 1e200), and the projections onto a side
whose basis is still empty are skipped, as they are on the first forward
and the first backward product of every layer.  weight_std(l) / weight(l)
materialize a full matrix from the conditional law of everything revealed
so far and pin it; later products use that matrix, so "materialize every
layer first" is the dense small-N oracle of the same engine.

An ensemble instance runs its traces one after another, forward a,
forward b, backward a, backward b, as the single-trace API does with
forward(a), forward(b), backward(a), backward(b); so every layer is asked
its products in the same order, and both give the same bits.

Randomness and reproducibility
------------------------------
All randomness is drawn as scale-free primitives -- standard normals for
weights, biases and input directions, uniforms for masks -- from streams
keyed by (seed, instance, role, layer) through numpy's SeedSequence
spawn-key mechanism driving SFC64.  Hyperparameters (sigma_w, sigma_b, rho,
activation, input norms) are applied as deterministic transforms of those
primitives.  Consequences:

  * a layer's weight stream is created once per NetworkInstance and drawn
    from in the order its products are asked, so the bits are fixed by
    (seed, instance) and that order: the same sequence of products gives
    the same bits;
  * every config of a multi-config ensemble samples its own networks, so a
    config's results do not depend on the other configs of the call and
    equal a call with that config alone bit for bit;
  * a layer keeps two N-vectors per product that revealed a new direction
    (at most eight for an ensemble instance; N^2 numbers once its weights
    are materialized), so L*N^2 weights are never stored or generated.

All arithmetic is float64; gradient products across hundreds of layers
underflow float32.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Generator, SFC64, SeedSequence

from .activations import Activation
from .errors import ConfigError, DegenerateStateError
from .meanfield import MeanFieldParams

ROLE_WEIGHTS = 1
ROLE_BIAS = 2
ROLE_MASK_A = 3
ROLE_MASK_B = 4
ROLE_INPUT = 5

METRIC_NAMES = ("q_aa", "c_ab", "g_aa", "g_ab", "g_tilde_ab")

_MASK64 = (1 << 64) - 1


def stream(seed: int, instance: int, role: int, layer: int = 0) -> Generator:
    """The random stream for one (instance, role, layer) slot.

    SFC64 seeded through SeedSequence(seed, spawn_key=(instance, role,
    layer)); both algorithms are documented and version-stable in numpy, so
    any consumer can regenerate any slot independently.
    """
    ss = SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(instance, role, layer))
    return Generator(SFC64(ss))


@dataclass(frozen=True)
class NetworkConfig:
    """One simulated ensemble member family: geometry, parameters, seed."""

    depth_L: int
    width_N: int
    params: MeanFieldParams
    activation: Activation
    seed: int = 0

    def __post_init__(self):
        if self.depth_L < 1:
            raise ConfigError(f"depth_L must be >= 1, got {self.depth_L}")
        if self.width_N < 1:
            raise ConfigError(f"width_N must be >= 1, got {self.width_N}")


# a product whose vector lies in the span of those already revealed, up to
# this fraction of its norm, reveals nothing new (relative, so that tiny
# deltas still draw their fresh part, and v_b = v_a allows rank one)
_RANK_TOL = 1e-12


class _LazyGaussian:
    """One layer's N x N standard-normal matrix, revealed one product at a time.

    Keeps W Q = Z and W^T P = Y for orthonormal bases Q (input side) and P
    (output side) of the vectors asked about so far, stored transposed: the
    rows of _q, _z, _p, _y are the columns of Q, Z, P, Y.  See the module
    docstring for the conditional law behind matvec, rmatvec and dense.
    """

    def __init__(self, gen: Generator, n: int):
        self._gen = gen
        self._n = n
        self._q = self._z = self._p = self._y = np.empty((0, n))
        self._dense: np.ndarray | None = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """W v."""
        if self._dense is not None:
            return self._dense @ v
        out, self._q, self._z = self._reveal(v, self._q, self._z, self._p, self._y)
        return out

    def rmatvec(self, d: np.ndarray) -> np.ndarray:
        """W^T d."""
        if self._dense is not None:
            return self._dense.T @ d
        out, self._p, self._y = self._reveal(d, self._p, self._y, self._q, self._z)
        return out

    def _reveal(self, v, basis, image, other, other_image):
        """The product with v on the side whose revealed pairs are (basis,
        image), and that side's new (basis, image); other / other_image are
        the opposite side's.

        v is scaled by a power of two only when its squared norm leaves
        (1e-200, 1e200), so that it can neither underflow however small the
        backpropagated errors get nor overflow.  The scaling is exact, so
        the bits are those of the unscaled arithmetic.  Projections onto an
        empty basis are skipped: on the first product of a side v is all
        perpendicular, and the fresh direction of the first product of the
        other side is g itself.
        """
        vv = np.vdot(v, v)  # the bits of v @ v, without an overflow warning
        exp = 0
        if not 1e-200 < vv < 1e200:  # outside, scale to max |v| in [1/2, 1)
            exp = math.frexp(float(np.abs(v).max()))[1]
            v = np.ldexp(v, -exp)
            vv = v @ v
        if len(basis):
            coef = basis @ v
            perp = v - coef @ basis
            fix = basis @ perp  # a second Gram-Schmidt pass keeps the basis orthonormal
            perp -= fix @ basis
            coef += fix
            out = coef @ image
            norm = math.sqrt(perp @ perp)
        else:
            perp, out, norm = v, np.zeros(self._n), math.sqrt(vv)
        if not norm <= _RANK_TOL * math.sqrt(vv):  # a NaN norm draws too
            u = perp / norm
            g = self._gen.standard_normal(self._n)
            w_u = g
            if len(other):
                w_u = (other_image @ u) @ other + (g - (other @ g) @ other)
            out += norm * w_u
            basis = np.concatenate((basis, u[None]))
            image = np.concatenate((image, w_u[None]))
        return (np.ldexp(out, exp) if exp else out), basis, image

    def dense(self) -> np.ndarray:
        """The whole matrix, drawn from the law given what is revealed, pinned."""
        if self._dense is None:
            q, z, p, y = self._q, self._z, self._p, self._y
            w = self._gen.standard_normal((self._n, self._n))
            w -= (w @ q.T) @ q
            w -= p.T @ (p @ w)
            w += p.T @ y + (z - (z @ p.T) @ p).T @ q
            w.flags.writeable = False
            self._dense = w
        return self._dense


@dataclass(frozen=True)
class NetworkInstance:
    """One sampled random network, revealed lazily from its streams.

    Each layer's weights are a _LazyGaussian made on first use from the
    layer's stream and kept for the life of the instance, so the forward
    and backward passes and weight(l) all see the same weights.  Which bits
    they get depends on the order of the products asked (module docstring).
    """

    config: NetworkConfig
    instance: int = 0
    _layers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _layer(self, layer: int) -> _LazyGaussian:
        if not (1 <= layer <= self.config.depth_L):
            raise ConfigError(f"layer must be in [1, {self.config.depth_L}], got {layer}")
        lazy = self._layers.get(layer)
        if lazy is None:
            gen = stream(self.config.seed, self.instance, ROLE_WEIGHTS, layer)
            lazy = self._layers[layer] = _LazyGaussian(gen, self.config.width_N)
        return lazy

    def weight_std(self, layer: int) -> np.ndarray:
        """Unscaled standard-normal weight matrix of layer `layer` (1-based).

        Materialized from the law given the products revealed so far and
        pinned: later products and calls use this (read-only) matrix.
        """
        return self._layer(layer).dense()

    def weight(self, layer: int) -> np.ndarray:
        """W^layer with entries N(0, sigma_w^2/N)."""
        scale = math.sqrt(self.config.params.sigma_w_sq / self.config.width_N)
        return self.weight_std(layer) * scale

    @cached_property
    def bias_std(self) -> np.ndarray:
        """Standard-normal (L, N) bias block, drawn once; bias(l) = sigma_b * bias_std[l-1]."""
        cfg = self.config
        block = stream(cfg.seed, self.instance, ROLE_BIAS).standard_normal(
            (cfg.depth_L, cfg.width_N)
        )
        block.flags.writeable = False
        return block

    def bias(self, layer: int) -> np.ndarray:
        if not (1 <= layer <= self.config.depth_L):
            raise ConfigError(f"layer must be in [1, {self.config.depth_L}], got {layer}")
        sb = math.sqrt(self.config.params.sigma_b_sq)
        return self.bias_std[layer - 1] * sb


def sample_network(cfg: NetworkConfig, instance: int = 0) -> NetworkInstance:
    """Instance `instance` of the ensemble defined by cfg; deterministic."""
    if instance < 0:
        raise ConfigError(f"instance must be >= 0, got {instance}")
    return NetworkInstance(config=cfg, instance=instance)


def sample_inputs(
    width_N: int,
    q0: float,
    c0: float,
    seed: int,
    instance: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two inputs with exact norm (1/N)|x|^2 = q0 and exact correlation c0.

    Gaussian directions, rescaled so the norm holds exactly, with a
    Gram-Schmidt correction so (1/N) x_a . x_b = c0 * q0 exactly.
    """
    if q0 <= 0.0:
        raise ConfigError(f"q0 must be > 0, got {q0!r}")
    if abs(c0) > 1.0:
        raise ConfigError(f"|c0| must be <= 1, got {c0!r}")
    g = stream(seed, instance, ROLE_INPUT).standard_normal((2, width_N))
    target = math.sqrt(q0 * width_N)
    x_a = g[0] * (target / np.linalg.norm(g[0]))
    if abs(c0) == 1.0:
        return x_a, math.copysign(1.0, c0) * x_a
    if width_N < 2:
        raise ConfigError("width_N must be >= 2 for |c0| < 1")
    u = g[1] - (np.dot(g[1], x_a) / np.dot(x_a, x_a)) * x_a
    e = u * (target / np.linalg.norm(u))
    x_b = c0 * x_a + math.sqrt(1.0 - c0 * c0) * e
    return x_a, x_b


@dataclass
class ForwardTrace:
    """One input's pass: per-layer pre-activations, the layers' input
    factors (p^l/rho) * y^{l-1} and the dropout masks drawn for it."""

    x: np.ndarray
    pre_activations: np.ndarray = field(repr=False)  # (L, N)
    input_factors: np.ndarray = field(repr=False)  # (L, N): (p^l/rho) * y^{l-1}
    masks: np.ndarray = field(repr=False)  # (L, N) bool
    network: NetworkInstance = field(repr=False, compare=False)  # whose weights it saw


@dataclass
class GradientTrace:
    """Backpropagated errors and the input-side gradient factors.

    dE/dW^l is the rank-one product deltas[l-1] (outer) input_factors[l-1];
    weight_grad(l) materializes it (O(N^2), meant for small networks).
    """

    deltas: np.ndarray = field(repr=False)  # (L, N)
    input_factors: np.ndarray = field(repr=False)  # the forward trace's array, not a copy
    network: NetworkInstance = field(repr=False, compare=False)

    def weight_grad(self, layer: int) -> np.ndarray:
        L = self.network.config.depth_L
        if not (1 <= layer <= L):
            raise ConfigError(f"layer must be in [1, {L}], got {layer}")
        return np.outer(self.deltas[layer - 1], self.input_factors[layer - 1])


def _masks(cfg: NetworkConfig, instance: int, mask_role: int) -> np.ndarray:
    """The (L, N) dropout masks of one mask stream: its uniforms < rho."""
    uniforms = stream(cfg.seed, instance, mask_role).random((cfg.depth_L, cfg.width_N))
    return uniforms < cfg.params.rho


def _input_scale(cfg: NetworkConfig) -> float:
    return math.sqrt(cfg.params.sigma_w_sq / cfg.width_N) / cfg.params.rho


def _forward(net: NetworkInstance, x: np.ndarray, masks: np.ndarray) -> ForwardTrace:
    """One input's forward pass through net, with the given masks.

    Layer by layer, z = W_std v + sigma_b * bias_std with v = (mask * y) * s_in,
    where s_in folds sqrt(sigma_w^2/N)/rho into the input so the standard
    weights are never scaled; (mask * y) / rho is the layer's input factor.
    """
    cfg = net.config
    L, N = cfg.depth_L, cfg.width_N
    s_in, inv_rho = _input_scale(cfg), 1.0 / cfg.params.rho
    sb = math.sqrt(cfg.params.sigma_b_sq)
    t = ForwardTrace(x, np.empty((L, N)), np.empty((L, N)), masks, net)
    for l in range(1, L + 1):
        # the loss is on z^L, so phi(z^L) is no layer's input and is not formed
        y = x if l == 1 else cfg.activation.value_at(t.pre_activations[l - 2])
        masked = masks[l - 1] * y
        t.input_factors[l - 1] = masked * inv_rho
        t.pre_activations[l - 1] = net._layer(l).matvec(masked * s_in) + sb * net.bias_std[l - 1]
    return t


def _backward(net: NetworkInstance, t: ForwardTrace) -> GradientTrace:
    """Exact backpropagation of E = sum (z^L)^2 for one forward trace of net.

    Reuses the trace's stored masks and input factors and goes back through
    the weights its forward pass revealed.  phi' of the pre-activations is
    evaluated once, as one (L-1, N) block.
    """
    cfg, z = net.config, t.pre_activations
    g = GradientTrace(np.empty_like(z), t.input_factors, net)
    # phi'(z^l) waits in the row of delta^l until the loop below overwrites it
    g.deltas[:-1] = cfg.activation.derivative_at(z[:-1])
    g.deltas[-1] = 2.0 * z[-1]
    s_in = _input_scale(cfg)
    for l in range(cfg.depth_L - 1, 0, -1):
        back = net._layer(l + 1).rmatvec(g.deltas[l])
        d = g.deltas[l - 1]  # phi'(z^l) until this step
        d *= t.masks[l] * back
        d *= s_in
    return g


def forward(net: NetworkInstance, x: np.ndarray, mask_role: int) -> ForwardTrace:
    """Propagate one input, drawing masks from the given role stream.

    mask_role is an arbitrary integer naming the mask stream (ensembles use
    ROLE_MASK_A / ROLE_MASK_B for their two inputs).
    """
    cfg = net.config
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.width_N,):
        raise ConfigError(f"input must have shape ({cfg.width_N},), got {x.shape}")
    return _forward(net, x, _masks(cfg, net.instance, mask_role))


def backward(net: NetworkInstance, trace: ForwardTrace) -> GradientTrace:
    """Exact backpropagation of E = sum (z^L)^2 through the trace's network.

    Reuses the trace's stored masks and the weights its forward pass
    revealed, so the trace must come from this very NetworkInstance: a
    second sample_network of the same (config, instance) reveals its own
    weights.
    """
    if trace.network is not net:
        raise ConfigError("trace was produced by a different network instance")
    return _backward(net, trace)


def gradient_metrics(ga: GradientTrace, gb: GradientTrace) -> dict[str, np.ndarray]:
    """Per-layer gradient metrics from two traces of the same instance.

    dE/dW^l is rank one, so the N^2 sums factor exactly into vector products:
      g_aa       (1/N^2) sum_ij (dE_a/dW_ij)^2
      g_ab       |(1/N^2) sum_ij dE_a/dW_ij * dE_b/dW_ij|
      g_tilde_ab (1/N^2) sum_ij |dE_a/dW_ij * dE_b/dW_ij|
    All three contract the same way, so g_aa = g_ab = g_tilde_ab exactly
    when a is b.
    """
    if ga.network is not gb.network:
        raise ConfigError("gradient traces come from different network instances")
    n_sq = float(ga.network.config.width_N) ** 2
    da, db = ga.deltas, gb.deltas
    va, vb = ga.input_factors, gb.input_factors
    g_aa = np.einsum("li,li->l", da, da) * np.einsum("li,li->l", va, va) / n_sq
    g_ab = np.abs(np.einsum("li,li->l", da, db) * np.einsum("li,li->l", va, vb)) / n_sq
    g_tilde = (
        np.einsum("li,li->l", np.abs(da), np.abs(db))
        * np.einsum("li,li->l", np.abs(va), np.abs(vb))
        / n_sq
    )
    return {"g_aa": g_aa, "g_ab": g_ab, "g_tilde_ab": g_tilde}


@dataclass(frozen=True)
class EnsembleStats:
    """Per-layer mean/variance/stderr of one metric over instances."""

    per_layer_mean: np.ndarray
    per_layer_variance: np.ndarray
    per_layer_stderr: np.ndarray
    n_instances: int


def _validate_metrics(metrics) -> tuple[str, ...]:
    names = tuple(metrics)
    for m in names:
        if m not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {m!r}; expected subset of {METRIC_NAMES}")
    if not names:
        raise ConfigError("at least one metric is required")
    return names


def _instance_metrics_many(configs, instance, c0, q0s, metrics):
    """All requested per-layer metrics for one instance of every config.

    Each config samples its own network, so its results do not depend on
    the other configs.  Input b runs whenever a metric needs more than the
    forward pass of input a, and the traces run one after another: forward
    a, forward b, backward a, backward b, the order of the single-trace API.
    """
    pair = any(m != "q_aa" for m in metrics)
    roles = (ROLE_MASK_A, ROLE_MASK_B) if pair else (ROLE_MASK_A,)
    out = []
    for cfg, q0 in zip(configs, q0s):
        net = sample_network(cfg, instance)
        N = cfg.width_N
        # q_aa alone ignores c0; c0 = 1 keeps width 1 valid for it
        inputs = sample_inputs(N, q0, c0 if pair else 1.0, cfg.seed, instance)
        traces = [_forward(net, x, _masks(cfg, instance, role)) for x, role in zip(inputs, roles)]
        z_a, z_b = traces[0].pre_activations, traces[-1].pre_activations  # without a pair, b is a
        res = {}
        if "q_aa" in metrics:
            res["q_aa"] = np.einsum("li,li->l", z_a, z_a) / N
        if "c_ab" in metrics:
            qa = np.einsum("li,li->l", z_a, z_a)
            qb = np.einsum("li,li->l", z_b, z_b)
            cross = np.einsum("li,li->l", z_a, z_b)
            denom = np.sqrt(qa * qb)
            if np.any(denom == 0.0):
                raise DegenerateStateError("zero-length layer; correlation undefined")
            res["c_ab"] = cross / denom
        if any(m.startswith("g_") for m in metrics):
            g = gradient_metrics(*[_backward(net, t) for t in traces])
            res.update((m, g[m]) for m in metrics if m in g)
        out.append(res)
    return out


def ensemble_run_many(
    configs: list[NetworkConfig],
    n_instances: int,
    c0: float = 0.9,
    metrics=("q_aa",),
    *,
    q0s: list[float],
    threads: int = 1,
) -> list[dict[str, EnsembleStats]]:
    """Ensemble statistics for several configs, one dict per config.

    q0s[k] is the input length (1/N)|x|^2 of configs[k]; a caller that
    starts at the length fixed point passes q* from meanfield.q_fixed_point.
    The engine solves no theory: the theory is its N -> infinity oracle.

    Every config samples its own networks (see module docstring), so the
    results are bit-identical to a separate one-config call per config.
    One instance leaves the variance and stderr undefined: they are NaN.
    """
    if not configs:
        raise ConfigError("at least one config is required")
    if n_instances < 1:
        raise ConfigError(f"n_instances must be >= 1, got {n_instances}")
    if abs(c0) > 1.0:
        raise ConfigError(f"|c0| must be <= 1, got {c0!r}")
    names = _validate_metrics(metrics)
    if len(q0s) != len(configs):
        raise ConfigError("q0s must match configs in length")

    def worker(i):
        return _instance_metrics_many(configs, i, c0, q0s, names)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_instance = list(pool.map(worker, range(n_instances)))
    else:
        per_instance = [worker(i) for i in range(n_instances)]

    results = []
    for k in range(len(configs)):
        stats = {}
        for m in names:
            data = np.stack([per_instance[i][k][m] for i in range(n_instances)])
            mean = data.mean(axis=0)
            var = data.var(axis=0, ddof=1) if n_instances > 1 else np.full_like(mean, np.nan)
            stats[m] = EnsembleStats(
                per_layer_mean=mean,
                per_layer_variance=var,
                per_layer_stderr=np.sqrt(var / n_instances),
                n_instances=n_instances,
            )
        results.append(stats)
    return results
