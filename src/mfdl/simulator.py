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

One kernel
----------
Every trace runs through one forward loop (_forward_many) and one backward
loop (_backward_many).  A call takes any number of (config, input, masks)
jobs of one network instance, generates each layer's weight matrix once per
pass and multiplies every job's vector by it, one matvec per job.  The
single-trace API (forward, backward) makes one-job calls; an ensemble
instance runs both inputs of every config in one call and reduces them
with gradient_metrics, so the two agree bit for bit by construction.

Randomness and reproducibility
------------------------------
All randomness is drawn as scale-free primitives -- standard normals for
weights, biases and input directions, uniforms for masks -- from streams
keyed by (seed, instance, role, layer) through numpy's SeedSequence
spawn-key mechanism driving SFC64.  Hyperparameters (sigma_w, sigma_b, rho,
activation, input norms) are applied as deterministic transforms of those
primitives.  Consequences:

  * everything is reproducible bit-for-bit from (seed, instance);
  * configs sharing (seed, width, depth) consume identical primitives, so a
    multi-config ensemble can generate each weight matrix once and reuse it
    across configs -- bit-identical to running the configs separately, at a
    fraction of the cost (weight generation dominates the runtime);
  * weight matrices are regenerated from their per-layer stream on the fly
    in both passes instead of being stored (L*N^2 doubles would not fit in
    memory at depth-200/width-1000 scale).

All arithmetic is float64; gradient products across hundreds of layers
underflow float32.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, SFC64, SeedSequence

from .activations import Activation
from .errors import ConfigError, DegenerateStateError
from .meanfield import MeanFieldParams, q_fixed_point

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


@dataclass(frozen=True)
class NetworkInstance:
    """One sampled random network, materialized lazily from its streams.

    weight(l) and bias(l) regenerate the same arrays on every call; this is
    the storage contract that lets deep/wide networks run in bounded memory.
    """

    config: NetworkConfig
    instance: int = 0

    def weight_std(self, layer: int) -> np.ndarray:
        """Unscaled standard-normal weight matrix of layer `layer` (1-based)."""
        if not (1 <= layer <= self.config.depth_L):
            raise ConfigError(f"layer must be in [1, {self.config.depth_L}], got {layer}")
        n = self.config.width_N
        return stream(self.config.seed, self.instance, ROLE_WEIGHTS, layer).standard_normal((n, n))

    def weight(self, layer: int) -> np.ndarray:
        """W^layer with entries N(0, sigma_w^2/N)."""
        scale = math.sqrt(self.config.params.sigma_w_sq / self.config.width_N)
        return self.weight_std(layer) * scale

    def bias_std_block(self) -> np.ndarray:
        """Standard-normal (L, N) bias block; bias(l) = sigma_b * block[l-1]."""
        cfg = self.config
        return stream(cfg.seed, self.instance, ROLE_BIAS).standard_normal(
            (cfg.depth_L, cfg.width_N)
        )

    def bias(self, layer: int) -> np.ndarray:
        if not (1 <= layer <= self.config.depth_L):
            raise ConfigError(f"layer must be in [1, {self.config.depth_L}], got {layer}")
        sb = math.sqrt(self.config.params.sigma_b_sq)
        return self.bias_std_block()[layer - 1] * sb


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
    """Per-layer pre-activations and the dropout masks drawn for one input."""

    config: NetworkConfig
    instance: int
    input_id: str
    x: np.ndarray
    pre_activations: np.ndarray = field(repr=False)  # (L, N)
    masks: np.ndarray = field(repr=False)  # (L, N) bool


@dataclass
class GradientTrace:
    """Backpropagated errors and the input-side gradient factors.

    dE/dW^l is the rank-one product deltas[l-1] (outer) input_factors[l-1];
    weight_grad(l) materializes it (O(N^2), meant for small networks).
    """

    config: NetworkConfig
    instance: int
    input_id: str
    deltas: np.ndarray = field(repr=False)  # (L, N)
    input_factors: np.ndarray = field(repr=False)  # (L, N): (p^l/rho) * y^{l-1}

    def weight_grad(self, layer: int) -> np.ndarray:
        if not (1 <= layer <= self.config.depth_L):
            raise ConfigError(f"layer must be in [1, {self.config.depth_L}], got {layer}")
        return np.outer(self.deltas[layer - 1], self.input_factors[layer - 1])


def _mask_uniforms(cfg: NetworkConfig, instance: int, mask_role: int) -> np.ndarray:
    """The (L, N) uniforms of one mask stream; the masks are uniforms < rho."""
    return stream(cfg.seed, instance, mask_role).random((cfg.depth_L, cfg.width_N))


def _input_scale(cfg: NetworkConfig) -> float:
    return math.sqrt(cfg.params.sigma_w_sq / cfg.width_N) / cfg.params.rho


def _forward_many(net: NetworkInstance, jobs) -> list[ForwardTrace]:
    """Forward passes of (config, x, masks, input_id) jobs through net.

    Every job's config shares net's (seed, width, depth); each layer's
    weight matrix is generated once and multiplies each job's input in turn:
    z = W_std @ ((mask * y) * s_in) + sigma_b * bias_std, where s_in folds
    sqrt(sigma_w^2/N)/rho into the input so the matrix is never scaled.
    """
    L, N = net.config.depth_L, net.config.width_N
    bias_std = net.bias_std_block()
    traces = [
        ForwardTrace(cfg, net.instance, input_id, x, np.empty((L, N)), masks)
        for cfg, x, masks, input_id in jobs
    ]
    scales = [(_input_scale(t.config), math.sqrt(t.config.params.sigma_b_sq)) for t in traces]
    ys = [t.x for t in traces]
    for l in range(1, L + 1):
        w_std = net.weight_std(l)
        for k, (t, (s_in, sb)) in enumerate(zip(traces, scales)):
            v = (t.masks[l - 1] * ys[k]) * s_in
            t.pre_activations[l - 1] = w_std @ v + sb * bias_std[l - 1]
            ys[k] = t.config.activation.value_at(t.pre_activations[l - 1])
    return traces


def _backward_many(net: NetworkInstance, traces) -> list[GradientTrace]:
    """Exact backpropagation of E = sum (z^L)^2 for every trace of net.

    Reuses each trace's stored masks and regenerates net's weights from
    their per-layer streams, once per layer for all traces.
    """
    L, N = net.config.depth_L, net.config.width_N
    grads = [
        GradientTrace(t.config, t.instance, t.input_id, np.empty((L, N)), np.empty((L, N)))
        for t in traces
    ]
    s_ins = [_input_scale(t.config) for t in traces]
    for t, g in zip(traces, grads):
        g.deltas[L - 1] = 2.0 * t.pre_activations[L - 1]
        y, inv_rho = t.x, 1.0 / t.config.params.rho
        for l in range(L):
            g.input_factors[l] = (t.masks[l] * y) * inv_rho
            y = t.config.activation.value_at(t.pre_activations[l])
    for l in range(L - 1, 0, -1):
        w_std = net.weight_std(l + 1)
        for t, g, s_in in zip(traces, grads, s_ins):
            back = w_std.T @ g.deltas[l]
            dphi = t.config.activation.derivative_at(t.pre_activations[l - 1])
            g.deltas[l - 1] = dphi * (t.masks[l] * back) * s_in
    return grads


def forward(net: NetworkInstance, x: np.ndarray, mask_role: int) -> ForwardTrace:
    """Propagate one input, drawing masks from the given role stream.

    mask_role is an arbitrary integer naming the mask stream (ensembles use
    ROLE_MASK_A / ROLE_MASK_B for their two inputs).
    """
    cfg = net.config
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.width_N,):
        raise ConfigError(f"input must have shape ({cfg.width_N},), got {x.shape}")
    masks = _mask_uniforms(cfg, net.instance, mask_role) < cfg.params.rho
    input_id = {ROLE_MASK_A: "a", ROLE_MASK_B: "b"}.get(mask_role, str(mask_role))
    return _forward_many(net, [(cfg, x, masks, input_id)])[0]


def backward(net: NetworkInstance, trace: ForwardTrace) -> GradientTrace:
    """Exact backpropagation of E = sum (z^L)^2 through the trace's network.

    Reuses the trace's stored masks and regenerates the same weights from
    their per-layer streams.
    """
    if trace.config != net.config or trace.instance != net.instance:
        raise ConfigError("trace was produced by a different network instance")
    return _backward_many(net, [trace])[0]


def gradient_metrics(ga: GradientTrace, gb: GradientTrace) -> dict[str, np.ndarray]:
    """Per-layer gradient metrics from two traces of the same instance.

    dE/dW^l is rank one, so the N^2 sums factor exactly into vector products:
      g_aa       (1/N^2) sum_ij (dE_a/dW_ij)^2
      g_ab       |(1/N^2) sum_ij dE_a/dW_ij * dE_b/dW_ij|
      g_tilde_ab (1/N^2) sum_ij |dE_a/dW_ij * dE_b/dW_ij|
    """
    if ga.config != gb.config or ga.instance != gb.instance:
        raise ConfigError("gradient traces come from different network instances")
    n_sq = float(ga.config.width_N) ** 2
    da, db = ga.deltas, gb.deltas
    va, vb = ga.input_factors, gb.input_factors
    g_aa = np.einsum("li,li->l", da, da) * np.einsum("li,li->l", va, va) / n_sq
    g_ab = np.abs(np.einsum("li,li->l", da, db) * np.einsum("li,li->l", va, vb)) / n_sq
    g_tilde = (
        np.einsum("li->l", np.abs(da * db)) * np.einsum("li->l", np.abs(va * vb)) / n_sq
    )
    return {"g_aa": g_aa, "g_ab": g_ab, "g_tilde_ab": g_tilde}


@dataclass(frozen=True)
class EnsembleStats:
    """Per-layer mean/variance/stderr of one metric over instances."""

    metric_name: str
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

    Configs share (seed, width, depth): the inputs of every config run
    through one _forward_many / _backward_many call, so each weight matrix
    is generated once per pass for all of them.
    """
    net = sample_network(configs[0], instance)
    N = net.config.width_N
    pair = any(m in ("c_ab", "g_ab", "g_tilde_ab") for m in metrics)
    roles = (ROLE_MASK_A, ROLE_MASK_B) if pair else (ROLE_MASK_A,)
    uniforms = [_mask_uniforms(net.config, instance, role) for role in roles]
    jobs = []
    for cfg, q0 in zip(configs, q0s):
        # metrics of input a alone ignore c0; c0 = 1 keeps width 1 valid for them
        inputs = sample_inputs(N, q0, c0 if pair else 1.0, cfg.seed, instance)
        jobs += [(cfg, x, u < cfg.params.rho, i) for x, u, i in zip(inputs, uniforms, "ab")]
    traces = _forward_many(net, jobs)
    grads = _backward_many(net, traces) if any(m.startswith("g_") for m in metrics) else None

    n_in = len(roles)
    out = []
    for k in range(len(configs)):
        a, b = k * n_in, k * n_in + n_in - 1  # without a pair, b is a
        z_a, z_b = traces[a].pre_activations, traces[b].pre_activations
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
        if grads is not None:
            g = gradient_metrics(grads[a], grads[b])
            res.update((m, g[m]) for m in metrics if m in g)
        out.append(res)
    return out


def default_q0(cfg: NetworkConfig) -> float:
    """Input norm at the length fixed point, so layer statistics start there."""
    q_star, _ = q_fixed_point(cfg.params, cfg.activation)
    return q_star


def ensemble_run_many(
    configs: list[NetworkConfig],
    n_instances: int,
    c0: float = 0.9,
    metrics=("q_aa",),
    q0s: list[float] | None = None,
    threads: int = 1,
) -> list[dict[str, EnsembleStats]]:
    """Ensemble statistics for several configs sharing (seed, width, depth).

    Weight generation dominates the cost and is shared across configs (see
    module docstring); results are bit-identical to running each config
    through ensemble_run separately with the same seed.
    """
    if not configs:
        raise ConfigError("at least one config is required")
    if n_instances < 2:
        raise ConfigError(f"n_instances must be >= 2, got {n_instances}")
    if abs(c0) > 1.0:
        raise ConfigError(f"|c0| must be <= 1, got {c0!r}")
    base = configs[0]
    for cfg in configs[1:]:
        if (cfg.seed, cfg.width_N, cfg.depth_L) != (base.seed, base.width_N, base.depth_L):
            raise ConfigError(
                "shared ensemble requires identical (seed, width_N, depth_L) across configs"
            )
    names = _validate_metrics(metrics)
    if q0s is None:
        q0s = [default_q0(cfg) for cfg in configs]
    elif len(q0s) != len(configs):
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
            var = data.var(axis=0, ddof=1)
            stats[m] = EnsembleStats(
                metric_name=m,
                per_layer_mean=mean,
                per_layer_variance=var,
                per_layer_stderr=np.sqrt(var / n_instances),
                n_instances=n_instances,
            )
        results.append(stats)
    return results


def ensemble_run(
    cfg: NetworkConfig,
    n_instances: int,
    c0: float = 0.9,
    metrics=("q_aa",),
    q0: float | None = None,
    threads: int = 1,
) -> dict[str, EnsembleStats]:
    """Ensemble statistics for one config; see ensemble_run_many."""
    q0s = None if q0 is None else [q0]
    return ensemble_run_many([cfg], n_instances, c0=c0, metrics=metrics, q0s=q0s, threads=threads)[0]
