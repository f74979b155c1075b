"""Independent oracles the tests check the library against.

No recipe runs these; each recomputes a library result by another route:
the explicit last-three-layer gradient expressions of a linear dropout
network (against the closed induction forms), the depth scale of the
correlation map fitted to its own trajectory (against xi2), and the Tanh
panel integral and HardTanh rectangle probability computed one panel and
one correlation at a time (bit references for the moments module's array
expressions).
"""

from __future__ import annotations

import math

import numpy as np

from mfdl.activations import Activation
from mfdl.errors import ConfigError, MfdlError
from mfdl.meanfield import MeanFieldParams, _c_map_at_fixed_point, _solve_c, q_fixed_point
from mfdl.moments import _GL_NODES, _GL_WEIGHTS, _TANH_CUTOFF, _ndtr


class NonExponentialDecayError(MfdlError):
    """A trajectory shows no exponential decay, so a rate fit is meaningless."""


def delta_moment_explicit(k: int, which: str, p: MeanFieldParams, q_star: float) -> float:
    """Per-unit backpropagated second moment at layer L-k, written out longhand.

    These are the explicitly derived last-three-layer expressions (k = 0, 1,
    2), intentionally free of loops and shared helpers so they can serve as
    an independent oracle for the induction forms.
    """
    if k not in (0, 1, 2):
        raise ConfigError(f"explicit expressions exist only for k in {{0,1,2}}, got {k}")
    if which == "aa":
        A = p.sigma_w_sq / p.rho
        if k == 0:
            return 4.0 * q_star
        if k == 1:
            return 4.0 * (q_star / p.rho) * A * (p.rho + A)
        return 4.0 * (q_star / p.rho) * A * A * (p.rho + A + A * A)
    if which == "ab":
        B = p.sigma_w_sq
        r = p.sigma_w_sq / p.rho**2
        if k == 0:
            return 4.0 * q_star
        if k == 1:
            return 4.0 * q_star * B * (1.0 + r)
        return 4.0 * q_star * B * B * (1.0 + r + r * r)
    raise ConfigError(f"which must be 'aa' or 'ab', got {which!r}")


def appendix_layer_oracle(k: int, which: str, p: MeanFieldParams, q_star: float) -> float:
    """Gradient metric at layer L-k from the explicit layerwise expressions.

    The weight-gradient prefactor (q*/rho for a single input, q*_ab for a
    pair) converts the per-unit moment into the full metric; the result must
    agree with the closed induction forms at l = L-k.  For which='ab' the
    q_star argument is the cross fixed point q*_ab.
    """
    moment = delta_moment_explicit(k, which, p, q_star)
    prefactor = (q_star / p.rho) if which == "aa" else q_star
    return prefactor * moment


def c_convergence_rate(
    p: MeanFieldParams,
    a: Activation,
    c0: float = 0.5,
    layers: int = 200,
) -> float:
    """Empirical depth scale of |c^l - c*| from the recursion itself.

    Runs the correlation map at q*, fits ln|c^l - c*| against l by least
    squares over the asymptotic tail (first 20% of layers and near-floor
    points discarded), and returns -1/slope.  A non-decaying trajectory
    raises NonExponentialDecayError.
    """
    if layers < 10:
        raise ConfigError("layers must be >= 10 for a rate fit")
    q_star, _ = q_fixed_point(p, a)
    c_star, _ = _solve_c(p, a, q_star, c0)
    m = _c_map_at_fixed_point(p, a, q_star)
    cs = np.empty(layers)
    c = float(c0)
    for l in range(layers):
        c = m(c)
        cs[l] = c
    dist = np.abs(cs - c_star)
    floor = np.nonzero(dist < 1e-14)[0]
    end = int(floor[0]) if floor.size else layers
    start = max(int(math.ceil(0.2 * layers)), 0)
    ls = np.arange(1, layers + 1, dtype=float)[start:end]
    ds = dist[start:end]
    keep = ds > 1e-12
    ls, ds = ls[keep], ds[keep]
    if ls.size < 3:
        raise NonExponentialDecayError(
            "too few usable points in the decay tail to fit a rate"
        )
    slope, _ = np.polyfit(ls, np.log(ds), 1)
    if not slope < 0.0:
        raise NonExponentialDecayError(
            f"trajectory does not decay exponentially (fit slope {slope:.3e} >= 0)"
        )
    return -1.0 / slope


def even_decay_integral_loop(g, q: float) -> float:
    """2 * int_0^inf g(u) N(u; 0, q) du, one Gauss-Legendre panel at a time."""
    if q == 0.0:
        return float(g(np.zeros(1))[0])
    s = 0.5 * min(math.sqrt(q), 1.0)
    edges = [0.0]
    while edges[-1] < _TANH_CUTOFF:
        edges.append(min(max(s, 2.0 * edges[-1]), _TANH_CUTOFF))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = mid + half * _GL_NODES
        pdf = np.exp(-u * u / (2.0 * q)) / math.sqrt(2.0 * math.pi * q)
        total += half * float(np.dot(_GL_WEIGHTS, g(u) * pdf))
    return 2.0 * total


def bvn_cdf_scalar(h: float, k: float, r: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal (X, Y) with corr r.

    Owen's T-function formula; |r| = 1 degenerates to the one-dimensional
    comonotone/antimonotone cases.
    """
    if abs(r) >= 1.0:
        if r >= 1.0:
            return _ndtr(min(h, k))
        return max(0.0, _ndtr(h) + _ndtr(k) - 1.0)
    rr = math.sqrt(1.0 - r * r)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(r) / (2.0 * math.pi)
    from scipy.special import owens_t

    if h == 0.0:
        return float(0.5 * _ndtr(k) - owens_t(k, -r / rr))
    if k == 0.0:
        return float(0.5 * _ndtr(h) - owens_t(h, -r / rr))
    ah = (k - r * h) / (h * rr)
    ak = (h - r * k) / (k * rr)
    delta = 0.0 if h * k > 0.0 else 0.5
    return float(0.5 * (_ndtr(h) + _ndtr(k)) - owens_t(h, ah) - owens_t(k, ak) - delta)


def rectangle_prob_loop(alpha: float, beta: float, r) -> np.ndarray:
    """P(|X| < alpha, |Y| < beta) for standard bivariate normal, one r at a time."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    out = np.empty_like(r)
    for i, ri in enumerate(r):
        out[i] = (
            bvn_cdf_scalar(alpha, beta, ri)
            - bvn_cdf_scalar(alpha, -beta, ri)
            - bvn_cdf_scalar(-alpha, beta, ri)
            + bvn_cdf_scalar(-alpha, -beta, ri)
        )
    return out
