"""Gaussian moments of activations and their derivatives.

The signal-propagation recursions need four expectation families, with
u1 = sqrt(qa)*z1 and u2 = sqrt(qb)*(c*z1 + sqrt(1-c^2)*z2):

    phi_sq     E[phi(sqrt(q) z)^2]
    dphi_sq    E[phi'(sqrt(q) z)^2]
    phi_cross  E[phi(u1) phi(u2)]
    dphi_cross E[phi'(u1) phi'(u2)]

Generic Gauss-Hermite quadrature is exact for polynomials and excellent for
analytic integrands at moderate variance, but it degrades badly for
integrands with kinks or jumps (HardTanh's derivative is an indicator;
measured error ~1e-2 at order 64) and for saturating functions once the
variance pushes their transition region below the node spacing (Tanh and
Erf at q >> 1).  This module therefore dispatches per activation:

  - Linear, ReLU, Erf: closed forms (orthant/arc-cosine kernels for ReLU,
    arcsine/determinant identities for Erf).
  - HardTanh: closed forms via erf (phi_sq takes a Taylor series above
    q = 1, where the closed form cancels); the bivariate pair integrates a
    closed-form conditional probability over one input on the panel rule.
  - Tanh: univariate moments via a scale-adaptive composite Gauss-Legendre
    rule on the saturation variable (exact at any q; phi_sq integrates
    tanh^2 itself up to q = 1, where 1 - E[sech^2] would cancel); bivariate
    moments summed directly over the tensor product of this module's
    64-node Gauss-Hermite rule (its error grows with the variance; the
    README's "Numerical notes" give measured values).  This module is the
    only one that builds a quadrature rule.

The panel rule is one (P, 24) array expression; Python adds up only the
per-panel sums, in order, so for Tanh it equals bit for bit the loop that
tests/oracles.py keeps.  erfc comes from the math module: no scipy here.

At |c| = 1 every bivariate moment reduces exactly to its univariate
counterpart (to 0 for ReLU at c = -1, where relu(u) relu(-u) = 0), so
downstream identities (e.g. the two slope quantities coinciding at a fully
correlated fixed point without dropout) hold to machine precision rather
than to quadrature tolerance.

All values are continuous extensions in q: limits as q -> 0+ are used at
q = 0 (e.g. E[phi'(sqrt(q) z)^2] -> 1/2 for ReLU).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .activations import Activation
from .errors import ConfigError

_SQRT2 = math.sqrt(2.0)


def _normal_gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite rule for N(0, 1): nodes sqrt(2) x, weights
    summing to 1, both symmetrized exactly about 0 so odd moments vanish."""
    x, w = hermgauss(order)
    nodes, weights = x * _SQRT2, w / w.sum()
    nodes, weights = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# tensor Gauss-Hermite rule of the bivariate Tanh moments (_gh_cross)
_GH_NODES, _GH_WEIGHTS = _normal_gauss_hermite(64)


def _check_q(q: float, name: str = "q") -> float:
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise ConfigError(f"{name} must be finite and >= 0, got {q!r}")
    return q


def _check_c(c: float) -> float:
    c = float(c)
    if not math.isfinite(c) or abs(c) > 1.0:
        raise ConfigError(f"correlation must lie in [-1, 1], got {c!r}")
    return c


# ---------------------------------------------------------------------------
# Composite Gauss-Legendre panels; Tanh in the saturation variable, where
# E[g(sqrt(q) z)] = int g(u) N(u; 0, q) du for even g that differs from its
# limit only on |u| <~ 15 (sech^2, sech^4), on panels from min(sqrt(q), 1).
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(24)
_TANH_CUTOFF = 20.0


def _panel_integral(f, breaks: list[float], h: float, stop: float, end: float) -> float:
    """int f on 24-node Gauss-Legendre panels from breaks[0].  Between two
    breaks the widths double from h at both ends and meet halfway; past the
    last break they double from h until an edge reaches stop, clipped to end."""
    edges = [breaks[0]]
    for a, b in zip(breaks, breaks[1:]):
        d = h * 2.0 ** np.arange(max(0, math.ceil(math.log2((b - a) / (2.0 * h)))))
        edges += [*(a + d), *(b - d[::-1]), b]
    d = h
    while edges[-1] < stop:
        edges.append(min(breaks[-1] + d, end))
        d *= 2.0
    e = np.array(edges)
    mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
    # every panel's nodes as one (P, 24) block, the integrand evaluated once
    vals = f(mid[:, None] + half[:, None] * _GL_NODES)
    # (P, 1, 24) @ (24,) takes one BLAS dot per panel row, the sum that
    # np.dot(_GL_WEIGHTS, row) gives; vals @ _GL_WEIGHTS (gemv) sums in
    # another order and moves the last bits.  Panels add up in order.
    dots = (vals[:, None, :] @ _GL_WEIGHTS).ravel()
    total = 0.0
    for w, dot in zip(half.tolist(), dots.tolist()):
        total += w * dot
    return total


def _even_decay_integral(g, q: float) -> float:
    """2 * int_0^inf g(u) N(u; 0, q) du for even, rapidly decaying g."""
    if q == 0.0:
        return float(g(np.zeros(1))[0])
    s = 0.5 * min(math.sqrt(q), 1.0)
    # past 40 sqrt(q) the density is exp(<= -800) = 0.0: later panels add 0.0
    stop = min(_TANH_CUTOFF, 40.0 * math.sqrt(q))
    pdf = lambda u: np.exp(-u * u / (2.0 * q)) / math.sqrt(2.0 * math.pi * q)
    return 2.0 * _panel_integral(lambda u: g(u) * pdf(u), [0.0], s, stop, _TANH_CUTOFF)


def _sech2(u: np.ndarray) -> np.ndarray:
    return 1.0 / np.cosh(u) ** 2


def _sech4(u: np.ndarray) -> np.ndarray:
    return 1.0 / np.cosh(u) ** 4


def _tanh_sq(q: float) -> float:
    # 1 - E[sech^2] cancels at small q; up to q = 1 the Gaussian has decayed
    # by the cutoff, so tanh^2 itself integrates there
    if q <= 1.0:
        return _even_decay_integral(lambda u: np.tanh(u) ** 2, q)
    return 1.0 - _even_decay_integral(_sech2, q)


def _tanh_dsq(q: float) -> float:
    # phi' = sech^2, so phi'^2 = sech^4
    return _even_decay_integral(_sech4, q)


# ---------------------------------------------------------------------------
# HardTanh: closed forms for one input; the cross moments on the panel rule.
# ---------------------------------------------------------------------------


def _hardtanh_sq(q: float) -> float:
    if q == 0.0:
        return 0.0
    a = 1.0 / math.sqrt(q)
    if a < 1.0:
        # q (P(|z| < a) - 2 a pdf(a)) cancels as q grows; its Taylor series
        # sqrt(2/pi) a sum_k (-a^2/2)^k / (k! (2k + 3)) does not
        term, series = 1.0, 0.0
        for k in range(25):
            series += term / (2 * k + 3)
            term *= -0.5 * a * a / (k + 1)
        return math.sqrt(2.0 / math.pi) * a * series + math.erfc(a / _SQRT2)
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    inside = math.erf(a / _SQRT2)  # P(|z| < a)
    return q * (inside - 2.0 * a * pdf) + (1.0 - inside)


def _hardtanh_dsq(q: float) -> float:
    if q == 0.0:
        return 1.0
    return math.erf(1.0 / math.sqrt(2.0 * q))


# The cross moments condition on the input of larger q: with alpha =
# 1/sqrt(qa) <= beta = 1/sqrt(qb) and t = sqrt(1 - c^2), u1 = z1/alpha and
# u2 = (c z1 + t z2)/beta.  Given y = |z1|, D(y) = P(|c y + t z2| < beta) is
# closed; dphi_cross = 2 int_0^alpha pdf D dy and, as E[clip(c y + t z2, -beta,
# beta)] = |c| int_0^y D, by parts phi_cross = 2 (|c|/beta) int_0^inf D G dy, odd
# in c, with G(y) = E[min(|z1|/alpha, 1); |z1| > y].  Both run on the panel
# rule, refined at scale t toward the kinks alpha and beta/|c|.
_Z_END = 10.0  # the standard normal density past here adds < 1e-20 of a moment
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _npdf(x: np.ndarray) -> np.ndarray:
    x = np.minimum(np.abs(x), 40.0)  # the density is 0.0 there; x * x stays finite
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _window(m: np.ndarray, w: float) -> np.ndarray:
    """P(|m + Z| < w)/w for m >= 0, Z ~ N(0, 1), in terms of like sign: erfcs of |m - w|
    and m + w at w >= 1 (1 - their mean >= 1/3 at m < w), below int pdf(w s - m) ds on [-1, 1]."""
    if w < 1.0:
        return _npdf(w * _GL_NODES - m[..., None]) @ _GL_WEIGHTS
    ea, eb = _erfc(np.stack((np.abs(m - w), m + w)) / _SQRT2).astype(np.float64)
    return np.where(m < w, 1.0 - 0.5 * (ea + eb), 0.5 * (ea - eb)) / w


def _hardtanh_cross(qa: float, qb: float, c: float, deriv: bool) -> float:
    t = math.sqrt((1.0 - c) * (1.0 + c))
    if deriv and (min(qa, qb) == 0.0 or t == 0.0):
        # phi'(0) = 1 leaves the other factor; at |c| = 1, |u1| < 1 implies |u2| < 1
        return _hardtanh_dsq(max(qa, qb))
    alpha, beta = 1.0 / math.sqrt(max(qa, qb)), 1.0 / math.sqrt(min(qa, qb))
    knee, a = beta / abs(c) if c else math.inf, min(alpha, 40.0)  # a * a stays finite

    def f(y):
        # D/beta; at t = 0, u2 = c sqrt(qb/qa) u1 makes D a step
        d = (y < knee) / beta if t == 0.0 else _window(y * (abs(c) / t), beta / t) / t
        if deriv:
            return _npdf(y) * (beta * d)
        # G = Q(max(y, alpha)) + pdf(y) (1 - pdf(alpha)/pdf(y))/alpha up to alpha
        g = 0.5 * _erfc(np.maximum(y, alpha) / _SQRT2).astype(np.float64)
        return d * (g + _npdf(y) * -np.expm1(-0.5 * np.maximum(a - y, 0.0) * (a + y)) / alpha)

    end = min(alpha, _Z_END) if deriv else _Z_END
    breaks = sorted({0.0} | {b for b in (alpha, knee) if b <= end})
    integral = 2.0 * _panel_integral(f, breaks, t if t > 0.0 else 1.0, end, end)
    return integral if deriv else math.copysign(abs(c) * integral, c)


# ---------------------------------------------------------------------------
# ReLU closed forms (arc-cosine kernel family).
# ---------------------------------------------------------------------------


def _relu_cross_kernel(c: float) -> float:
    # E[relu(X) relu(Y)] for standard bivariate normal with corr c
    c = min(max(c, -1.0), 1.0)
    return (math.sqrt(max(0.0, 1.0 - c * c)) + c * (math.pi - math.acos(c))) / (
        2.0 * math.pi
    )


def _relu_dcross_kernel(c: float) -> float:
    # P(X > 0, Y > 0) orthant probability
    c = min(max(c, -1.0), 1.0)
    return 0.25 + math.asin(c) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Erf closed forms (arcsine / determinant identities), phi(z) = erf(az) with
# a = sqrt(pi)/2.  2*a^2 = pi/2 appears throughout.
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2.0
_TWO_OVER_PI = 2.0 / math.pi


def _erf_sq(q: float) -> float:
    return _TWO_OVER_PI * math.asin(_HALF_PI * q / (1.0 + _HALF_PI * q))


def _erf_dsq(q: float) -> float:
    return 1.0 / math.sqrt(1.0 + math.pi * q)


def _erf_cross_pair(qa: float, qb: float, c: float) -> tuple[float, float]:
    """(phi_cross, dphi_cross) of Erf, with no product that can overflow and
    no difference of like-sized terms.

    With h = pi/2, s = h q / (1 + h q) and t = 1 / (1 + h q), formed as
    (q, 1/h) / (q + 1/h), the determinant (1 + h qa)(1 + h qb) - h^2 qa qb c^2
    is D / (t_a t_b) with D = t_a + s_a t_b + s_a s_b (1 - c)(1 + c), a sum of
    nonnegative terms.  phi_cross = (2/pi) asin(c sqrt(s_a s_b)), and the
    cosine of that angle is sqrt(D): atan2 keeps the digits that asin loses
    as its argument nears 1.
    """
    da, db = qa + _TWO_OVER_PI, qb + _TWO_OVER_PI
    sa, ta, sb, tb = qa / da, _TWO_OVER_PI / da, qb / db, _TWO_OVER_PI / db
    cos = math.sqrt(ta + sa * tb + sa * sb * ((1.0 - c) * (1.0 + c)))
    cross = _TWO_OVER_PI * math.atan2(c * math.sqrt(sa) * math.sqrt(sb), cos)
    return cross, math.sqrt(ta) * math.sqrt(tb) / cos


# ---------------------------------------------------------------------------
# Tensor Gauss-Hermite fallback (bivariate Tanh).
# ---------------------------------------------------------------------------


def _gh_cross(act, qa: float, qb: float, c: float, deriv: bool) -> float:
    """E[f(u1) f(u2)] with f = phi or phi' on the 64 x 64 tensor rule; c is
    already validated, and the integrand is finite for finite arguments."""
    f = act.derivative_at if deriv else act.value_at
    sa, sb = math.sqrt(qa), math.sqrt(qb)
    z, w = _GH_NODES, _GH_WEIGHTS
    if abs(c) == 1.0:
        sign = 1.0 if c > 0 else -1.0
        return float(np.dot(w, f(sa * z) * f(sign * sb * z)))
    t = math.sqrt(1.0 - c * c)
    z1, z2 = z[:, None], z[None, :]
    return float(w @ (f(sa * z1) * f(sb * (c * z1 + t * z2))) @ w)


# ---------------------------------------------------------------------------
# Public dispatch.
# ---------------------------------------------------------------------------


def phi_sq(act: Activation, q: float) -> float:
    """E[phi(sqrt(q) z)^2] under the standard normal measure."""
    q = _check_q(q)
    if act is Activation.LINEAR:
        return q
    if act is Activation.RELU:
        return 0.5 * q
    if act is Activation.ERF:
        return _erf_sq(q)
    if act is Activation.HARDTANH:
        return _hardtanh_sq(q)
    return _tanh_sq(q)


def dphi_sq(act: Activation, q: float) -> float:
    """E[phi'(sqrt(q) z)^2] under the standard normal measure."""
    q = _check_q(q)
    if act is Activation.LINEAR:
        return 1.0
    if act is Activation.RELU:
        return 0.5
    if act is Activation.ERF:
        return _erf_dsq(q)
    if act is Activation.HARDTANH:
        return _hardtanh_dsq(q)
    return _tanh_dsq(q)


def phi_cross(act: Activation, qa: float, qb: float, c: float) -> float:
    """E[phi(u1) phi(u2)] for the correlated pair construction."""
    qa = _check_q(qa, "qa")
    qb = _check_q(qb, "qb")
    c = _check_c(c)
    if qa == 0.0 or qb == 0.0:
        return 0.0  # phi(0) = 0 for every kind
    if c == 1.0 and qa == qb:
        return phi_sq(act, qa)
    if c == -1.0 and qa == qb and act is not Activation.RELU:
        return -phi_sq(act, qa)  # phi(-u) = -phi(u); ReLU's kernel gives 0 here
    # sqrt(qa) * sqrt(qb): qa * qb overflows on the chaotic side at q ~ 1e154
    if act is Activation.LINEAR:
        return math.sqrt(qa) * math.sqrt(qb) * c
    if act is Activation.RELU:
        return math.sqrt(qa) * math.sqrt(qb) * _relu_cross_kernel(c)
    if act is Activation.ERF:
        return _erf_cross_pair(qa, qb, c)[0]
    if act is Activation.HARDTANH:
        return _hardtanh_cross(qa, qb, c, deriv=False)
    return _gh_cross(act, qa, qb, c, deriv=False)


def dphi_cross(act: Activation, qa: float, qb: float, c: float) -> float:
    """E[phi'(u1) phi'(u2)] for the correlated pair construction."""
    qa = _check_q(qa, "qa")
    qb = _check_q(qb, "qb")
    c = _check_c(c)
    if abs(c) == 1.0 and qa == qb:
        if c > 0:
            return dphi_sq(act, qa)
        # phi'(-u) = phi'(u) for every kind except ReLU, where theta(-u)theta(u) = 0
        return 0.0 if act is Activation.RELU else dphi_sq(act, qa)
    if act is Activation.LINEAR:
        return 1.0
    if act is Activation.RELU:
        return _relu_dcross_kernel(c)
    if act is Activation.ERF:
        return _erf_cross_pair(qa, qb, c)[1]
    if act is Activation.HARDTANH:
        return _hardtanh_cross(qa, qb, c, deriv=True)
    return _gh_cross(act, qa, qb, c, deriv=True)
