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
    q = 1, where the closed form cancels); the bivariate pair uses the
    rectangle probability of a correlated Gaussian pair (four Owen's T
    terms), and the value cross-moment integrates that rectangle over the
    correlation (Price's theorem, with a Gauss-Legendre rule in
    sqrt(1 - |c|), in which the integrand stays smooth up to |c| = 1).
  - Tanh: univariate moments via a scale-adaptive composite Gauss-Legendre
    rule on the saturation variable (exact at any q; phi_sq integrates
    tanh^2 itself up to q = 1, where 1 - E[sech^2] would cancel); bivariate
    moments summed directly over the tensor product of this module's
    64-node Gauss-Hermite rule (its error grows with the variance; the
    README's "Numerical notes" give measured values).  This module is the
    only one that builds a quadrature rule.

Each rule is evaluated as one array expression over all of its nodes: the
composite rule's panels form one (P, 24) block on which the integrand is
evaluated once, and the rectangle probability takes all of the Price rule's
correlations in one call of four Owen's T terms.  Python adds up only the
per-panel sums, in order, so the composite rule equals bit for bit the
panel-by-panel loop that tests/oracles.py keeps as a reference.

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
# Tanh: composite Gauss-Legendre in the saturation variable.
#
# E[g(sqrt(q) z)] = int g(u) N(u; 0, q) du for even g that differs from its
# limit only on |u| <~ 15 (sech^2, sech^4).  Panel widths follow
# min(sqrt(q), 1) geometrically so both the Gaussian scale and the
# saturation scale are resolved at every q.
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(24)
_TANH_CUTOFF = 20.0


def _even_decay_integral(g, q: float) -> float:
    """2 * int_0^inf g(u) N(u; 0, q) du for even, rapidly decaying g."""
    if q == 0.0:
        return float(g(np.zeros(1))[0])
    s = 0.5 * min(math.sqrt(q), 1.0)
    # past 40 sqrt(q) the density is exp(<= -800) = 0.0: later panels add 0.0
    stop = min(_TANH_CUTOFF, 40.0 * math.sqrt(q))
    edges = [0.0]
    while edges[-1] < stop:
        edges.append(min(max(s, 2.0 * edges[-1]), _TANH_CUTOFF))
    e = np.array(edges)
    mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
    # every panel's nodes as one (P, 24) block, the integrand evaluated once
    u = mid[:, None] + half[:, None] * _GL_NODES
    vals = g(u) * (np.exp(-u * u / (2.0 * q)) / math.sqrt(2.0 * math.pi * q))
    # (P, 1, 24) @ (24,) takes one BLAS dot per panel row, the sum that
    # np.dot(_GL_WEIGHTS, row) gives; vals @ _GL_WEIGHTS (gemv) sums in
    # another order and moves the last bits.  Panels add up in order.
    dots = (vals[:, None, :] @ _GL_WEIGHTS).ravel()
    total = 0.0
    for h, dot in zip(half.tolist(), dots.tolist()):
        total += h * dot
    return 2.0 * total


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
# HardTanh closed forms.
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


def _rectangle_prob(alpha: float, beta: float, r):
    """P(|X| < alpha, |Y| < beta) for a standard bivariate normal pair with
    correlation r, for alpha, beta > 0; elementwise in r, a float gives a float.

    Owen's T formula summed over the four corners: T(-h, a) = T(h, a) and
    T(h, -a) = -T(h, a) pair the corners' T terms, and their normal CDF terms
    cancel to 1.  At |r| = 1 the pair is (anti)comonotone.
    """
    # local: `import scipy.special` costs ~0.25 s and ~25 MB RSS; only HardTanh needs it
    from scipy.special import owens_t

    r = np.asarray(r, dtype=np.float64)
    tied = np.abs(r) >= 1.0
    r_in = np.where(tied, 0.0, r)  # the formula's r; tied entries are replaced below
    # beta -+ r alpha as (beta - alpha) + alpha (1 -+ r): 1 -+ r is exact where
    # it cancels, so the arguments keep their digits as |r| -> 1
    om, op = 1.0 - r_in, 1.0 + r_in
    s = np.sqrt(om * op)
    d = beta - alpha
    t = (
        owens_t(alpha, (d + alpha * om) / (alpha * s))
        + owens_t(beta, (beta * om - d) / (beta * s))
        + owens_t(alpha, (d + alpha * op) / (alpha * s))
        + owens_t(beta, (beta * op - d) / (beta * s))
    )
    p = np.where(tied, math.erf(min(alpha, beta) / _SQRT2), 1.0 - 2.0 * t)
    return float(p) if r.ndim == 0 else p


_GL_CORR_NODES, _GL_CORR_WEIGHTS = leggauss(48)


def _hardtanh_dcross(qa: float, qb: float, c: float) -> float:
    if qa == 0.0 or qb == 0.0:
        return _hardtanh_dsq(max(qa, qb))  # phi'(0) = 1 leaves the other factor
    return _rectangle_prob(1.0 / math.sqrt(qa), 1.0 / math.sqrt(qb), c)


def _hardtanh_cross(qa: float, qb: float, c: float) -> float:
    # Price's theorem: d/dc E[phi(u1) phi(u2)] = sqrt(qa*qb) E[phi'(u1) phi'(u2)],
    # and the cross moment vanishes at c = 0 because phi is odd.  The
    # rectangle probability is even in the correlation t and has a
    # sqrt(1 - |t|) cusp at |t| = 1, so the rule runs in u = sqrt(1 - |t|),
    # where the integrand is smooth.
    alpha = 1.0 / math.sqrt(qa)
    beta = 1.0 / math.sqrt(qb)
    lo = math.sqrt(1.0 - abs(c))
    half = 0.5 * (1.0 - lo)
    u = lo + half * (1.0 + _GL_CORR_NODES)
    vals = _rectangle_prob(alpha, beta, 1.0 - u * u) * (2.0 * u)
    integral = math.sqrt(qa * qb) * half * float(np.dot(_GL_CORR_WEIGHTS, vals))
    return math.copysign(integral, c)


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
        return _hardtanh_cross(qa, qb, c)
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
        return _hardtanh_dcross(qa, qb, c)
    return _gh_cross(act, qa, qb, c, deriv=True)
