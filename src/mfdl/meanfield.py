"""Signal-propagation theory: length/correlation recursions and depth scales.

A random fully connected network with dropout keep rate rho, weight variance
sigma_w^2/N and bias variance sigma_b^2 propagates the mean squared
pre-activation q and the correlation c of two inputs through scalar maps:

    q'   = (sigma_w^2 / rho) E[phi(sqrt(q) z)^2] + sigma_b^2
    qab' =  sigma_w^2        E[phi(u1) phi(u2)]  + sigma_b^2
    c'   = qab' / sqrt(qaa' qbb')

with u1 = sqrt(qaa) z1 and u2 = sqrt(qbb) (c z1 + sqrt(1-c^2) z2).  Note the
single-input map carries the 1/rho mask factor while the cross map does not
(masks of the two inputs are independent).

Two slope quantities control exponential growth/decay along depth:

    chi1 = (sigma_w^2 / rho) E[phi'(sqrt(q*) z)^2]
    chi2 =  sigma_w^2        E[phi'(u1*) phi'(u2*)]     (at the fixed point)

and each maps to a depth scale xi = |1 / ln chi|, infinite at chi = 1.

Moments come from `moments`: closed forms, except GL24 panels for univariate
Tanh and the HardTanh cross moments, and GH64 for bivariate Tanh.

q* and c* come from one algorithm, `_walk_to_fixed_point`: structure plus
a bracketed root finder (Brent's method, `brent_root`).  An end of the
domain that is a fixed point with slope <= 1 is the answer exactly: q* = 0
at sigma_b^2 = 0 when chi1(0) <= 1, c* = 1 at rho = 1 when chi1 <= 1.  A
divergent length map (e.g. a linear network with sigma_w^2 >= rho) is an
error, not an infinity; Linear and ReLU then take c* from the scale-free
limit of the correlation map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .activations import Activation
from .errors import ConfigError, DegenerateStateError, EvaluationError, NonConvergenceError
from .moments import dphi_cross, dphi_sq, phi_cross, phi_sq

_FIXED_POINT_TOL = 1e-12  # every fixed point is solved to this absolute tolerance
_BRENT_MAX_EVALS = 10_000

_EPS = np.finfo(np.float64).eps

_Q_DIVERGENCE_CAP = 1e12
_XI_UNIT_TOL = 1e-12  # |chi - 1| at or below which a depth scale is infinite


@dataclass(frozen=True)
class MeanFieldParams:
    """Hyperparameter triple (sigma_w^2, sigma_b^2, rho) of the ensemble.

    sigma_w_sq = 0 is allowed as a degenerate corner (constant maps); rho
    must be a valid keep rate in (0, 1].
    """

    sigma_w_sq: float
    sigma_b_sq: float
    rho: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma_w_sq) and self.sigma_w_sq >= 0.0):
            raise ConfigError(f"sigma_w_sq must be >= 0, got {self.sigma_w_sq!r}")
        if not (np.isfinite(self.sigma_b_sq) and self.sigma_b_sq >= 0.0):
            raise ConfigError(f"sigma_b_sq must be >= 0, got {self.sigma_b_sq!r}")
        if not (np.isfinite(self.rho) and 0.0 < self.rho <= 1.0):
            raise ConfigError(f"rho must lie in (0, 1], got {self.rho!r}")


@dataclass(frozen=True)
class LengthState:
    """Joint state of the two-input recursion after `layer` steps."""

    q_aa: float
    q_bb: float
    c_ab: float
    layer: int = 0

    def __post_init__(self):
        if self.q_aa < 0.0 or self.q_bb < 0.0:
            raise ConfigError("squared lengths must be >= 0")
        if not abs(self.c_ab) <= 1.0:  # also rejects NaN
            raise ConfigError(f"|c_ab| must be <= 1, got {self.c_ab!r}")


@dataclass(frozen=True)
class DepthScales:
    """Fixed points and depth scales at one hyperparameter point."""

    q_star: float
    c_star: float
    chi1: float
    chi2: float
    xi1: float
    xi2: float
    q_evals: int  # length-map evaluations spent on q*
    c_evals: int  # correlation-map evaluations spent on c*


def q_step(q: float, p: MeanFieldParams, a: Activation) -> float:
    """One application of the squared-length map."""
    q = float(q)
    if not np.isfinite(q) or q < 0.0:
        raise ConfigError(f"q must be finite and >= 0, got {q!r}")
    return (p.sigma_w_sq / p.rho) * phi_sq(a, q) + p.sigma_b_sq


def q_fixed_point(
    p: MeanFieldParams,
    a: Activation,
    q0: float = 1.0,
) -> tuple[float, int]:
    """Fixed point q* of the length map that iteration from q0 reaches, and
    the map evaluations spent; the checkpoints double or halve q0.

    phi_sq is concave in q for every kind, so q* = 0 exactly when q = 0 is
    a fixed point (sigma_b^2 = 0) with slope chi1(0) <= 1.  A map above the
    diagonal up to `_Q_DIVERGENCE_CAP` raises NonConvergenceError.
    """
    if q0 <= 0.0:
        raise ConfigError(f"q0 must be > 0, got {q0!r}")

    def walk(s):
        if s < 0.0:  # the halvings underflow to the end 0.0 before k = 1100
            return 0.0, (q0 * 0.5**k for k in range(1, 1100))
        return None, takewhile(lambda q: q <= _Q_DIVERGENCE_CAP, (q0 * 2.0**k for k in count(1)))

    return _walk_to_fixed_point(lambda q: q_step(q, p, a), q0, walk, lambda q: chi1(q, p, a))


def c_step(s: LengthState, p: MeanFieldParams, a: Activation) -> LengthState:
    """Advance the joint (q_aa, q_bb, c_ab) state by one layer."""
    q_aa = q_step(s.q_aa, p, a)
    q_bb = q_step(s.q_bb, p, a)
    q_ab = p.sigma_w_sq * phi_cross(a, s.q_aa, s.q_bb, s.c_ab) + p.sigma_b_sq
    if not (math.isfinite(q_aa) and math.isfinite(q_bb)):
        raise EvaluationError(
            f"squared lengths overflow at layer {s.layer + 1}: q_aa={q_aa!r}, q_bb={q_bb!r}"
        )
    if not math.isfinite(q_ab):
        raise EvaluationError(f"cross moment not finite at layer {s.layer + 1}: q_ab={q_ab!r}")
    denom = math.sqrt(q_aa) * math.sqrt(q_bb)  # q_aa * q_bb overflows at q ~ 1e154
    if denom <= 0.0:
        raise DegenerateStateError(
            f"correlation undefined at layer {s.layer + 1}: q_aa={q_aa!r}, q_bb={q_bb!r}"
        )
    c = q_ab / denom
    if abs(c) > 1.0 + 1e-6:
        raise EvaluationError(f"correlation map produced |c| = {abs(c)!r} >> 1")
    c = min(max(c, -1.0), 1.0)
    return LengthState(q_aa=q_aa, q_bb=q_bb, c_ab=c, layer=s.layer + 1)


def _c_map_at_fixed_point(p, a, q_star):
    """The one-dimensional correlation map with lengths pinned at q*.

    The denominator is q_step(q*) rather than q* itself so that c = 1 is an
    exact fixed point at rho = 1 (numerator and denominator are then the
    same floating-point expression).
    """
    denom = q_step(q_star, p, a)
    if denom <= 0.0:
        raise DegenerateStateError(
            f"correlation undefined: the length map sends q* = {q_star!r} to {denom!r}"
        )

    def m(c: float) -> float:
        q_ab = p.sigma_w_sq * phi_cross(a, q_star, q_star, c) + p.sigma_b_sq
        return min(max(q_ab / denom, -1.0), 1.0)

    return m


def brent_root(f, a, b, fa, fb, tol):
    """Root of f between a and b, given fa = f(a) and fb = f(b) of opposite
    sign (or one of them 0), by Brent's method.

    Inverse quadratic or secant steps are taken while they shrink the
    bracket fast enough, bisection otherwise.  Returns (root, evaluations
    of f); the root lies within tol + 4 eps |root| of a sign change of f.
    More than _BRENT_MAX_EVALS evaluations raise NonConvergenceError.
    """
    c, fc = b, fb
    d = e = b - a
    for evals in range(_BRENT_MAX_EVALS + 1):
        if (fb > 0.0 and fc > 0.0) or (fb < 0.0 and fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, evals
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                num, den = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                t, r = fa / fc, fb / fc
                num = s * (2.0 * xm * t * (t - r) - (b - a) * (r - 1.0))
                den = (t - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * xm * den - abs(tol1 * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise NonConvergenceError(
        f"root finder did not converge within {_BRENT_MAX_EVALS} evaluations (last x = {b!r})",
        last_iterate=b,
        iterations=_BRENT_MAX_EVALS,
    )


def _walk_to_fixed_point(m, x0, walk, slope):
    """The fixed point of the nondecreasing map m that iteration from x0
    reaches, and the evaluations of m spent on it.

    Iteration moves monotonically toward s = sign(m(x0) - x0).  walk(s)
    gives the end of m's domain that way (None if unbounded) and checkpoints
    such that the first sign change of m(x) - x past x0 brackets the fixed
    point for `brent_root`.  An end that is a fixed point with slope <= 1 is
    returned exactly.  No sign change and no end: NonConvergenceError.
    """
    m0 = m(x0)
    if abs(m0 - x0) < _FIXED_POINT_TOL:
        return m0, 1
    s = math.copysign(1.0, m0 - x0)
    end, checkpoints = walk(s)
    evals = 1
    if end is not None:
        g_end = m(end) - end
        evals += 1
        if g_end == 0.0 and slope(end) <= 1.0:
            return end, evals
    lo, g_lo = x0, m0 - x0
    for t in checkpoints:
        if s * t <= s * x0:
            continue
        g_t = m(t) - t
        evals += 1
        if s * g_t <= 0.0:
            break
        lo, g_lo = t, g_t
    else:
        if end is None:
            raise NonConvergenceError(
                f"no fixed point: the map stays above the diagonal up to {lo:.3e}",
                last_iterate=lo, iterations=evals,
            )
        t, g_t = end, g_end
    root, n = brent_root(lambda x: m(x) - x, lo, t, g_lo, g_t, _FIXED_POINT_TOL)
    return root, evals + n


def _correlation_walk(s):
    """The end s of [-1, 1] and the checkpoints 0, s/2, 3s/4, ... toward it
    (j stops at 53: 1 - 2^-54 rounds to s).

    g = m - c is convex on [0, 1] (Mehler: m has nonnegative power-series
    coefficients) and, for odd activations, concave on [-1, 0] (ReLU's m is
    >= 0, so g has no root there): a sign change of g between two
    checkpoints holds exactly one root, and none lies before an end that is
    a fixed point with slope <= 1 (c = 1 at rho = 1; c = -1 also for an odd
    activation without bias).
    """
    return s, (s - s * 0.5**j for j in range(54))


def _solve_c(p, a, q_star, c0):
    """c* of the correlation map at q* from c0, and the map evaluations spent."""
    return _walk_to_fixed_point(
        _c_map_at_fixed_point(p, a, q_star), c0, _correlation_walk,
        lambda c: chi2(q_star, c, p, a),
    )


def _solve_scale_free_c(p, a, c0, q0):
    """c* of Linear or ReLU where the lengths diverge.

    As q -> inf the bias drops out and the correlation map tends to
    m_inf(c) = rho kappa(c) / kappa(1), kappa(c) = phi_cross(1, 1, c): c for
    Linear, the arc-cosine kernel for ReLU.  Linear at rho = 1 makes m_inf
    the identity; there the transient from (q0, q0, c0) fixes the limit:
    1 - c_inf = q0 (1 - c0) (s - 1) / (q0 (s - 1) + sigma_b^2), s = sigma_w^2.
    """
    if a is Activation.LINEAR and p.rho == 1.0:
        s = p.sigma_w_sq
        return 1.0 - q0 * (1.0 - c0) * (s - 1.0) / (q0 * (s - 1.0) + p.sigma_b_sq), 0
    k = p.rho / phi_sq(a, 1.0)
    return _walk_to_fixed_point(
        lambda c: k * phi_cross(a, 1.0, 1.0, c), c0, _correlation_walk,
        lambda c: k * dphi_cross(a, 1.0, 1.0, c),
    )


def c_fixed_point(
    p: MeanFieldParams,
    a: Activation,
    c0: float = 0.9,
    q0: float = 1.0,
) -> tuple[float, int]:
    """Fixed point c* of the correlation map, and the map evaluations spent.

    The lengths are first driven to q*; c* is then the fixed point of the
    correlation map at q* that iteration from c0 reaches.  Where the length
    map diverges but the activation is positively homogeneous (Linear,
    ReLU), c* of the scale-free limit of the map is solved instead.
    """
    if not (-1.0 < c0 < 1.0):
        raise ConfigError(f"c0 must lie in (-1, 1), got {c0!r}")
    try:
        q_star, _ = q_fixed_point(p, a, q0=q0)
    except NonConvergenceError:
        if not a.positively_homogeneous:
            raise
        return _solve_scale_free_c(p, a, c0, q0)
    return _solve_c(p, a, q_star, c0)


def chi1(q_star: float, p: MeanFieldParams, a: Activation) -> float:
    """Slope of the single-input gradient/length recursion at q*."""
    if q_star < 0.0:
        raise ConfigError(f"q_star must be >= 0, got {q_star!r}")
    if p.sigma_w_sq == 0.0:
        return 0.0
    return (p.sigma_w_sq / p.rho) * dphi_sq(a, q_star)


def chi2(q_star: float, c_star: float, p: MeanFieldParams, a: Activation) -> float:
    """Slope of the correlation map at the fixed point (q*, c*)."""
    if abs(c_star) > 1.0:
        raise ConfigError(f"|c_star| must be <= 1, got {c_star!r}")
    if p.sigma_w_sq == 0.0:
        return 0.0
    return p.sigma_w_sq * dphi_cross(a, q_star, q_star, c_star)


def xi_from_chi(chi: float) -> float:
    """Depth scale |1 / ln chi|; +inf at chi = 1, 0 at chi = 0.

    Negative chi (possible for chi2 in principle) decays in magnitude like
    |chi|^l, so the scale is computed from |chi|.
    """
    chi = abs(chi)
    if abs(chi - 1.0) <= _XI_UNIT_TOL:
        return math.inf
    if chi == 0.0:
        return 0.0
    return abs(1.0 / math.log(chi))


def chi1_at_fixed_point(p: MeanFieldParams, a: Activation) -> float:
    """chi1 with q* solved internally.

    For positively homogeneous activations phi' is scale invariant, so chi1
    does not depend on q* and no length solve is made: chi1 is well defined
    even where the length map diverges (the chaotic side of Linear/ReLU
    networks).
    """
    if a.positively_homogeneous:
        return chi1(1.0, p, a)
    return chi1(q_fixed_point(p, a)[0], p, a)


def depth_scales(
    p: MeanFieldParams,
    a: Activation,
    c0: float = 0.9,
) -> DepthScales:
    """Bundle (q*, c*, chi1, chi2, xi1, xi2) for one hyperparameter point.

    On the fully correlated side (rho = 1, chi1 <= 1) c* is exactly 1, so
    the degenerate bivariate moments apply and chi2 = chi1 holds to machine
    precision.
    """
    q_star, q_evals = q_fixed_point(p, a)
    c_star, c_evals = _solve_c(p, a, q_star, c0)
    x1 = chi1(q_star, p, a)
    x2 = chi2(q_star, c_star, p, a)
    return DepthScales(
        q_star=q_star,
        c_star=c_star,
        chi1=x1,
        chi2=x2,
        xi1=xi_from_chi(x1),
        xi2=xi_from_chi(x2),
        q_evals=q_evals,
        c_evals=c_evals,
    )


def q_trajectory(
    q0: float,
    layers: int,
    p: MeanFieldParams,
    a: Activation,
) -> np.ndarray:
    """Theory iterates [q^1 .. q^layers] starting from input norm q0.

    The input vector enters the first layer raw (no activation is applied to
    the input itself), so the first step is the exact linear-in-input map
    q^1 = (sigma_w^2/rho) q0 + sigma_b^2; subsequent steps apply q_step.
    """
    if layers < 1:
        raise ConfigError("layers must be >= 1")
    out = np.empty(layers)
    out[0] = (p.sigma_w_sq / p.rho) * q0 + p.sigma_b_sq
    for l in range(1, layers):
        out[l] = q_step(out[l - 1], p, a)
    return out


def c_trajectory(
    q0: float,
    c0: float,
    layers: int,
    p: MeanFieldParams,
    a: Activation,
) -> tuple[np.ndarray, np.ndarray]:
    """Theory iterates (q^l, c^l) for a pair of inputs with common norm q0.

    First-layer moments are exact in the raw inputs (cross term carries no
    mask factor because the two inputs draw independent masks).
    """
    if layers < 1:
        raise ConfigError("layers must be >= 1")
    if abs(c0) > 1.0:
        raise ConfigError(f"|c0| must be <= 1, got {c0!r}")
    q1 = (p.sigma_w_sq / p.rho) * q0 + p.sigma_b_sq
    q_ab1 = p.sigma_w_sq * c0 * q0 + p.sigma_b_sq
    if q1 <= 0.0:
        raise DegenerateStateError("first-layer length is zero; correlation undefined")
    qs = np.empty(layers)
    cs = np.empty(layers)
    s = LengthState(q_aa=q1, q_bb=q1, c_ab=min(max(q_ab1 / q1, -1.0), 1.0), layer=1)
    qs[0], cs[0] = s.q_aa, s.c_ab
    for l in range(1, layers):
        s = c_step(s, p, a)
        qs[l], cs[l] = s.q_aa, s.c_ab
    return qs, cs
