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

Moments come from `moments`, on a fixed 64-node rule where one is needed.

q* is found by direct iteration of the length map.  c* is found from
structure plus one bracketed root finder (Brent's method, `brent_root`):
the correlation map m is nondecreasing, and by Mehler's expansion it is
convex on [0, 1].  At rho = 1, c = 1 is a fixed point with slope chi1, so
c* = 1 exactly when chi1 <= 1; every other c* is bracketed and solved to
`tol`.  Divergent length maps (e.g. linear networks with sigma_w^2 >= rho)
are reported as errors, not as infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import ConfigError, DegenerateStateError, EvaluationError, NonConvergenceError, NonExponentialDecayError
from .moments import dphi_cross, dphi_sq, phi_cross, phi_sq

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000

_EPS = np.finfo(np.float64).eps

_Q_DIVERGENCE_CAP = 1e12


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
        if abs(self.c_ab) > 1.0:
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
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, int]:
    """Iterate the length map to its fixed point q*.

    Returns (q_star, iterations).  Raises NonConvergenceError in divergent
    regimes, carrying the last iterate.
    """
    if q0 <= 0.0:
        raise ConfigError(f"q0 must be > 0, got {q0!r}")
    if tol <= 0.0:
        raise ConfigError(f"tol must be > 0, got {tol!r}")
    q = float(q0)
    prev_delta = 0.0
    damping = 1.0
    for it in range(1, max_iter + 1):
        q_next = q_step(q, p, a)
        delta = q_next - q
        if abs(delta) < tol:
            return q_next, it
        if not np.isfinite(q_next) or q_next > _Q_DIVERGENCE_CAP:
            raise NonConvergenceError(
                f"length map diverged after {it} iterations (q = {q_next:.3e}); "
                "this hyperparameter point has no finite fixed point",
                last_iterate=q_next,
                iterations=it,
            )
        if delta * prev_delta < 0.0:
            damping = 0.5  # oscillation detected; damp all further steps
        prev_delta = delta
        q = q + damping * delta
    raise NonConvergenceError(
        f"length map did not converge within {max_iter} iterations "
        f"(last q = {q:.6e}, last step = {prev_delta:.3e})",
        last_iterate=q,
        iterations=max_iter,
    )


def c_step(s: LengthState, p: MeanFieldParams, a: Activation) -> LengthState:
    """Advance the joint (q_aa, q_bb, c_ab) state by one layer."""
    q_aa = q_step(s.q_aa, p, a)
    q_bb = q_step(s.q_bb, p, a)
    q_ab = p.sigma_w_sq * phi_cross(a, s.q_aa, s.q_bb, s.c_ab) + p.sigma_b_sq
    denom_sq = q_aa * q_bb
    if denom_sq <= 0.0:
        raise DegenerateStateError(
            f"correlation undefined at layer {s.layer + 1}: q_aa={q_aa!r}, q_bb={q_bb!r}"
        )
    c = q_ab / math.sqrt(denom_sq)
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


def brent_root(f, a, b, fa, fb, tol, max_iter=DEFAULT_MAX_ITER):
    """Root of f between a and b, given fa = f(a) and fb = f(b) of opposite
    sign (or one of them 0), by Brent's method.

    Inverse quadratic or secant steps are taken while they shrink the
    bracket fast enough, bisection otherwise.  Returns (root, evaluations
    of f); the root lies within tol + 4 eps |root| of a sign change of f.
    """
    c, fc = b, fb
    d = e = b - a
    for evals in range(max_iter + 1):
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
        f"root finder did not converge within {max_iter} evaluations (last x = {b!r})",
        last_iterate=b,
        iterations=max_iter,
    )


def _solve_c(p, a, q_star, c0, tol, max_iter):
    """The c* that iterating the correlation map at q* from c0 reaches, and
    the evaluations of the map spent on it.

    m is nondecreasing (every activation here is), so the iteration moves
    monotonically from c0 to the first fixed point in the direction
    s = sign(m(c0) - c0).  g = m - c is convex on [0, 1] (Mehler: m has
    nonnegative power-series coefficients) and, for odd activations,
    concave on [-1, 0] (ReLU's m is >= 0, so g has no root there).  So
    between two of the checkpoints s * (1 - 2^-j) (0, s/2, 3s/4, ..., s) a
    sign change of g holds exactly one root, and the first sign change
    past c0 brackets c*.  When the end s is itself a
    fixed point (c = 1 at rho = 1; c = -1 also for an odd activation
    without bias) with slope <= 1, no root lies before it: c* = s exactly.
    """
    m = _c_map_at_fixed_point(p, a, q_star)
    m0 = m(c0)
    if abs(m0 - c0) < tol:
        return m0, 1
    s = math.copysign(1.0, m0 - c0)
    g_end = m(s) - s
    if g_end == 0.0 and chi2(q_star, s, p, a) <= 1.0:
        return s, 2
    lo, g_lo = c0, m0 - c0
    evals = 2
    for j in range(54):  # j = 54 gives 1 - 2^-54, which rounds to the end s
        t = s * (1.0 - 0.5**j)
        if s * t <= s * c0:
            continue
        g_t = m(t) - t
        evals += 1
        if s * g_t <= 0.0:
            break
        lo, g_lo = t, g_t
    else:
        t, g_t = s, g_end
    root, n = brent_root(lambda c: m(c) - c, lo, t, g_lo, g_t, tol, max_iter)
    return root, evals + n


def c_fixed_point(
    p: MeanFieldParams,
    a: Activation,
    c0: float = 0.9,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    q0: float = 1.0,
) -> tuple[float, int]:
    """Fixed point c* of the correlation map, and the map evaluations spent.

    The lengths are first driven to q*; c* is then the fixed point of the
    correlation map at q* that iteration from c0 reaches (see `_solve_c`).
    Where the length map diverges but the activation is positively
    homogeneous (Linear, ReLU), the correlation map still has a
    well-defined scale-free limit: in that case the joint recursion is
    iterated directly and convergence is detected on c alone.
    """
    if not (-1.0 < c0 < 1.0):
        raise ConfigError(f"c0 must lie in (-1, 1), got {c0!r}")
    try:
        q_star, _ = q_fixed_point(p, a, q0=q0, tol=tol, max_iter=max_iter)
    except NonConvergenceError:
        if not a.positively_homogeneous:
            raise
        return _c_fixed_point_divergent_lengths(p, a, c0, tol, max_iter, q0)
    return _solve_c(p, a, q_star, c0, tol, max_iter)


def _c_fixed_point_divergent_lengths(p, a, c0, tol, max_iter, q0):
    # growing lengths: iterate the joint recursion; c settles while q runs off,
    # so require the c increment to stay below tol for a few consecutive steps
    s = LengthState(q_aa=q0, q_bb=q0, c_ab=c0, layer=0)
    quiet = 0
    for it in range(1, max_iter + 1):
        try:
            s_next = c_step(s, p, a)
        except (OverflowError, FloatingPointError):
            break
        if not (np.isfinite(s_next.q_aa) and s_next.q_aa < 1e280):
            raise NonConvergenceError(
                "length map overflowed before the correlation settled",
                last_iterate=s.c_ab,
                iterations=it,
            )
        quiet = quiet + 1 if abs(s_next.c_ab - s.c_ab) < tol else 0
        s = s_next
        if quiet >= 3:
            return s.c_ab, it
    raise NonConvergenceError(
        f"correlation did not settle within {max_iter} iterations (last c = {s.c_ab!r})",
        last_iterate=s.c_ab,
        iterations=max_iter,
    )


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


def xi_from_chi(chi: float, unit_tol: float = 1e-12) -> float:
    """Depth scale |1 / ln chi|; +inf at chi = 1, 0 at chi = 0.

    Negative chi (possible for chi2 in principle) decays in magnitude like
    |chi|^l, so the scale is computed from |chi|.
    """
    chi = abs(chi)
    if abs(chi - 1.0) <= unit_tol:
        return math.inf
    if chi == 0.0:
        return 0.0
    return abs(1.0 / math.log(chi))


def chi1_at_fixed_point(
    p: MeanFieldParams,
    a: Activation,
    q0: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """chi1 with q* solved internally.

    For positively homogeneous activations phi' is scale invariant, so chi1
    does not depend on q* and no length solve is made: chi1 is well defined
    even where the length map diverges (the chaotic side of Linear/ReLU
    networks).
    """
    if a.positively_homogeneous:
        return chi1(1.0, p, a)
    q_star, _ = q_fixed_point(p, a, q0=q0, tol=tol, max_iter=max_iter)
    return chi1(q_star, p, a)


def depth_scales(
    p: MeanFieldParams,
    a: Activation,
    q0: float = 1.0,
    c0: float = 0.9,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DepthScales:
    """Bundle (q*, c*, chi1, chi2, xi1, xi2) for one hyperparameter point.

    On the fully correlated side (rho = 1, chi1 <= 1) c* is exactly 1, so
    the degenerate bivariate moments apply and chi2 = chi1 holds to machine
    precision.
    """
    q_star, _ = q_fixed_point(p, a, q0=q0, tol=tol, max_iter=max_iter)
    c_star, _ = _solve_c(p, a, q_star, c0, tol, max_iter)
    x1 = chi1(q_star, p, a)
    x2 = chi2(q_star, c_star, p, a)
    return DepthScales(
        q_star=q_star,
        c_star=c_star,
        chi1=x1,
        chi2=x2,
        xi1=xi_from_chi(x1),
        xi2=xi_from_chi(x2),
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


def c_convergence_rate(
    p: MeanFieldParams,
    a: Activation,
    c0: float = 0.5,
    layers: int = 200,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Empirical depth scale of |c^l - c*| from the recursion itself.

    Runs the correlation map at q*, fits ln|c^l - c*| against l by least
    squares over the asymptotic tail (first 20% of layers and near-floor
    points discarded), and returns -1/slope.  A non-decaying trajectory
    raises NonExponentialDecayError.
    """
    if layers < 10:
        raise ConfigError("layers must be >= 10 for a rate fit")
    q_star, _ = q_fixed_point(p, a, tol=tol, max_iter=max_iter)
    c_star, _ = _solve_c(p, a, q_star, c0, tol, max_iter)
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
