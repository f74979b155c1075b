"""Closed-form gradient metrics for deep linear dropout networks.

For a linear network whose backward pass reuses the forward weights, the
per-layer gradient metrics admit exact expressions at the length fixed
point.  With n = L - l, A = sigma_w^2/rho and r = sigma_w^2/rho^2:

    g_aa^l = 4 (q*/rho)^2   A^n         [rho + sum_{j=1}^n A^j]
    g_ab^l = 4 (q*_ab)^2    (sigma_w^2)^n [1  + sum_{j=1}^n r^j]

The empty sum at l = L is zero.  The layerwise derivation also produces
explicit expressions for the last three layers; the tests code those
independently of the induction form and check these forms against them.

The geometric brackets grow without bound when their ratio exceeds 1
(e.g. r > 1 under strong dropout), so for deep offsets the evaluation
switches to log space and only the final result is exponentiated; values
beyond double range come back as inf rather than garbage.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .meanfield import MeanFieldParams

_DIRECT_OFFSET_LIMIT = 50


def _check_layer(l: int, L: int) -> int:
    if not (1 <= l <= L):
        raise ConfigError(f"layer must satisfy 1 <= l <= L, got l={l}, L={L}")
    return L - l


def _geometric_sum(ratio: float, n: int) -> float:
    """sum_{j=1}^{n} ratio^j evaluated as a literal power sum (n small)."""
    if n == 0:
        return 0.0
    powers = np.cumprod(np.full(n, ratio))
    return float(powers.sum())


def _log_geometric_sum(ratio: float, n: int) -> float:
    """log of sum_{j=1}^{n} ratio^j, stable for ratio > 1 and large n."""
    if ratio == 1.0:
        return math.log(n)
    if ratio > 1.0:
        # sum = ratio (ratio^n - 1)/(ratio - 1)
        return (
            math.log(ratio)
            + n * math.log(ratio)
            + math.log1p(-(ratio ** -n))
            - math.log(ratio - 1.0)
        )
    return math.log(_geometric_sum(ratio, n))  # bounded for ratio < 1


def _bracketed_power(base: float, n: int, offset: float, ratio: float) -> float:
    """base^n * (offset + sum_{j=1}^n ratio^j), overflow-safe for large n."""
    if base == 0.0:
        return offset if n == 0 else 0.0
    if n <= _DIRECT_OFFSET_LIMIT:
        return base**n * (offset + _geometric_sum(ratio, n))
    log_bracket = _log_geometric_sum(ratio, n)
    if offset > 0.0:
        log_bracket = np.logaddexp(math.log(offset), log_bracket)
    log_val = n * math.log(base) + log_bracket
    if log_val > 709.0:
        return math.inf
    return math.exp(log_val)


def g_aa_closed(l: int, L: int, p: MeanFieldParams, q_star: float) -> float:
    """Single-input gradient metric at layer l of an L-layer linear network."""
    n = _check_layer(l, L)
    if q_star == 0.0:
        return 0.0
    A = p.sigma_w_sq / p.rho
    return 4.0 * (q_star / p.rho) ** 2 * _bracketed_power(A, n, p.rho, A)


def g_ab_closed(l: int, L: int, p: MeanFieldParams, q_ab_star: float) -> float:
    """Two-input gradient overlap at layer l of an L-layer linear network."""
    n = _check_layer(l, L)
    if q_ab_star == 0.0:
        return 0.0
    r = p.sigma_w_sq / p.rho**2
    return 4.0 * q_ab_star**2 * _bracketed_power(p.sigma_w_sq, n, 1.0, r)


def independence_baseline(
    l: int,
    L: int,
    chi1: float,
    chi2: float,
    g_L_aa: float,
    g_L_ab: float,
) -> tuple[float, float]:
    """Geometric extrapolation of the last-layer metrics down to layer l.

    This is the prediction of the analytical shortcut that treats backward
    weights as fresh independent samples: g_aa shrinks by chi1 per layer and
    g_ab by chi2 per layer.  It is emitted for comparison plots; the
    closed forms above are the reused-weights results.
    """
    n = _check_layer(l, L)
    return g_L_aa * chi1**n, g_L_ab * chi2**n
