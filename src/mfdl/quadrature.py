"""Gauss-Hermite quadrature for standard-normal expectations.

Every theory quantity in this package is an expectation against the
standard normal measure

    Dz = (2*pi)^(-1/2) exp(-z^2/2) dz,

either univariate E[f(z)] or bivariate E[f(z1, z2)] with z1, z2 independent
(correlated arguments are built by the caller via the substitution
u2 = c*z1 + sqrt(1-c^2)*z2).

Physicists' Gauss-Hermite nodes/weights (x_i, w_i) satisfy

    int exp(-x^2) g(x) dx ~= sum_i w_i g(x_i).

With z = sqrt(2)*x this becomes a standard-normal rule: nodes sqrt(2)*x_i,
weights w_i/sqrt(pi), so that sum(weights) = 1 and

    E[f(z)] ~= sum_i weights_i f(nodes_i).

Nodes and weights come from the numpy Hermite recurrence, not tables, so
any order up to 360 works (exact positive weights down to ~1e-300).  Rules
are symmetrized exactly so that nodes come in +-z pairs with equal weights.

The theory modules do not take a rule: `moments` owns a fixed 64-node rule
for the one moment family that still needs tensor quadrature (bivariate
Tanh).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, EvaluationError

MAX_ORDER = 360


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the standard-normal measure.

    Immutable after construction; all evaluations are pure, so a single rule
    can be shared freely across threads.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def make_rule(order: int) -> QuadratureRule:
    """Build a Gauss-Hermite rule rescaled to the standard normal measure.

    The weights are renormalized to sum to exactly 1 and the node/weight
    arrays are symmetrized about 0, so E[1] = 1 and odd moments vanish to
    machine precision at every order.
    """
    if not isinstance(order, (int, np.integer)):
        raise ConfigError(f"quadrature order must be an integer, got {order!r}")
    if order < 2:
        raise ConfigError(f"quadrature order must be >= 2, got {order}")
    if order > MAX_ORDER:
        raise ConfigError(f"quadrature order must be <= {MAX_ORDER}, got {order}")

    x, w = np.polynomial.hermite.hermgauss(order)
    nodes = x * np.sqrt(2.0)
    weights = w / w.sum()

    # enforce exact +-z symmetry (the recurrence is symmetric only to fp error)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order))


def _evaluate(f: Callable, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Evaluate f on node arrays, tolerating scalar-only callables."""
    args = (x,) if y is None else (x, y)
    try:
        out = np.asarray(f(*args), dtype=np.float64)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).astype(np.float64)
    except (TypeError, ValueError):
        flat = [f(*vals) for vals in zip(*(a.ravel() for a in args))]
        out = np.asarray(flat, dtype=np.float64).reshape(x.shape)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("integrand returned NaN/Inf on a quadrature node")
    return out


def expect1(f: Callable[[float], float], rule: QuadratureRule) -> float:
    """E[f(z)] for z ~ N(0,1): the weighted sum over the rule's nodes."""
    vals = _evaluate(f, rule.nodes)
    return float(np.dot(rule.weights, vals))


def expect2(f: Callable[[float, float], float], c: float, rule: QuadratureRule) -> float:
    """Tensor-product E[f(z1, z2)] for independent z1, z2 ~ N(0,1).

    The correlation c is validated here because callers build correlated
    arguments with sqrt(1-c^2); the substitution itself is the caller's
    responsibility.
    """
    if not np.isfinite(c) or abs(c) > 1.0:
        raise ConfigError(f"correlation must lie in [-1, 1], got {c!r}")
    z1 = rule.nodes[:, None]
    z2 = rule.nodes[None, :]
    shape = (rule.order, rule.order)
    vals = _evaluate(f, np.broadcast_to(z1, shape), np.broadcast_to(z2, shape))
    return float(rule.weights @ vals @ rule.weights)
