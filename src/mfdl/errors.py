"""Semantic exception hierarchy for mfdl.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can tell configuration mistakes apart from genuine
numerical failures.
"""

from __future__ import annotations


class MfdlError(Exception):
    """Base error for this package."""


class ConfigError(MfdlError, ValueError):
    """Inputs violate a contract: domain, shape, or unknown parameter."""


class EvaluationError(MfdlError, FloatingPointError):
    """An integrand or metric produced NaN/Inf where a finite value is required."""


class DegenerateStateError(MfdlError):
    """A state reached a point where a quantity is undefined (e.g. zero length)."""


class NonConvergenceError(MfdlError):
    """Fixed-point iteration failed to converge.

    Carries the last iterate and the iteration count so divergent regimes
    (e.g. a linear map with slope >= 1) can be diagnosed.
    """

    def __init__(self, message: str, last_iterate: float, iterations: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations
