"""Depth-scale curves and trainable-length bounds over hyperparameter grids.

For each weight variance on a grid, solves the length and correlation fixed
points and converts the slope quantities into depth scales; emits the
bound curves 12*xi1 and 12*xi2 together with the comparison curve 6*xi2
used by earlier analyses.  The trainable-length rule is the pointwise
minimum of the two 12-xi curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .activations import Activation
from .errors import ConfigError, MfdlError
from .meanfield import MeanFieldParams, brent_root, chi1_at_fixed_point, depth_scales

# the factors named in the PhaseCurve fields and CSV columns (b12xi1, b6xi2, b12xi2)
BOUND_MULTIPLIER = 12.0
COMPARISON_MULTIPLIER = 6.0

_CRITICAL_TOL = 1e-10  # absolute tolerance of the critical sigma_w^2


@dataclass(frozen=True)
class PhaseCurve:
    """Per-grid-point depth scales and bound curves; all arrays aligned.

    Points where a fixed point could not be found are flagged in
    `converged` and carry NaN values rather than being dropped.
    """

    sigma_w_sq_grid: np.ndarray
    q_star: np.ndarray
    c_star: np.ndarray
    chi1: np.ndarray
    chi2: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    bound_12xi1: np.ndarray
    bound_6xi2: np.ndarray
    bound_12xi2: np.ndarray
    trainable_bound: np.ndarray
    converged: np.ndarray
    diagnostics: tuple[str, ...] = ()


def depth_scale_grid(grid, p_base: MeanFieldParams, a: Activation) -> PhaseCurve:
    """Depth scales along an ascending sigma_w^2 grid at fixed (sigma_b^2, rho)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("grid must be a nonempty 1-D array of sigma_w^2 values")
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError("grid must be strictly ascending")
    n = grid.size
    cols = {
        name: np.full(n, np.nan)
        for name in ("q_star", "c_star", "chi1", "chi2", "xi1", "xi2")
    }
    converged = np.zeros(n, dtype=bool)
    diags = []
    for i, sw2 in enumerate(grid):
        p = replace(p_base, sigma_w_sq=float(sw2))
        try:
            d = depth_scales(p, a)
        except MfdlError as exc:
            diags.append(f"sigma_w_sq={sw2:.6g}: {type(exc).__name__}: {exc}")
            continue
        converged[i] = True
        cols["q_star"][i] = d.q_star
        cols["c_star"][i] = d.c_star
        cols["chi1"][i] = d.chi1
        cols["chi2"][i] = d.chi2
        cols["xi1"][i] = d.xi1
        cols["xi2"][i] = d.xi2
    b1 = BOUND_MULTIPLIER * cols["xi1"]
    b2c = COMPARISON_MULTIPLIER * cols["xi2"]
    b2 = BOUND_MULTIPLIER * cols["xi2"]
    return PhaseCurve(
        sigma_w_sq_grid=grid,
        **cols,
        bound_12xi1=b1,
        bound_6xi2=b2c,
        bound_12xi2=b2,
        trainable_bound=np.minimum(b1, b2),
        converged=converged,
        diagnostics=tuple(diags),
    )


def default_grid(lo: float = 1.0, hi: float = 4.0, points: int = 64, log_spaced: bool = True) -> np.ndarray:
    if points < 1 or hi <= lo or lo <= 0.0:
        raise ConfigError("grid needs 0 < lo < hi and points >= 1")
    if log_spaced:
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def critical_line(
    p_base: MeanFieldParams,
    a: Activation,
    bracket: tuple[float, float],
) -> float:
    """Weight variance where chi1 crosses 1, to within _CRITICAL_TOL.

    The root of chi1 - 1 in the bracket is found by Brent's method
    (`brent_root`).  The length fixed point is re-solved at every trial
    point; for positively homogeneous activations chi1 is scale free, so no
    length solve is needed and the chaotic side of the bracket is evaluable
    even where the length map diverges.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ConfigError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")

    def f(sw2: float) -> float:
        return chi1_at_fixed_point(replace(p_base, sigma_w_sq=sw2), a) - 1.0

    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise ConfigError(
            f"bracket does not straddle chi1 = 1: chi1(lo) = {f_lo + 1.0:.6g}, "
            f"chi1(hi) = {f_hi + 1.0:.6g}"
        )
    return brent_root(f, lo, hi, f_lo, f_hi, _CRITICAL_TOL)[0]
