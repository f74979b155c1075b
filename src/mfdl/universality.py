"""Variance-vs-mean power-law fits of the gradient metrics.

Across activations, dropout rates and widths, the per-layer ensemble
variance of each gradient metric tracks the square of its mean; plotted
log-log the points fall on a line of slope ~2.  This module fits that line
by ordinary least squares of ln(variance) on ln(mean) and reports the
exponent per (activation, rho, width, metric) combination.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import ConfigError, MfdlError
from .meanfield import q_fixed_point
from .simulator import NetworkConfig, ensemble_run_many

logger = logging.getLogger(__name__)

UNDERFLOW_FLOOR = 1e-300

GRADIENT_METRICS = ("g_aa", "g_ab", "g_tilde_ab")


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    log_intercept: float
    r_squared: float
    n_points: int


def fit_power_law(means, variances) -> PowerLawFit:
    """OLS of ln(variance) on ln(mean); the slope is the power-law exponent."""
    m = np.asarray(means, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    if m.shape != v.shape or m.ndim != 1:
        raise ConfigError("means and variances must be 1-D arrays of equal length")
    if m.size < 3:
        raise ConfigError(f"need at least 3 points for a fit, got {m.size}")
    if not (np.all(m > 0.0) and np.all(v > 0.0)):
        raise ConfigError("means and variances must be strictly positive (logs are taken)")
    x = np.log(m)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return PowerLawFit(
        exponent=float(slope),
        log_intercept=float(intercept),
        r_squared=r2,
        n_points=int(m.size),
    )


@dataclass(frozen=True)
class UniversalityRow:
    """One fitted (config, metric) cell of the report, or its failure."""

    activation: Activation
    rho: float
    width: int
    metric: str
    fit: PowerLawFit | None
    n_excluded: int
    layer_means: np.ndarray | None = None
    layer_variances: np.ndarray | None = None
    layers: np.ndarray | None = None
    error: str | None = None


def fit_window(depth: int) -> tuple[int, int]:
    """1-based inclusive layer window [0.1 L, 0.95 L] excluding edge transients."""
    lo = max(1, int(math.ceil(0.10 * depth)))
    hi = min(depth, int(math.floor(0.95 * depth)))
    return lo, hi


def _fit_metric(stats, depth: int) -> tuple[PowerLawFit, int, np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = fit_window(depth)
    layers = np.arange(lo, hi + 1)
    m = stats.per_layer_mean[lo - 1 : hi]
    v = stats.per_layer_variance[lo - 1 : hi]
    keep = (m > UNDERFLOW_FLOOR) & (v > 0.0) & np.isfinite(m) & np.isfinite(v)
    n_excluded = int(np.sum(~keep))
    fit = fit_power_law(m[keep], v[keep])
    return fit, n_excluded, layers[keep], m[keep], v[keep]


def universality_report(
    configs: list[NetworkConfig],
    n_instances: int,
    c0: float = 0.9,
    threads: int = 1,
) -> list[UniversalityRow]:
    """Power-law fits of all three gradient metrics for each config.

    Each config's ensemble starts at its length fixed point q*.  The
    configs are simulated through one ensemble call; each samples its own
    networks, so its rows do not depend on the others.  A failing config
    (its q* diverges, say) contributes error rows without aborting the
    others.
    """
    if not configs:
        raise ConfigError("at least one config is required")
    if n_instances < 2:  # every fit needs a per-layer variance
        raise ConfigError(f"universality needs instances >= 2, got {n_instances}")

    def run(cfgs):
        q0s = [q_fixed_point(cfg.params, cfg.activation)[0] for cfg in cfgs]
        return ensemble_run_many(
            cfgs, n_instances, c0=c0, metrics=GRADIENT_METRICS, q0s=q0s, threads=threads
        )

    rows: list[UniversalityRow] = []
    try:
        results = run(configs)
    except MfdlError:
        # retry one-by-one so a single divergent config cannot sink the others
        results = []
        for cfg in configs:
            try:
                results.append(run([cfg])[0])
            except MfdlError as exc:
                results.append(f"{type(exc).__name__}: {exc}")

    for cfg, stats in zip(configs, results):
        act, rho, width = cfg.activation, cfg.params.rho, cfg.width_N
        if isinstance(stats, str):
            for metric in GRADIENT_METRICS:
                rows.append(UniversalityRow(act, rho, width, metric, None, 0, error=stats))
            continue
        for metric in GRADIENT_METRICS:
            try:
                fit, n_exc, layers, m, v = _fit_metric(stats[metric], cfg.depth_L)
                rows.append(
                    UniversalityRow(
                        act, rho, width, metric, fit, n_exc,
                        layer_means=m, layer_variances=v, layers=layers,
                    )
                )
            except MfdlError as exc:
                rows.append(
                    UniversalityRow(
                        act, rho, width, metric, None, 0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    for row in rows:
        if row.error is not None:
            logger.warning(
                "universality: %s rho=%s N=%s %s: %s",
                row.activation.value, row.rho, row.width, row.metric, row.error,
            )
    return rows
