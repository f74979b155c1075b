"""Mean-field depth scales for deep dropout networks.

Theory side: Gaussian-expectation recursions for squared lengths and
correlations, their fixed points, slope quantities, depth scales, and
closed-form linear-network gradient metrics.  Experiment side: a seeded
finite-width Monte-Carlo engine whose backward pass reuses the forward
weights, per-layer gradient metrics over ensembles, variance-vs-mean
power-law fits, and trainable-length bound curves.
"""

from .activations import Activation
from .errors import (
    ConfigError,
    DegenerateStateError,
    EvaluationError,
    MfdlError,
    NonConvergenceError,
)
from .linear_theory import g_aa_closed, g_ab_closed, independence_baseline
from .meanfield import (
    DepthScales,
    LengthState,
    MeanFieldParams,
    c_fixed_point,
    c_step,
    c_trajectory,
    chi1,
    chi2,
    depth_scales,
    q_fixed_point,
    q_step,
    q_trajectory,
    xi_from_chi,
)
from .phase import PhaseCurve, critical_line, depth_scale_grid
from .simulator import (
    EnsembleStats,
    ForwardTrace,
    GradientTrace,
    NetworkConfig,
    NetworkInstance,
    backward,
    ensemble_run_many,
    forward,
    gradient_metrics,
    sample_inputs,
    sample_network,
)
from .universality import PowerLawFit, fit_power_law, universality_report

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "ConfigError",
    "DegenerateStateError",
    "DepthScales",
    "EnsembleStats",
    "EvaluationError",
    "ForwardTrace",
    "GradientTrace",
    "LengthState",
    "MeanFieldParams",
    "MfdlError",
    "NetworkConfig",
    "NetworkInstance",
    "NonConvergenceError",
    "PhaseCurve",
    "PowerLawFit",
    "backward",
    "c_fixed_point",
    "c_step",
    "c_trajectory",
    "chi1",
    "chi2",
    "critical_line",
    "depth_scale_grid",
    "depth_scales",
    "ensemble_run_many",
    "fit_power_law",
    "forward",
    "g_aa_closed",
    "g_ab_closed",
    "gradient_metrics",
    "independence_baseline",
    "q_fixed_point",
    "q_step",
    "q_trajectory",
    "sample_inputs",
    "sample_network",
    "universality_report",
    "xi_from_chi",
]
