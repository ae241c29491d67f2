"""Stochastic spherical-radial cubature rules and Gaussian-assumed filters.

The package provides weighted sigma-point rules for Gaussian-weighted
integrals (deterministic cubature, stochastic/quasi-stochastic spherical-
radial rules of degrees three and five, and plain Monte-Carlo), a generic
nonlinear Kalman-type filter driven by any of those rules, and benchmark
harnesses comparing their integration accuracy and filtering RMSE.
"""

__version__ = "0.1.0"

from .bench import (
    GrowthModel,
    IntegralBenchReport,
    IntegralBenchRow,
    RmseSeries,
    g_sum_powers,
    run_filter_bench,
    run_integral_bench,
    simulate_trajectory,
    true_integral_sum_powers,
)
from .filtering import (
    DivergenceError,
    PredictedObservation,
    StateSpaceModel,
    correct,
    predict_observation,
    predict_state,
    run_filter,
)
from .integrate import (
    GaussianBelief,
    IntegrandError,
    VectorFunction,
    expect,
    sigma_points,
)
from .linalg import spd_sqrt
from .rng import RngStream
from .rules import (
    IntegrationScheme,
    SchemeKind,
    draw_rule_batch,
    gaussian_monomial_moment,
    radial_weights,
    reported_eval_count,
    simplex_midpoints,
    simplex_vertices,
    spherical_weights_deg5,
)
from .samplers import sample_beta, sample_chi

__all__ = [
    "__version__",
    "RngStream",
    "spd_sqrt",
    "sample_chi",
    "sample_beta",
    "SchemeKind",
    "IntegrationScheme",
    "radial_weights",
    "simplex_vertices",
    "simplex_midpoints",
    "spherical_weights_deg5",
    "draw_rule_batch",
    "reported_eval_count",
    "gaussian_monomial_moment",
    "GaussianBelief",
    "VectorFunction",
    "IntegrandError",
    "sigma_points",
    "expect",
    "StateSpaceModel",
    "PredictedObservation",
    "DivergenceError",
    "predict_state",
    "predict_observation",
    "correct",
    "run_filter",
    "GrowthModel",
    "IntegralBenchRow",
    "IntegralBenchReport",
    "RmseSeries",
    "true_integral_sum_powers",
    "g_sum_powers",
    "run_integral_bench",
    "simulate_trajectory",
    "run_filter_bench",
]
