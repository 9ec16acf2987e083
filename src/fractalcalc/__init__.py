"""Calculus, probability, and mean-square analysis on parameterized
fractal curves."""

from .curves import (
    KOCH_DIMENSION,
    FractalCurve,
    build_koch,
    build_line,
    build_polyline,
    load_polyline_csv,
)
from .staircase import (
    StaircaseTable,
    build_staircase,
    coarse_mass,
    gamma_dimension,
    mass_function,
    sigma_alpha,
)
from .calculus import falpha_derivative, falpha_integral
from .distributions import DistributionOnCurve, sampling_cdf
from .processes import (
    FractalProcess,
    brownian_like,
    cosine_phase,
    estimate_correlation_grid,
    improper_ms_integral,
    linear_amplitude,
    ms_continuity_check,
    ms_derivative_check,
    ms_integral,
    ms_integral_precheck,
    second_generalized_derivative,
    white_noise,
)
from .oscillator import (
    BetaSquaredAmplitude,
    FixedSquaredAmplitude,
    MomentSpec,
    SeriesSolution,
    beta_raw_moment,
    closed_form_sample,
    mc_solution_moments,
    solve_series,
)

__version__ = "0.1.0"

__all__ = [
    "KOCH_DIMENSION",
    "FractalCurve",
    "build_koch",
    "build_line",
    "build_polyline",
    "load_polyline_csv",
    "StaircaseTable",
    "build_staircase",
    "coarse_mass",
    "gamma_dimension",
    "mass_function",
    "sigma_alpha",
    "falpha_derivative",
    "falpha_integral",
    "DistributionOnCurve",
    "sampling_cdf",
    "FractalProcess",
    "brownian_like",
    "cosine_phase",
    "estimate_correlation_grid",
    "improper_ms_integral",
    "linear_amplitude",
    "ms_continuity_check",
    "ms_derivative_check",
    "ms_integral",
    "ms_integral_precheck",
    "second_generalized_derivative",
    "white_noise",
    "BetaSquaredAmplitude",
    "FixedSquaredAmplitude",
    "MomentSpec",
    "SeriesSolution",
    "beta_raw_moment",
    "closed_form_sample",
    "mc_solution_moments",
    "solve_series",
    "__version__",
]
