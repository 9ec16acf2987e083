"""A nan argument is refused, never turned into a verdict or a table.

A guard written ``x <= 0.0`` lets nan through, since every comparison
with nan is false; each call below once returned a verdict ("finite",
"not continuous", "divergent", "does not exist"), an all-nan table or a
nan estimate.
"""

import math

import pytest

from fractalcalc import (
    BetaSquaredAmplitude,
    DistributionOnCurve,
    FixedSquaredAmplitude,
    FractalProcess,
    beta_raw_moment,
    build_koch,
    build_line,
    build_staircase,
    closed_form_sample,
    coarse_mass,
    cosine_phase,
    estimate_correlation_grid,
    falpha_derivative,
    improper_ms_integral,
    linear_amplitude,
    mass_function,
    mc_solution_moments,
    ms_continuity_check,
    ms_derivative_check,
    ms_integral,
    ms_integral_precheck,
    second_generalized_derivative,
    sigma_alpha,
)
from fractalcalc.errors import CurveDomainError, ResolutionError

NAN = math.nan
KOCH = build_koch(3)
TABLE = build_staircase(KOCH)
LINE_TABLE = build_staircase(build_line(0.0, 1.0))


def _weight(j, u):
    return j * 0.0 + u


def _ensemble(j_values):
    """Monte Carlo moments of the oscillator on ``j_values``."""
    return mc_solution_moments(FixedSquaredAmplitude(1.0), lambda gen, size: (
        gen.normal(size=size), gen.normal(size=size)), 100, 0, j_values)


CALLS = {
    "mass_function alpha": lambda: mass_function(KOCH, 0.0, 1.0, NAN),
    "build_staircase alpha": lambda: build_staircase(KOCH, NAN),
    "sigma_alpha alpha": lambda: sigma_alpha(KOCH, [0.0, 0.5, 1.0], NAN),
    "coarse_mass alpha": lambda: coarse_mass(KOCH, 0.0, 1.0, NAN, 0.1),
    "coarse_mass delta": lambda: coarse_mass(KOCH, 0.0, 1.0, 1.2, NAN),
    "memoryless lam": lambda: DistributionOnCurve.memoryless(TABLE, NAN),
    "beta mu": lambda: BetaSquaredAmplitude(NAN, 1.0),
    "beta nu": lambda: BetaSquaredAmplitude(1.0, NAN),
    "beta moment": lambda: beta_raw_moment(NAN, 1.0, 2),
    "fixed a2": lambda: FixedSquaredAmplitude(NAN),
    # an infinite amplitude parameter would give nan moments
    "fixed a2 infinite": lambda: FixedSquaredAmplitude(math.inf),
    "beta mu infinite": lambda: BetaSquaredAmplitude(math.inf, 1.0),
    "beta nu infinite": lambda: BetaSquaredAmplitude(1.0, math.inf),
    "beta moment infinite": lambda: beta_raw_moment(1.0, math.inf, 2),
    "continuity tau": lambda: ms_continuity_check(cosine_phase(), NAN),
    "derivative tau": lambda: ms_derivative_check(linear_amplitude(), NAN),
    "estimated derivative tau": lambda: ms_derivative_check(
        FractalProcess("estimated", linear_amplitude().draw_paths), NAN, n=200),
    "generalized derivative tau": lambda: second_generalized_derivative(
        linear_amplitude().correlation, NAN),
    "grid index": lambda: estimate_correlation_grid(linear_amplitude(), [NAN, 0.5], 200),
    "mc_solution_moments index": lambda: _ensemble([0.0, NAN, 1.0]),
    "mc_solution_moments infinite index": lambda: _ensemble([0.0, math.inf]),
    "ms_integral_precheck u": lambda: ms_integral_precheck(
        linear_amplitude(), _weight, LINE_TABLE, 0.0, 1.0, NAN, n=100),
    "ms_integral u": lambda: ms_integral(
        linear_amplitude(), _weight, LINE_TABLE, 0.0, 1.0, NAN, n=100),
    "improper_ms_integral u": lambda: improper_ms_integral(
        linear_amplitude(), _weight, LINE_TABLE, 0.0, [0.5, 1.0], NAN, n=100),
    "closed_form_sample a": lambda: closed_form_sample(NAN, 1.0, 0.0, [0.1]),
    "closed_form_sample x0": lambda: closed_form_sample(1.0, NAN, 0.0, [0.1]),
    "closed_form_sample x1": lambda: closed_form_sample(1.0, 1.0, NAN, [0.1]),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_nan_is_refused(call):
    with pytest.raises(CurveDomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda j: estimate_correlation_grid(linear_amplitude(), j, 200), _ensemble],
    ids=["estimate_correlation_grid", "mc_solution_moments"])
@pytest.mark.parametrize("j, message", [
    ([], "needs at least one index point"), ([0.0, NAN, 1.0], "index nan is not finite"),
    ([0.0, math.inf], "index inf is not finite")], ids=["empty", "nan", "inf"])
def test_degenerate_grid_is_refused_by_name(call, j, message):
    with pytest.raises(CurveDomainError, match=message):
        call(j)


def test_nan_derivative_step_is_refused():
    with pytest.raises(ResolutionError):
        falpha_derivative(lambda p: p[..., 0], TABLE, KOCH.point(0.5), NAN)
