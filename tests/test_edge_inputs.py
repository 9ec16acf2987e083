"""Edge inputs that reach a guard or a branch no other test runs, one row
each: the call, and the error it raises or the value it returns."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fractalcalc import (
    DistributionOnCurve,
    FractalProcess,
    MomentSpec,
    brownian_like,
    build_koch,
    build_line,
    build_polyline,
    build_staircase,
    coarse_mass,
    falpha_derivative,
    mc_solution_moments,
    ms_integral_precheck,
)
from fractalcalc.cli import _snap_alpha
from fractalcalc.errors import CurveDomainError, EstimationError, ResolutionError
from fractalcalc.staircase import _lattice_points


def _flat_3d_derivative():
    # 1e-110 edges cubed underflow to 0, so the table has no mass and the
    # chart is flat at every theta
    verts = 1e-110 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                               [1.0, 1.0, 1.0]])
    with pytest.warns(UserWarning, match="flat cells"):
        table = build_staircase(build_polyline([0.0, 1.0, 2.0, 3.0], verts, 3.0))
    return falpha_derivative(lambda p: p[0], table, verts[1], h=1e-3)


def _overflowing_moment():
    dist = DistributionOnCurve.uniform(build_staircase(build_line(0, 1e110)))
    with np.errstate(over="ignore"):
        return dist.moment(3)


ROWS = {
    # a delta a hair under a quarter of the width takes the level-2 lattice
    # only after the level correction steps past the logarithm's level 1
    "lattice-level-correction": (
        lambda: len(_lattice_points(build_line(0, 1), 0, 1, 0.25 * (1 - 1e-10))), 17),
    "coarse-mass-empty-segment": (
        lambda: coarse_mass(build_koch(2), 0.5, 0.5, 1.0, 0.1),
        (CurveDomainError, "segment needs a < b")),
    "memoryless-empty-support": (
        lambda: DistributionOnCurve.memoryless(build_staircase(build_line(0, 1), p0=1.0), 1.0),
        (CurveDomainError, "support is empty")),
    "custom-without-pdf": (
        lambda: DistributionOnCurve(build_staircase(build_line(0, 1)), "custom"),
        (CurveDomainError, "custom family needs a pdf")),
    "custom-pdf-zero": (
        lambda: DistributionOnCurve.custom(build_staircase(build_line(0, 1)), lambda j: 0.0),
        (CurveDomainError, "does not normalize")),
    "moment-overflows": (
        _overflowing_moment, (EstimationError, "non-finite")),
    "derivative-on-a-flat-chart": (
        _flat_3d_derivative, (ResolutionError, "flat chart")),
    "a2-moment-0-is-2": (
        lambda: MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, SimpleNamespace(moment=lambda m: 2.0)),
        (CurveDomainError, "return 1 at order 0")),
    "mc-one-realization": (
        lambda: mc_solution_moments(None, None, 1, 0, [0.0, 1.0]),
        (CurveDomainError, "at least 2 realizations")),
    "polyline-alpha-past-n": (
        lambda: build_polyline([0, 1], [0, 1], 2.5), (CurveDomainError, "alpha must lie in")),
    "brownian-negative-index": (
        lambda: brownian_like().draw_paths(np.random.default_rng(0), [0.5, -1.0], 3),
        (CurveDomainError, "non-negative indices")),
    "precheck-infinite-weight": (
        lambda: ms_integral_precheck(FractalProcess("min", None, np.minimum),
                                     lambda j, u: np.full_like(j, math.inf),
                                     build_staircase(build_line(0, 1)), 0.0, 1.0).exists,
        False),
    "snap-alpha-off-both-orders": (lambda: _snap_alpha(1.5), 1.5),
}


@pytest.mark.parametrize("call, expected", ROWS.values(), ids=ROWS.keys())
def test_edge_input(call, expected):
    if isinstance(expected, tuple):
        error, match = expected
        with pytest.raises(error, match=match):
            call()
    else:
        assert call() == expected
