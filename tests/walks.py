"""Polylines shared by the property tests."""

import numpy as np

from fractalcalc import build_polyline


def lognormal_walk(seed, edges, dim):
    """Gaussian-step walk whose knot spacing is lognormal(0, 3), so the
    parameter speed varies by orders of magnitude from edge to edge."""
    rng = np.random.default_rng(seed)
    verts = np.vstack([np.zeros(dim), np.cumsum(rng.normal(size=(edges, dim)), axis=0)])
    knots = np.concatenate([[0.0], np.cumsum(rng.lognormal(0.0, 3.0, edges))])
    return build_polyline(knots / knots[-1], verts, 1.0)


def plateau_polyline():
    """Four-edge polyline whose second edge is 1e-200 long: at alpha = 2
    its chord underflows and the staircase gets a flat cell."""
    return build_polyline(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [[0.0, 0.0], [0.25, 0.0], [0.25, 1e-200], [0.75, 0.0], [1.0, 0.0]],
        2.0,
    )


def subnormal_plateau_polyline():
    """Five-edge polyline whose chords are 1e-160 long but for the second
    and fourth, which are 1e-200: at alpha = 2 on a five-cell grid its
    staircase steps by a subnormal 5e-321 and has two flat cells, so J
    takes a few thousand values and a uniform draw lands on a plateau
    about once in 1500."""
    return build_polyline(
        [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        [[0.0, 0.0], [1e-160, 0.0], [1e-160, 1e-200], [2e-160, 1e-200],
         [2e-160, 2e-200], [3e-160, 2e-200]],
        2.0,
    )


def underflow_polyline():
    """Polyline whose every chord is about 1e-200: at alpha = 2 all of its
    staircase increments underflow, so every S value equals 0."""
    return build_polyline(
        [0.0, 0.5, 1.0], [[0.0, 0.0], [1e-200, 0.0], [1e-200, 1e-200]], 2.0
    )
