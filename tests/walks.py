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
