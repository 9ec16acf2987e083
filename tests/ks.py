"""Goodness of fit for the sampling tests."""

import numpy as np


def ks_distance(sample_j: np.ndarray, cdf_at_j) -> float:
    """Kolmogorov-Smirnov distance between sampled mass coordinates and a
    (normalized) cdf over J."""
    x = np.sort(np.asarray(sample_j, dtype=float))
    n = len(x)
    f = np.asarray(cdf_at_j(x), dtype=float)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))
