"""Numerical derivative and integral of scalar functions on a curve,
taken against the cumulative-mass coordinate of a staircase table."""

import numpy as np

from .errors import CurveDomainError, EvaluationError, ResolutionError
from .staircase import StaircaseTable, _first_of_runs

#: Default differencing step, as a fraction of the table's mass range.
DERIVATIVE_STEP_FRACTION = 1e-4

#: 3-point Gauss-Legendre rule on [-1, 1], exact through degree 5, in closed
#: form: np.polynomial.legendre.leggauss(3) would import numpy.polynomial.
_GAUSS_X = np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0


def falpha_derivative(f, table: StaircaseTable, theta, h: float = None) -> float:
    """Symmetric difference quotient of f in the mass coordinate.

    The probe points sit a mass distance h on either side of theta
    (one-sided at the ends of the table). Differencing happens against
    the chart values, matching the definition's denominator.
    """
    lo, hi = table.mass_bounds
    span = hi - lo
    if h is None:
        h = span * DERIVATIVE_STEP_FRACTION
    if not h > 0.0 or h < span * 1e-13:
        raise ResolutionError(f"step h={h} is below the table's resolution")
    j0 = table.j_of_theta(theta)
    j_hi = min(j0 + h, hi)
    j_lo = max(j0 - h, lo)
    if j_hi - j_lo <= 0.0:
        raise ResolutionError("staircase plateau at theta: flat chart")
    p_hi = table.j_inverse(j_hi)
    p_lo = table.j_inverse(j_lo)
    num = float(f(p_hi)) - float(f(p_lo))
    return num / (j_hi - j_lo)


def cell_nodes(table: StaircaseTable, a: float, b: float):
    """(points, J, weights) of the rule every staircase integral uses:
    [a, b] cut at each table and curve knot, where J and the point are
    affine in t, and a 3-point Gauss rule in J on each cell."""
    cuts = _first_of_runs(np.sort(np.concatenate((table.t, table.curve.knots))))
    t = np.concatenate(([a], cuts[(cuts > a) & (cuts < b)], [b]))
    j, pts = table.value(t), table.curve.point(t)
    # nodes interpolate each cell's end values; rows are (node, cell)
    at = 0.5 * (1.0 + _GAUSS_X)[:, None]
    dj = np.diff(j)
    jn = (j[:-1] + dj * at).ravel()
    pn = (pts[:-1] + np.diff(pts, axis=0) * at[:, :, None]).reshape(-1, pts.shape[1])
    return pn, jn, (0.5 * dj * _GAUSS_W[:, None]).ravel()


def falpha_integral(f, table: StaircaseTable, a: float, b: float) -> float:
    """Riemann-Stieltjes integral of f against the staircase over [a, b].

    ``f`` takes the (m, n) block of node points from ``cell_nodes`` and
    returns m values, or one scalar for a constant; any other shape raises
    EvaluationError. The rule is exact for integrands polynomial of degree
    up to 5 in the point on each cell.
    """
    if not a < b:
        raise CurveDomainError(f"integration needs a < b, got [{a}, {b}]")
    pts, _, w = cell_nodes(table, a, b)
    m = len(w)
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 0:
        vals = np.full(m, float(vals))
    elif vals.shape != (m,):
        raise EvaluationError(
            f"integrand returned shape {vals.shape} for {m} nodes; "
            f"expected ({m},) or a scalar"
        )
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand produced non-finite samples")
    return float((w * vals).sum())
