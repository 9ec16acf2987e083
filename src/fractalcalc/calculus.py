"""Numerical derivative and integral of scalar functions on a curve,
taken against the cumulative-mass coordinate of a staircase table."""

import numpy as np

from .errors import CurveDomainError, EvaluationError, ResolutionError
from .staircase import StaircaseTable

#: Default differencing step, as a fraction of the table's mass range.
DERIVATIVE_STEP_FRACTION = 1e-4


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
    if h <= 0.0 or h < span * 1e-13:
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


def midpoint_tags(table: StaircaseTable, a: float, b: float, k: int):
    """The k-panel partition of [a, b] that every staircase sum uses:
    uniform panels in the parameter, tagged at their midpoints.

    Returns the tag parameters, their mass coordinates J = S(t), and the
    staircase increment over each panel.
    """
    t = np.linspace(a, b, k + 1)
    t_mid = 0.5 * (t[:-1] + t[1:])
    return t_mid, table.value(t_mid), np.diff(table.value(t))


def _rs_sum(f, table, a, b, k):
    t_mid, _, ds = midpoint_tags(table, a, b, k)
    vals = np.asarray(f(table.curve.point(t_mid)), dtype=float)
    if vals.ndim == 0:
        vals = np.full(k, float(vals))
    elif vals.shape != (k,):
        raise EvaluationError(
            f"integrand returned shape {vals.shape} for {k} tags; "
            f"expected ({k},) or a scalar"
        )
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand produced non-finite samples")
    return float(np.dot(vals, ds))


def falpha_integral(f, table: StaircaseTable, a: float, b: float,
                    k: int = 256) -> float:
    """Riemann-Stieltjes integral of f against the staircase over [a, b].

    ``f`` takes the (m, n) block of tag points and returns m values, or
    one scalar for a constant; any other shape raises EvaluationError.
    Midpoint tags in parameter give second-order accuracy; one Richardson
    step over k and 2k panels standardizes the convergence claim.
    """
    if not a < b:
        raise CurveDomainError(f"integration needs a < b, got [{a}, {b}]")
    if k < 1:
        raise CurveDomainError("panel count must be >= 1")
    table.curve.check_domain([a, b])
    coarse = _rs_sum(f, table, a, b, k)
    fine = _rs_sum(f, table, a, b, 2 * k)
    return fine + (fine - coarse) / 3.0
