"""Mass measures of order alpha along a curve.

Covers the alpha-powered chord sums, the coarse-grained mass at a given
resolution, the resolution-limit classification (finite / divergent /
zero), the dimension estimate obtained by bisecting on alpha, and the
cumulative staircase table with its forward and inverse charts between
curve points and their cumulative-mass coordinate.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import FractalCurve, _CellIndex, _clip_one, _interpolate_one
from .errors import CurveDomainError, EstimationError

#: Relative tolerances for the resolution limit: a verdict compares the
#: masses of one ladder with each other, so the units of x do not move it.
CAUCHY_RTOL = 1e-4
_RATIO_EPS = 1e-3

_MAX_DIRECT_POINTS = 1 << 19


def sigma_alpha(curve: FractalCurve, points, alpha: float) -> float:
    """Sum of alpha-powered chord lengths over the subdivision whose
    parameters are ``points`` (1-D, strictly increasing, at least two),
    normalized by Gamma(alpha + 1)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or not np.all(np.diff(pts) > 0.0):
        raise CurveDomainError(
            "a subdivision needs at least two strictly increasing points")
    return _power_sum(curve.chords(pts), alpha)


def _power_sum(chords, alpha):
    if not alpha > 0.0:
        raise CurveDomainError(f"alpha must be positive, got {alpha}")
    return float((chords ** alpha).sum() / math.gamma(alpha + 1.0))


def _lattice_points(curve, a, b, delta):
    """The curve's quaternary lattice d0 + (d1 - d0) i/4^j over its domain
    (d0, d1) at the coarsest level j whose step is <= delta, restricted to
    [a, b], with both endpoints included. The points are counted before
    any array is built, so an over-cap delta costs nothing."""
    d0, d1 = curve.domain
    width = d1 - d0
    if width / delta == math.inf:
        raise CurveDomainError(
            f"delta={delta} steps past the float range over a domain of width "
            f"{width}; cap is {_MAX_DIRECT_POINTS} lattice points")
    # a delta at or past the width, infinity included, takes the level-0 lattice
    j = max(0, math.ceil(math.log(max(width / delta, 1.0), 4.0) - 1e-9))
    while width * 4.0 ** (-j) > delta * (1.0 + 1e-12):
        j += 1
    q = 4.0 ** (-j)
    lo = math.ceil((a - d0) / (width * q) - 1e-9)
    hi = math.floor((b - d0) / (width * q) + 1e-9)
    if hi - lo + 1 > _MAX_DIRECT_POINTS:
        raise CurveDomainError(
            f"delta={delta} needs {hi - lo + 1} lattice points; "
            f"cap is {_MAX_DIRECT_POINTS}"
        )
    # on a [0, 1] domain, d0 + width * x is x bit for bit; the top point,
    # i = 4^j, is d1 itself, since d0 + width can round below d1
    inner = d0 + width * (np.arange(lo, hi + 1, dtype=float) * q)
    if hi == 4 ** j:
        inner[-1] = d1
    pts = np.concatenate(([a], inner, [b]))
    pts = pts[(pts >= a) & (pts <= b)]
    return _first_of_runs(pts)


def _first_of_runs(x):
    """The first value of each run of equal values of ``x``: its distinct
    values when ``x`` is sorted. ``np.unique`` would sort it again, and in
    numpy 2.4 it (and ``np.union1d`` through it) imports numpy.ma on its
    first call."""
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _rung_chords(curve, a, b, delta):
    """Chords of the curve's quaternary lattice over [a, b] at resolution
    delta (``_lattice_points``)."""
    if not delta > 0.0:
        raise CurveDomainError(f"delta must be positive, got {delta}")
    if not a < b:
        raise CurveDomainError(f"segment needs a < b, got [{a}, {b}]")
    curve.check_domain([a, b])
    return curve.chords(_lattice_points(curve, a, b, delta))


def coarse_mass(curve: FractalCurve, a: float, b: float, alpha: float,
                delta: float) -> float:
    """Coarse-grained mass of the segment at resolution delta.

    The infimum over subdivisions of mesh <= delta is approximated by the
    chord sum over the curve's quaternary lattice (``_lattice_points``) at
    the coarsest level whose step is <= delta. On self-similar curves this
    member attains the infimum in the self-similar regime, and taking the
    lattice over the domain keeps it independent of the units of t.

    Each call builds its rung's chords anew; ``gamma_dimension``, which
    walks one ladder at many alpha, builds each rung once itself.
    """
    return _power_sum(_rung_chords(curve, a, b, delta), alpha)


@dataclass
class MassEstimate:
    """Classified resolution limit of the coarse-mass ladder."""

    verdict: str                 # "finite" | "divergent" | "zero"
    estimate: float              # inf for divergent, 0.0 for zero
    deltas: list = field(default_factory=list)
    masses: list = field(default_factory=list)


def _classify_limit(masses):
    last, prev = masses[-1], masses[-2]
    # an overflowed or underflowed mass would pass the Cauchy test
    if not last < math.inf:
        return "divergent", math.inf
    if not last > 0.0:
        return "zero", 0.0
    if abs(last - prev) <= CAUCHY_RTOL * last:
        return "finite", last
    # extrapolate a persistent geometric trend to its limit
    if prev > 0.0 and masses[-3] > 0.0:
        r1 = last / prev
        r0 = prev / masses[-3]
        stable = abs(r1 - r0) <= 0.05 * max(r1, r0)
        if stable and r1 >= 1.0 + _RATIO_EPS:
            return "divergent", math.inf
        if stable and r1 <= 1.0 - _RATIO_EPS:
            return "zero", 0.0
    return "finite", last


def _rung_deltas(a, b, levels):
    return [(b - a) * 4.0 ** (-k) for k in range(1, levels + 1)]


def _ladder_estimate(rungs, deltas, alpha):
    """Coarse masses at alpha over the rungs' chords, one power sum per
    rung, with their classified limit."""
    masses = [_power_sum(chords, alpha) for chords in rungs]
    verdict, estimate = _classify_limit(masses)
    return MassEstimate(verdict, estimate, list(deltas), masses)


def mass_function(curve: FractalCurve, a: float, b: float, alpha: float) -> MassEstimate:
    """Evaluate the coarse mass along delta_k = (b-a) * 4^-k for k = 1 up
    to the ``_default_levels`` rungs ``gamma_dimension`` walks, and
    classify the resolution limit."""
    deltas = _rung_deltas(a, b, _default_levels(curve.edge_count))
    return _ladder_estimate([_rung_chords(curve, a, b, d) for d in deltas], deltas, alpha)


def _default_levels(edges):
    """Rungs of the default ladder over a curve of ``edges`` edges: the
    finest rung not below the mean knot spacing, in [3, 8]; Koch-L walks L."""
    return max(3, min((edges.bit_length() - 1) // 2, 8))


@dataclass
class DimensionEstimate:
    value: float
    trace: list = field(default_factory=list)  # (alpha, MassEstimate) pairs


def gamma_dimension(curve: FractalCurve, tol: float = 1e-2) -> DimensionEstimate:
    """Estimate the dimension by bisecting on alpha in [1, n], with the
    mass ladder of the whole domain at ``_default_levels`` rungs.

    A divergent mass limit places alpha below the dimension, a zero limit
    above; a finite positive limit means alpha sits at the dimension and
    ends the search early. A curve in R^1 is 1 without a ladder.

    The rungs' chords do not depend on alpha, so each is built once, as
    ``coarse_mass`` builds it, and each alpha costs one power sum per rung.
    """
    if not tol >= 1e-4:
        raise CurveDomainError("tol below 1e-4 exceeds the estimator resolution")
    trace = []
    lo, hi = 1.0, float(curve.ndim)
    if hi == lo:
        return DimensionEstimate(lo, trace)
    if tol > hi - lo:
        raise CurveDomainError(f"tol={tol} exceeds the alpha bracket [1, {curve.ndim}]")
    a, b = curve.domain
    deltas = _rung_deltas(a, b, _default_levels(curve.edge_count))
    rungs = [_rung_chords(curve, a, b, d) for d in deltas]

    def classify(alpha):
        est = _ladder_estimate(rungs, deltas, alpha)
        trace.append((alpha, est))
        return est.verdict

    v_lo = classify(lo)
    if v_lo == "finite":
        return DimensionEstimate(lo, trace)
    v_hi = classify(hi)
    if v_hi == "finite":
        return DimensionEstimate(hi, trace)
    if v_lo != "divergent" or v_hi != "zero":
        raise EstimationError(
            f"dimension not bracketed on [1, {hi}]: endpoints classify "
            f"({v_lo}, {v_hi})"
        )
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        v = classify(mid)
        if v == "finite":
            return DimensionEstimate(mid, trace)
        if v == "divergent":
            lo = mid
        else:
            hi = mid
    return DimensionEstimate(0.5 * (lo + hi), trace)


class StaircaseTable:
    """Tabulated cumulative mass S(t) along a curve, with the forward and
    inverse charts between curve points and their mass coordinate.

    S(p0) = 0; S is non-decreasing by construction (the increments are
    alpha-powered chord lengths of the table grid). The chart J maps a
    curve point to S at its parameter; its inverse walks the table back.
    """

    def __init__(self, curve: FractalCurve, alpha: float, p0: float,
                 t: np.ndarray, s: np.ndarray):
        self.curve = curve
        self.alpha = float(alpha)
        self.p0 = float(p0)
        self.t = t
        self.s = s
        ds = np.diff(s)
        flat = ds == 0.0
        self.plateau_cells = int(np.count_nonzero(flat))
        self._plateau_values = _first_of_runs(s[:-1][flat])
        self.plateau_hits = 0
        if self.plateau_cells >= 2:
            warnings.warn(
                f"staircase has {self.plateau_cells} flat cells; the inverse "
                "chart is ill-conditioned there",
                stacklevel=3,
            )

    @property
    def mass_bounds(self) -> tuple[float, float]:
        return float(self.s[0]), float(self.s[-1])

    @property
    def total_mass(self) -> float:
        return float(self.s[-1] - self.s[0])

    def value(self, t):
        """S(t) by linear interpolation on the table grid."""
        self.curve.check_domain(t)
        return np.interp(t, self.t, self.s)

    def t_from_mass(self, s):
        """Parameter t with S(t) = s, inside the table's parameter range;
        plateaus resolve to their right edge and are counted in
        ``plateau_hits``. The queries need no order: each finds its cell
        through the cell index of ``s``, as ``FractalCurve.point`` finds
        its knot cell, and shares its interpolation; one scalar takes
        ``_interpolate_one``, with the same bits."""
        lo, hi = self.mass_bounds
        # relative to the mass range (one subnormal when it is all 0); a nan
        # fails: min and max carry it through
        slack = max(1e-9 * max(abs(lo), abs(hi), hi - lo), math.ulp(0.0))
        t0, t1 = self.t.item(0), self.t.item(-1)
        if np.ndim(s) == 0:
            x = float(s)
            if not lo - slack <= x <= hi + slack:
                raise CurveDomainError(f"mass value outside [{lo}, {hi}]")
            x = _clip_one(x, lo, hi)
            self.plateau_hits += self._plateau_hits_in(x)
            return _clip_one(_interpolate_one(self.s, (self.t,), x)[0], t0, t1)
        s_arr = np.asarray(s, dtype=float)
        if s_arr.size and not (lo - slack <= s_arr.min() and s_arr.max() <= hi + slack):
            raise CurveDomainError(f"mass value outside [{lo}, {hi}]")
        s_arr = np.clip(s_arr, lo, hi)
        self.plateau_hits += self._plateau_hits_in(s_arr)
        out = self._s_index.interpolate(self.t[None], s_arr)[0]
        np.clip(out, t0, t1, out=out)  # the last cell can round past b
        return out

    def _plateau_hits_in(self, s):
        """How many mass values of ``s``, clipped to the mass range as
        ``t_from_mass`` clips them, fall on a plateau."""
        if not len(self._plateau_values):
            return 0
        return int(np.isin(np.clip(s, *self.mass_bounds), self._plateau_values).sum())

    def j_of_theta(self, theta) -> float:
        """Mass coordinate of one curve point: S at its parameter."""
        return float(self.value(self.curve.parameter_of(np.reshape(theta, (1, -1)))[0]))

    def j_of_many(self, thetas):
        """Mass coordinates of an (m, n) block of curve points."""
        return self.value(self.curve.parameter_of(thetas))

    @cached_property
    def _s_index(self):
        """Cell index of ``s``, built on the first ``t_from_mass``."""
        return _CellIndex(self.s)

    def j_inverse(self, s):
        """Curve point whose mass coordinate is s: ``point`` at
        ``t_from_mass(s)``, so a scalar gives a (n,) point and an array
        an (m, n) block."""
        return self.curve.point(self.t_from_mass(s))


def _snapped_level(level, grid_size):
    """Level g of the 4^g-cell grid that a staircase of ``grid_size``
    cells snaps to over a lattice of 4^level cells: the nearest power of 4,
    4^min(level, 6) when unset, with g in [1, level]."""
    g = min(level, 6) if grid_size is None else \
        int(round(math.log(max(grid_size, 4), 4.0)))
    return max(1, min(g, level))


def _staircase_grid(curve, grid_size):
    m = curve.edge_count
    level = (m.bit_length() - 1) // 2
    if m == 4 ** level > 1:
        # the snapped grid stands where its points are knots: S is exact there
        t = np.linspace(*curve.domain, 4 ** _snapped_level(level, grid_size) + 1)
        if curve._knot_stride(t) is not None:
            return t
    return np.linspace(*curve.domain, (grid_size or 1024) + 1)


def build_staircase(curve: FractalCurve, alpha: float = None, p0: float = None,
                    grid_size: int = None) -> StaircaseTable:
    """Tabulate S(t): cumulative alpha-powered chord mass from p0.

    S is positive ahead of p0 and negative behind it. The grid has
    ``grid_size`` cells, 1024 by default. On a curve of 4^L edges, such as
    Koch-L, it snaps to 4^g cells, g in [1, L] (4^min(L, 6) by default),
    when that grid's points are every 4^(L-g)-th knot, so the table is
    exact at them; straight segments are exact at any grid size when
    alpha = 1.
    """
    alpha = curve.alpha if alpha is None else float(alpha)
    if not alpha > 0.0:
        raise CurveDomainError(f"alpha must be positive, got {alpha}")
    a, b = curve.domain
    p0 = a if p0 is None else float(p0)
    if not a <= p0 <= b:
        raise CurveDomainError(f"p0 must lie in the domain [{a}, {b}]")
    if grid_size is not None and grid_size < 1:
        raise CurveDomainError(f"grid_size must be >= 1, got {grid_size}")
    t = _staircase_grid(curve, grid_size)
    if p0 not in t:
        t = np.sort(np.append(t, p0))
    chords = curve.chords(t)
    inc = chords ** alpha / math.gamma(alpha + 1.0)
    cum = np.concatenate(([0.0], np.cumsum(inc)))
    s = cum - cum[np.searchsorted(t, p0)]
    return StaircaseTable(curve, alpha, p0, t, s)
