"""Distributions, sampling, and moments for random variables valued on a
curve.

Laws are expressed in the cumulative-mass coordinate J of a staircase
table, which orders curve points one-dimensionally. The uniform family
has constant density in J (the value Gamma(alpha+1) on a unit-mass
curve); the memoryless family carries the exponential law 1 - exp(-lam*J).
On a curve whose total mass is small against 1/lam the exponential is
truncated at the far end: the analytic cdf then tops out below one, and
sampling renormalizes over the reachable range (the cut-off probability
is reported as ``truncated_mass``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as _rng
from .calculus import cell_nodes
from .curves import FractalCurve, _BLOCK
from .errors import CurveDomainError, EstimationError
from .staircase import StaircaseTable

#: Panels in J of the trapezoid cdf that normalizes a custom pdf.
CUSTOM_GRID = 2048


@dataclass
class SampleSet:
    """Draws on a curve: their parameters t and mass coordinates J."""

    curve: FractalCurve
    t: np.ndarray           # (count,) parameters
    j: np.ndarray           # (count,) mass coordinates
    plateau_hits: int

    @property
    def count(self) -> int:
        return len(self.t)

    @cached_property
    def points(self) -> np.ndarray:
        """The (count, n) curve points w(t), built in blocks on first read."""
        pts = np.empty((self.count, self.curve.ndim))
        for lo in range(0, self.count, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            pts[rows] = self.curve.point(self.t[rows])
        return pts


class DistributionOnCurve:
    """A probability law for a curve-valued random variable.

    Build with one of the classmethods: ``uniform``, ``memoryless`` or
    ``custom`` (a user pdf over the mass coordinate, normalized on the
    curve's mass range), or name the family to the constructor. Any other
    family raises ``CurveDomainError``; a parameter the family does not
    use is ignored.
    """

    def __init__(self, table, family, lam=None, pdf_j=None):
        if family not in ("uniform", "memoryless", "custom"):
            raise CurveDomainError(
                f"unknown family {family!r}; pick uniform, memoryless or custom")
        self.table = table
        self.family = family
        self.lam = lam
        lo, hi = table.mass_bounds
        if family == "memoryless":
            if lam is None or not lam > 0.0:
                raise CurveDomainError("memoryless family needs lam > 0")
            lo = max(lo, 0.0)
            if hi <= lo:
                raise CurveDomainError(
                    "memoryless support is empty: the staircase has no "
                    "non-negative mass range"
                )
        self.support = (lo, hi)
        self._pdf_j = pdf_j
        if family == "custom":
            if pdf_j is None:
                raise CurveDomainError("custom family needs a pdf over J")
            jg = np.linspace(lo, hi, CUSTOM_GRID + 1)
            dens = np.asarray([max(float(pdf_j(v)), 0.0) for v in jg])
            cdf = np.concatenate(
                ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(jg)))
            )
            total = cdf[-1]
            if not (np.isfinite(total) and total > 0.0):
                raise CurveDomainError("custom pdf does not normalize")
            self._grid_j = jg
            self._grid_cdf = cdf / total
            self._custom_scale = 1.0 / total

    @classmethod
    def uniform(cls, table: StaircaseTable) -> "DistributionOnCurve":
        return cls(table, "uniform")

    @classmethod
    def memoryless(cls, table: StaircaseTable, lam: float) -> "DistributionOnCurve":
        return cls(table, "memoryless", lam=lam)

    @classmethod
    def custom(cls, table: StaircaseTable, pdf_j) -> "DistributionOnCurve":
        return cls(table, "custom", pdf_j=pdf_j)

    # -- analytic law in the mass coordinate ---------------------------------

    def cdf_at_j(self, j):
        lo, hi = self.support
        j = np.asarray(j, dtype=float)
        if self.family == "uniform":
            return np.clip((j - lo) / (hi - lo), 0.0, 1.0)
        if self.family == "memoryless":
            return np.where(j < 0.0, 0.0, 1.0 - np.exp(-self.lam * np.maximum(j, 0.0)))
        return np.interp(j, self._grid_j, self._grid_cdf)

    def pdf_at_j(self, j):
        lo, hi = self.support
        j = np.asarray(j, dtype=float)
        if self.family == "uniform":
            return np.where((j >= lo) & (j <= hi), 1.0 / (hi - lo), 0.0)
        if self.family == "memoryless":
            return np.where(j < 0.0, 0.0, self.lam * np.exp(-self.lam * np.maximum(j, 0.0)))
        return np.asarray(
            [max(float(self._pdf_j(v)), 0.0) for v in np.atleast_1d(j)]
        ).reshape(j.shape) * self._custom_scale

    @property
    def truncated_mass(self) -> float:
        """Probability the analytic law assigns beyond the curve's end."""
        return float(1.0 - self.cdf_at_j(self.support[1]))

    # -- law at curve points -------------------------------------------------

    def cdf(self, theta) -> float:
        """P(X <= theta) in the mass-coordinate order."""
        return float(self.cdf_at_j(self.table.j_of_theta(theta)))

    def pdf(self, theta) -> float:
        return float(self.pdf_at_j(self.table.j_of_theta(theta)))

    # -- sampling -------------------------------------------------------------

    def _inverse_cdf(self, u):
        lo, hi = self.support
        if self.family == "uniform":
            return lo + u * (hi - lo)
        if self.family == "memoryless":
            cap = float(self.cdf_at_j(hi))
            return -np.log1p(-u * cap) / self.lam
        return np.interp(u, self._grid_cdf, self._grid_j)

    def sample(self, seed: int, count: int) -> SampleSet:
        """Inverse-transform sampling driven by a counter-based stream.

        Each draw runs u -> J -> t: the inverse cdf takes a uniform u to
        its mass coordinate J, and ``StaircaseTable.t_from_mass`` takes J
        to t, looking up cells in any order. The same seed always
        reproduces the same draws. Draws landing on a staircase plateau
        snap to its right edge and are counted. The draws run in blocks of
        ``curves._BLOCK``; the stream yields the same numbers whatever
        the block size. No point is computed here: ``SampleSet.points``
        builds them from t, in blocks, on first read.
        """
        if count < 1:
            raise CurveDomainError("sample count must be >= 1")
        gen = _rng.stream(seed)
        table = self.table
        j = np.empty(count)
        t = np.empty(count)
        before = table.plateau_hits
        for lo in range(0, count, _BLOCK):
            rows = slice(lo, min(lo + _BLOCK, count))
            j[rows] = self._inverse_cdf(gen.random(rows.stop - lo))
            t[rows] = table.t_from_mass(j[rows])
        return SampleSet(table.curve, t, j, table.plateau_hits - before)

    # -- moments ---------------------------------------------------------------

    @cached_property
    def _nodes(self):
        """``cell_nodes`` over the support, with the density folded into the
        weights; built once per law, so a custom pdf runs once per node."""
        lo, hi = self.support
        pts, j, w = cell_nodes(self.table, self.table.t_from_mass(lo),
                               self.table.t_from_mass(hi))
        return pts, j, w * self.pdf_at_j(j)

    def _expectation(self, g):
        """E[g(X, J)], with ``g(points, J)`` giving one value or row per node."""
        pts, j, w = self._nodes
        # one contiguous row per component, each summed in order
        out = np.multiply(np.asarray(g(pts, j), dtype=float).T, w, order="C").sum(axis=-1)
        if not np.all(np.isfinite(out)):
            raise EstimationError("moment integrand produced non-finite values")
        return out

    def moment(self, m: int) -> np.ndarray:
        """Componentwise m-th moment, integrating theta^m * pdf against
        the staircase."""
        if m < 1:
            raise CurveDomainError("moment order must be >= 1")
        return self._expectation(lambda pts, j: pts ** m)

    def mean(self) -> np.ndarray:
        return self.moment(1)

    def variance(self) -> np.ndarray:
        """Componentwise variance about the mean."""
        mu = self.mean()
        return self._expectation(lambda pts, j: (pts - mu) ** 2)

    def moment_of_j(self, m: int) -> float:
        """m-th moment of the mass coordinate itself (scalar reading of
        the moment definition, exposed as an option)."""
        return float(self._expectation(lambda pts, j: j ** m))


def sampling_cdf(dist: DistributionOnCurve):
    """The cdf the sampler actually realizes: the analytic law
    renormalized over the curve's reachable mass range."""
    cap = float(dist.cdf_at_j(dist.support[1]))

    def cdf(j):
        return np.asarray(dist.cdf_at_j(j), dtype=float) / cap

    return cdf
