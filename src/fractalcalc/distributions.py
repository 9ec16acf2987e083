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

import numpy as np

from . import rng as _rng
from .calculus import rs_integral
from .errors import CurveDomainError, EstimationError
from .staircase import StaircaseTable


@dataclass
class SampleSet:
    """Points drawn on the curve, with the generator key that made them."""

    points: np.ndarray      # (count, n)
    t: np.ndarray           # (count,) parameters
    j: np.ndarray           # (count,) mass coordinates
    seed: int
    stream_id: int
    plateau_hits: int

    @property
    def count(self) -> int:
        return len(self.t)


class DistributionOnCurve:
    """A probability law for a curve-valued random variable.

    Build with one of the classmethods: ``uniform``, ``memoryless`` or
    ``custom`` (a user pdf over the mass coordinate, normalized on the
    curve's mass range).
    """

    def __init__(self, table, family, lam=None, pdf_j=None, grid=2048):
        self.table = table
        self.family = family
        self.lam = lam
        lo, hi = table.mass_bounds
        if family == "memoryless":
            if lam is None or lam <= 0.0:
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
            jg = np.linspace(lo, hi, grid + 1)
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
    def custom(cls, table: StaircaseTable, pdf_j, grid: int = 2048) -> "DistributionOnCurve":
        return cls(table, "custom", pdf_j=pdf_j, grid=grid)

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

    def sample(self, seed: int, count: int, stream_id: int = 0) -> SampleSet:
        """Inverse-transform sampling driven by a counter-based stream.

        The same (seed, stream_id) always reproduces the same points.
        Draws landing on a staircase plateau snap to its right edge and
        are counted.
        """
        if count < 1:
            raise CurveDomainError("sample count must be >= 1")
        gen = _rng.stream(seed, stream_id)
        u = gen.random(count)
        j = self._inverse_cdf(u)
        before = self.table.plateau_hits
        t = self.table.t_from_mass(j)
        hits = self.table.plateau_hits - before
        pts = self.table.curve.point(t)
        return SampleSet(pts, np.atleast_1d(t), np.atleast_1d(j), seed, stream_id, hits)

    # -- moments ---------------------------------------------------------------

    def _expectation(self, g, k):
        """E[g(X, J)]: the staircase integral of g(points, J) * pdf(J) over
        the support, evaluated at the quadrature's own (t, J) tags."""
        lo, hi = self.support
        ta, tb = self.table.t_from_mass(lo), self.table.t_from_mass(hi)
        return rs_integral(lambda pts, j: g(pts, j) * self.pdf_at_j(j),
                           self.table, ta, tb, k)

    def _moments_about(self, m, center, k):
        out = np.array([
            self._expectation(lambda pts, j, c=c: (pts[:, c] - center[c]) ** m, k)
            for c in range(self.table.curve.ndim)
        ])
        if not np.all(np.isfinite(out)):
            raise EstimationError("moment quadrature did not converge")
        return out

    def moment(self, m: int, k: int = 512) -> np.ndarray:
        """Componentwise m-th moment, integrating theta^m * pdf against
        the staircase."""
        if m < 1:
            raise CurveDomainError("moment order must be >= 1")
        return self._moments_about(m, np.zeros(self.table.curve.ndim), k)

    def mean(self, k: int = 512) -> np.ndarray:
        return self.moment(1, k)

    def variance(self, k: int = 512) -> np.ndarray:
        """Componentwise variance about the mean."""
        return self._moments_about(2, self.mean(k), k)

    def moment_of_j(self, m: int, k: int = 512) -> float:
        """m-th moment of the mass coordinate itself (scalar reading of
        the moment definition, exposed as an option)."""
        return self._expectation(lambda pts, j: j ** m, k)


def sampling_cdf(dist: DistributionOnCurve):
    """The cdf the sampler actually realizes: the analytic law
    renormalized over the curve's reachable mass range."""
    cap = float(dist.cdf_at_j(dist.support[1]))

    def cdf(j):
        return np.asarray(dist.cdf_at_j(j), dtype=float) / cap

    return cdf


def ks_distance(sample_j: np.ndarray, cdf_at_j) -> float:
    """Kolmogorov-Smirnov distance between sampled mass coordinates and a
    (normalized) cdf over J."""
    x = np.sort(np.asarray(sample_j, dtype=float))
    n = len(x)
    f = np.asarray(cdf_at_j(x), dtype=float)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))
