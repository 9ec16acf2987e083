"""Second-order random processes indexed by curve points.

All indexing happens in the cumulative-mass coordinate J of a staircase
table: an offset "tau + eps" means the curve point whose mass coordinate
is J(tau) + eps. Fixtures carry a vectorized path sampler and, where it
exists, the analytic correlation R(j1, j2).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import (
    CurveDomainError,
    ExistenceError,
    InvariantViolationError,
)
from .staircase import StaircaseTable, DIVERGENCE_CAP, CAUCHY_RTOL

#: Offsets (in mass units) used by the limit diagnostics.
DEFAULT_EPS_LADDER = tuple(10.0 ** (-k) for k in range(1, 8))

#: Panels in J of a mean-square integral and of an improper one's first rung.
MS_PANELS = 256


@dataclass
class FractalProcess:
    """A family of random variables X(zeta, tau) over a mass-coordinate
    index set.

    ``draw_paths(gen, j_values, n)`` returns an (n, len(j_values)) array:
    one row per realization, columns following ``j_values``. For a fixed
    realization the row is the sample function. ``correlation`` is the
    analytic R(j1, j2) when known, vectorized over numpy arrays.
    """

    name: str
    draw_paths: object
    correlation: object = None

    def correlation_or_estimate(self, n: int = 20000, seed: int = 0):
        """Analytic R if available, else a Monte Carlo estimator (noisy;
        unsuitable for small-offset limits)."""
        if self.correlation is not None:
            return self.correlation

        def estimated(j1, j2, _self=self):
            shape = np.broadcast_shapes(np.shape(j1), np.shape(j2))
            out = np.array([p.mean() for p in _pair_products(_self, j1, j2, n, seed)])
            return out.reshape(shape) if shape else float(out[0])

        return estimated


def _pair_products(proc, j1, j2, n, seed):
    """Yield X(j1) * X(j2) over n realizations for each broadcast pair.

    One draw from stream (seed, 0) covers the distinct indices, so equal
    indices share a column; pairs come one at a time, so memory stays
    O(n) however many pairs are asked.
    """
    b1, b2 = np.broadcast_arrays(np.asarray(j1, dtype=float),
                                 np.asarray(j2, dtype=float))
    uniq, inv = np.unique(np.concatenate([b1.ravel(), b2.ravel()]),
                          return_inverse=True)
    pt = np.ascontiguousarray(proc.draw_paths(_rng.stream(seed, 0), uniq, n).T)
    for a, b in zip(inv[:b1.size], inv[b1.size:]):
        yield pt[a] * pt[b]


def second_order_check(proc: FractalProcess, j_values, n: int = 4000,
                       seed: int = 0) -> bool:
    """Whether the estimated E[X(tau)^2] is finite across the index set."""
    paths = proc.draw_paths(_rng.stream(seed, 3), np.asarray(j_values, dtype=float), n)
    second = (paths ** 2).mean(axis=0)
    return bool(np.all(np.isfinite(second)))


def constant_process(value: float = 1.0) -> FractalProcess:
    def draw(gen, j, n):
        return np.full((n, len(j)), value)

    def corr(j1, j2):
        return value * value * np.ones_like(np.asarray(j1, dtype=float) * np.asarray(j2, dtype=float))

    return FractalProcess("constant", draw, corr)


def linear_amplitude(sigma2: float = 1.0) -> FractalProcess:
    """X(tau) = A * J(tau) with E[A] = 0 and Var[A] = sigma2; the
    correlation is the bilinear sigma2 * j1 * j2."""
    sd = math.sqrt(sigma2)

    def draw(gen, j, n):
        amp = gen.normal(0.0, sd, n)
        return amp[:, None] * np.asarray(j, dtype=float)[None, :]

    def corr(j1, j2):
        return sigma2 * np.asarray(j1, dtype=float) * np.asarray(j2, dtype=float)

    return FractalProcess("linear-amplitude", draw, corr)


def cosine_phase() -> FractalProcess:
    """X(tau) = cos(J(tau) + Phi), Phi uniform over a mass interval of
    length 2*pi; R(j1, j2) = cos(j1 - j2) / 2."""

    def draw(gen, j, n):
        phi = gen.uniform(0.0, 2.0 * math.pi, n)
        return np.cos(np.asarray(j, dtype=float)[None, :] + phi[:, None])

    def corr(j1, j2):
        return 0.5 * np.cos(np.asarray(j1, dtype=float) - np.asarray(j2, dtype=float))

    return FractalProcess("cosine-phase", draw, corr)


def white_noise(variance: float = 1.0) -> FractalProcess:
    """A fresh independent draw at every queried index."""
    sd = math.sqrt(variance)

    def draw(gen, j, n):
        return gen.normal(0.0, sd, (n, len(j)))

    def corr(j1, j2):
        j1a, j2a = np.broadcast_arrays(
            np.asarray(j1, dtype=float), np.asarray(j2, dtype=float)
        )
        return np.where(j1a == j2a, variance, 0.0)

    return FractalProcess("white-noise", draw, corr)


def brownian_like() -> FractalProcess:
    """Independent-increment paths with R(j1, j2) = min(j1, j2)."""

    def draw(gen, j, n):
        j = np.asarray(j, dtype=float)
        order = np.argsort(j)
        sorted_j = j[order]
        steps = np.diff(np.concatenate(([0.0], sorted_j)))
        if np.any(steps < 0.0):
            raise CurveDomainError("brownian-like paths need non-negative indices")
        incs = gen.normal(0.0, 1.0, (n, len(j))) * np.sqrt(steps)[None, :]
        walked = np.cumsum(incs, axis=1)
        out = np.empty_like(walked)
        out[:, order] = walked
        return out

    def corr(j1, j2):
        return np.minimum(np.asarray(j1, dtype=float), np.asarray(j2, dtype=float))

    return FractalProcess("brownian-like", draw, corr)


BUILTIN_FIXTURES = {
    "linear-amplitude": linear_amplitude,
    "cosine-phase": cosine_phase,
    "white-noise": white_noise,
    "brownian-like": brownian_like,
}


# -- correlation estimation ----------------------------------------------------


@dataclass
class CorrelationEstimate:
    r: float
    stderr: float
    n: int


def correlation_mc(proc: FractalProcess, j1: float, j2: float, n: int,
                   seed: int = 0) -> CorrelationEstimate:
    """Monte Carlo estimate of R(j1, j2) = E[X(j1) X(j2)]."""
    if n < 100:
        raise CurveDomainError("need at least 100 realizations")
    prod, = _pair_products(proc, j1, j2, n, seed)
    r = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(n))
    return CorrelationEstimate(r, stderr, n)


@dataclass
class CorrelationGrid:
    j_values: np.ndarray
    r: np.ndarray         # (m, m), symmetric by construction
    stderr: np.ndarray
    n: int


def estimate_correlation_grid(proc: FractalProcess, j_values, n: int,
                              seed: int = 0) -> CorrelationGrid:
    """Estimate R on a grid of index pairs from shared realizations."""
    j = np.asarray(j_values, dtype=float)
    if len(j) < 1:
        raise CurveDomainError("correlation grid needs at least one index point")
    if n < 2:
        raise CurveDomainError("need at least 2 realizations for a standard error")
    paths = proc.draw_paths(_rng.stream(seed), j, n)
    r = paths.T @ paths / n
    pt = np.ascontiguousarray(paths.T)
    stderr = np.empty_like(r)
    for i in range(len(j)):
        stderr[i, i:] = stderr[i:, i] = (pt[i] * pt[i:]).std(axis=1, ddof=1) / math.sqrt(n)
    return CorrelationGrid(j, r, stderr, n)


# -- limit diagnostics ---------------------------------------------------------


@dataclass
class GeneralizedDerivative:
    values: list
    limit: float          # nan when divergent
    divergent: bool


def second_generalized_derivative(correlation, tau: float,
                                  eps_ladder=DEFAULT_EPS_LADDER) -> GeneralizedDerivative:
    """Mixed second difference of R at the diagonal along an offset ladder.

    Divergence is declared for magnitudes growing monotonically past the
    shared cap; otherwise the limit comes from the most self-consistent
    Richardson pair (the small-offset tail is cancellation-noisy, so the
    stable pair is picked rather than the last one).
    """
    ladder = list(eps_ladder)
    if len(ladder) < 3 or not all(
        ladder[i] > ladder[i + 1] > 0.0 for i in range(len(ladder) - 1)
    ):
        raise CurveDomainError("eps ladder must be decreasing with >= 3 entries")
    values = []
    for eps in ladder:
        num = (
            float(correlation(tau + eps, tau + eps))
            - float(correlation(tau + eps, tau))
            - float(correlation(tau, tau + eps))
            + float(correlation(tau, tau))
        )
        values.append(num / (eps * eps))
    mags = [abs(v) for v in values]
    growing = all(mags[i] < mags[i + 1] for i in range(len(mags) - 1))
    if growing and mags[-1] > DIVERGENCE_CAP:
        return GeneralizedDerivative(values, math.nan, True)
    if not all(math.isfinite(v) for v in values):
        return GeneralizedDerivative(values, math.nan, True)
    extrap = []
    for i in range(len(values) - 1):
        rho = ladder[i + 1] / ladder[i]
        extrap.append((values[i + 1] - rho * rho * values[i]) / (1.0 - rho * rho))
    best = extrap[0]
    best_gap = math.inf
    for i in range(1, len(extrap)):
        gap = abs(extrap[i] - extrap[i - 1])
        if gap < best_gap:
            best_gap = gap
            best = extrap[i]
    return GeneralizedDerivative(values, best, False)


@dataclass
class ContinuityCheck:
    deltas: list
    stderrs: list
    continuous: bool


def ms_continuity_check(proc: FractalProcess, tau: float,
                        eps_ladder=DEFAULT_EPS_LADDER[:5], n: int = 10000,
                        seed: int = 0) -> ContinuityCheck:
    """Estimate E[(X(tau+eps) - X(tau))^2] along the ladder.

    Continuous means the deltas decay to the measurement's noise floor:
    the final delta sits below ten combined standard errors (referenced
    to the largest-offset measurement, whose stderr sets the floor).
    """
    if n < 100:
        raise CurveDomainError("need at least 100 realizations")
    deltas, stderrs = [], []
    for i, eps in enumerate(eps_ladder):
        paths = proc.draw_paths(
            _rng.stream(seed, i), np.array([tau, tau + eps], dtype=float), n
        )
        sq = (paths[:, 1] - paths[:, 0]) ** 2
        deltas.append(float(sq.mean()))
        stderrs.append(float(sq.std(ddof=1) / math.sqrt(n)))
    floor = 10.0 * (stderrs[0] + stderrs[-1])
    continuous = deltas[-1] <= max(floor, 1e-12)
    return ContinuityCheck(deltas, stderrs, continuous)


@dataclass
class DerivativeCheck:
    differentiable: bool
    value: float
    generalized: GeneralizedDerivative
    continuity: ContinuityCheck = None


def ms_derivative_check(proc, tau: float, eps_ladder=DEFAULT_EPS_LADDER,
                        n: int = 10000, seed: int = 0) -> DerivativeCheck:
    """Differentiability in mean square, via the generalized second
    derivative of the correlation at the diagonal.

    A differentiable verdict must co-occur with a continuous one; the
    contradiction raises rather than returning silently.
    """
    if isinstance(proc, FractalProcess):
        corr = proc.correlation_or_estimate(n=n, seed=seed)
        sampler = proc
    else:
        corr = proc
        sampler = None
    gsd = second_generalized_derivative(corr, tau, eps_ladder)
    differentiable = not gsd.divergent
    continuity = None
    if sampler is not None:
        continuity = ms_continuity_check(sampler, tau, eps_ladder[:5], n, seed)
        if differentiable and not continuity.continuous:
            raise InvariantViolationError(
                f"{sampler.name}: differentiable verdict without continuity"
            )
    return DerivativeCheck(differentiable, gsd.limit, gsd, continuity)


# -- mean-square integrals -----------------------------------------------------


@dataclass
class ExistencePrecheck:
    sums: list            # double midpoint sums at panel counts k, 2k, 4k
    exists: bool


@dataclass
class MsIntegralResult:
    y: float
    stderr: float
    realizations: np.ndarray
    precheck: ExistencePrecheck


def _mass_panels(table, a, b, k):
    """Midpoints and widths of k uniform panels in J: the integrands depend
    on J alone, and g(S(t)) dS(t) over [a, b] is g(j) dj over [S(a), S(b)]."""
    j = np.linspace(*table.value([a, b]), k + 1)
    return 0.5 * (j[:-1] + j[1:]), np.diff(j)


def _double_rs_sum(weight, proc, u, table, a, b, k, n, seed):
    mids, dj = _mass_panels(table, a, b, k)
    w = np.asarray(weight(mids, u), dtype=float) * dj
    if proc.correlation is not None:
        rmat = np.asarray(proc.correlation(mids[:, None], mids[None, :]), dtype=float)
    else:
        paths = proc.draw_paths(_rng.stream(seed, 7), mids, n)
        rmat = paths.T @ paths / n
    return float(w @ rmat @ w)


def ms_integral_precheck(proc: FractalProcess, weight, table: StaircaseTable,
                         a: float, b: float, u: float = 0.0, k: int = 128,
                         n: int = 20000, seed: int = 0) -> ExistencePrecheck:
    """Evaluate the double midpoint sum of f(j,u) f(j',u) R(j,j') over k,
    2k and 4k uniform panels in J; the limit exists when the sums are
    finite and Cauchy (tight relative agreement, or gaps contracting
    geometrically toward a finite value)."""
    sums = [
        _double_rs_sum(weight, proc, u, table, a, b, kk, n, seed)
        for kk in (k, 2 * k, 4 * k)
    ]
    if not all(math.isfinite(v) for v in sums):
        return ExistencePrecheck(sums, False)
    g1 = abs(sums[1] - sums[0])
    g2 = abs(sums[2] - sums[1])
    tight = g2 <= 100.0 * CAUCHY_RTOL * max(abs(sums[2]), 1e-12)
    contracting = g2 < 0.75 * g1
    return ExistencePrecheck(sums, tight or contracting)


def ms_integral(proc: FractalProcess, weight, table: StaircaseTable,
                a: float, b: float, u: float = 0.0, k: int = MS_PANELS,
                n: int = 2000, seed: int = 0) -> MsIntegralResult:
    """Mean-square integral of f(tau, u) X(tau) against the staircase.

    The existence pre-check runs first; failure raises without forming
    the integral. The estimate averages per-realization midpoint sums over
    k uniform panels in J, and the realizations are returned for
    downstream statistics.
    """
    if not a < b:
        raise CurveDomainError(f"integration needs a < b, got [{a}, {b}]")
    if n < 2:
        raise CurveDomainError("need at least 2 realizations for a standard error")
    pre = ms_integral_precheck(proc, weight, table, a, b, u, n=n, seed=seed)
    if not pre.exists:
        raise ExistenceError(
            f"double-integral pre-check failed: sums {pre.sums} are not Cauchy"
        )
    mids, dj = _mass_panels(table, a, b, k)
    coeff = np.asarray(weight(mids, u), dtype=float) * dj
    paths = proc.draw_paths(_rng.stream(seed, 1), mids, n)
    realizations = paths @ coeff
    y = float(realizations.mean())
    stderr = float(realizations.std(ddof=1) / math.sqrt(n))
    return MsIntegralResult(y, stderr, realizations, pre)


@dataclass
class ImproperIntegralResult:
    values: list
    stderrs: list
    y: float
    converged: bool


def improper_ms_integral(proc: FractalProcess, weight, table: StaircaseTable,
                         a: float, b_ladder, u: float = 0.0,
                         n: int = 2000, seed: int = 0) -> ImproperIntegralResult:
    """Mean-square integral along a growing upper-limit ladder.

    Converged when successive values differ by less than
    max(1e-6, 3 * combined stderr); exhaustion without convergence is
    flagged and the partial result returned.
    """
    ladder = list(b_ladder)
    if len(ladder) < 2 or not all(lo < hi for lo, hi in zip([a, *ladder], ladder)):
        raise CurveDomainError("upper-limit ladder must increase from a")
    s = table.value([a, *ladder])
    values, stderrs = [], []
    converged = False
    for b, s_b in zip(ladder, s[1:]):
        # constant panel density in J, so quadrature drift cannot mask the tail
        k_b = max(MS_PANELS, math.ceil(MS_PANELS * (s_b - s[0]) / (s[1] - s[0])))
        res = ms_integral(proc, weight, table, a, b, u, k_b, n, seed)
        values.append(res.y)
        stderrs.append(res.stderr)
        if len(values) >= 2:
            tol = max(1e-6, 3.0 * (stderrs[-1] + stderrs[-2]))
            if abs(values[-1] - values[-2]) < tol:
                converged = True
                break
    return ImproperIntegralResult(values, stderrs, values[-1], converged)


def product_limit_check(pair_sampler, target: float, index_ladder, n: int,
                        seed: int = 0, sigmas: float = 3.0):
    """Check E[X_m X'_m] -> E[X X'] along an index ladder.

    ``pair_sampler(gen, count, m)`` draws the coupled pair at ladder index
    m. Returns (ok, estimates, stderrs): ok means the final estimate sits
    within ``sigmas`` standard errors of the target.
    """
    if n < 2:
        raise CurveDomainError("need at least 2 realizations for a standard error")
    estimates, stderrs = [], []
    for i, m in enumerate(index_ladder):
        gen = _rng.stream(seed, i)
        x, xp = pair_sampler(gen, n, m)
        prod = np.asarray(x) * np.asarray(xp)
        estimates.append(float(prod.mean()))
        stderrs.append(float(prod.std(ddof=1) / math.sqrt(n)))
    ok = abs(estimates[-1] - target) <= sigmas * stderrs[-1] + 1e-12
    return ok, estimates, stderrs
