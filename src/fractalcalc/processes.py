"""Second-order random processes indexed by curve points.

All indexing happens in the cumulative-mass coordinate J of a staircase
table: an offset "tau + eps" means the curve point whose mass coordinate
is J(tau) + eps. Fixtures carry a vectorized path sampler and, where it
exists, the analytic correlation R(j1, j2).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _threads
from . import rng as _rng
from .errors import CurveDomainError, ExistenceError
from .staircase import StaircaseTable

#: Offsets (in mass units) used by the limit diagnostics.
DEFAULT_EPS_LADDER = tuple(10.0 ** (-k) for k in range(1, 8))

#: Panels in J of a mean-square integral and of an improper one's first rung;
#: the existence pre-check sums over half, one and two times as many.
MS_PANELS = 256

#: Relative gap between the pre-check's last two sums that counts as Cauchy.
PRECHECK_RTOL = 0.01

#: Pair products per block of a correlation grid row: one block stays in L2.
GRID_BLOCK = 2 ** 17


@dataclass
class FractalProcess:
    """A family of random variables X(zeta, tau) over a mass-coordinate
    index set.

    ``draw_paths(gen, j_values, n)`` returns a new (n, len(j_values)) array,
    which the caller may overwrite: one row per realization, columns
    following ``j_values``; for a fixed realization the row is the sample
    function. ``correlation`` is the analytic R(j1, j2), vectorized, if known.
    """

    name: str
    draw_paths: object
    correlation: object = None


def linear_amplitude(sigma2: float = 1.0) -> FractalProcess:
    """X(tau) = A * J(tau) with E[A] = 0 and Var[A] = sigma2; the
    correlation is the bilinear sigma2 * j1 * j2."""
    if not sigma2 >= 0.0:
        raise CurveDomainError(f"sigma2 must be non-negative, got {sigma2}")
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
        j = np.asarray(j, dtype=float)
        k = _threads.workers(n * len(j))
        phi = gen.uniform(0.0, 2.0 * math.pi, n)
        out = j[None, :] + phi[:, None]
        _threads.run([functools.partial(np.cos, rows, out=rows)
                      for rows in np.array_split(out, k)])
        return out

    def corr(j1, j2):
        return 0.5 * np.cos(np.asarray(j1, dtype=float) - np.asarray(j2, dtype=float))

    return FractalProcess("cosine-phase", draw, corr)


def white_noise(variance: float = 1.0) -> FractalProcess:
    """A fresh independent draw at every queried index."""
    if not variance >= 0.0:
        raise CurveDomainError(f"variance must be non-negative, got {variance}")
    sd = math.sqrt(variance)

    def draw(gen, j, n):
        return gen.normal(0.0, sd, (n, len(j)))

    def corr(j1, j2):
        return np.where(np.equal(j1, j2), variance, 0.0)

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
        walked = gen.normal(0.0, 1.0, (n, len(j)))
        walked *= np.sqrt(steps)
        np.cumsum(walked, axis=1, out=walked)
        if np.all(order[1:] > order[:-1]):
            return walked  # j was sorted: the scatter would only copy
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
class CorrelationGrid:
    j_values: np.ndarray
    r: np.ndarray         # (m, m), symmetric by construction
    stderr: np.ndarray
    n: int


def estimate_correlation_grid(proc: FractalProcess, j_values, n: int,
                              seed: int = 0) -> CorrelationGrid:
    """Estimate R on a grid of index pairs from shared realizations.

    For each i, the products X(j_i) X(j_l), l >= i, are formed in blocks
    of about ``GRID_BLOCK`` values; R is numpy's ``mean`` of each row of
    products (an ordered sum over the n realizations, no BLAS) and stderr
    its ``std(ddof=1)`` over sqrt(n), step for step. Large grids deal the
    rows i out to one thread per CPU the process may use; every value gets
    the same operations whatever the thread count."""
    j = np.asarray(j_values, dtype=float)
    if len(j) < 1:
        raise CurveDomainError("correlation grid needs at least one index point")
    if not np.all(np.isfinite(j)):
        raise CurveDomainError(f"correlation grid index {j[~np.isfinite(j)][0]} is not finite")
    if n < 2:
        raise CurveDomainError("need at least 2 realizations for a standard error")
    m = len(j)
    k = min(_threads.workers(m * (m + 1) // 2 * n), m)
    # every buffer comes from the calling thread (see _threads.run), and
    # before the paths: the draw's temporaries lift glibc's mmap threshold,
    # and the buffers would then come from the heap above the paths and
    # keep those pages resident
    r, stderr = np.empty((2, m, m))
    bufs = np.empty((k, min(m, max(1, GRID_BLOCK // n)), n))
    paths = proc.draw_paths(_rng.stream(seed), j, n)
    pt = np.ascontiguousarray(paths.T, dtype=float)
    _threads.run([functools.partial(_grid_rows, pt, range(w, m, k), buf, r, stderr)
                  for w, buf in enumerate(bufs)])
    return CorrelationGrid(j, r, stderr, n)


def _grid_rows(pt, rows, buf, r, stderr):
    """Rows ``rows`` of the grid and their mirror columns, from the index
    by realization matrix ``pt``, through ``len(buf)`` products at a time."""
    m, n = pt.shape
    for i in rows:
        for lo in range(i, m, len(buf)):
            hi = min(lo + len(buf), m)
            prod = np.multiply(pt[i], pt[lo:hi], out=buf[:hi - lo])
            r[i, lo:hi] = r[lo:hi, i] = prod.sum(axis=1) / n
            prod -= r[lo:hi, i, None]
            np.square(prod, out=prod)
            stderr[i, lo:hi] = stderr[lo:hi, i] = (
                np.sqrt(prod.sum(axis=1) / (n - 1)) / math.sqrt(n))


# -- limit diagnostics ---------------------------------------------------------


@dataclass
class GeneralizedDerivative:
    values: list
    limit: float          # nan when divergent
    divergent: bool


@dataclass
class ContinuityCheck:
    deltas: list
    stderrs: list
    continuous: bool


@dataclass
class DerivativeCheck:
    differentiable: bool
    value: float
    generalized: GeneralizedDerivative
    continuity: ContinuityCheck


def second_generalized_derivative(correlation, tau: float) -> GeneralizedDerivative:
    """Mixed second difference of a bare correlation at the diagonal along
    ``DEFAULT_EPS_LADDER``: the exact ladder of ``ms_derivative_check``."""
    return ms_derivative_check(FractalProcess("correlation", None, correlation), tau).generalized


def ms_continuity_check(proc: FractalProcess, tau: float, n: int = 10000,
                        seed: int = 0) -> ContinuityCheck:
    """Mean-square continuity at tau, read from ``ms_derivative_check``'s
    ladder."""
    return ms_derivative_check(proc, tau, n, seed).continuity


def _rises(a, b, c):
    """Whether the magnitudes a, b, c of three rungs a decade apart rise by
    at least sqrt(10) per decade."""
    return 0.0 < b and math.sqrt(10.0) * a <= b and math.sqrt(10.0) * b <= c


def _settles(d, se):
    """Whether three rungs d of D a decade apart fall, each step by more than
    ten combined standard errors se, toward a limit at most half the last
    rung. The limit is Aitken's extrapolation, which is 0 for D = eps^p at
    every p > 0 and L for D = L + eps^p; it is read in ratios to the first
    rung, so no product leaves the float range."""
    (a, b, c), (sa, sb, sc) = d, se
    x, y = b / a, c / a
    return (a - b > 10.0 * (sa + sb) and b - c > 10.0 * (sb + sc)
            and 2.0 * (x - y) ** 2 >= y * (1.0 - 2.0 * x + y))


def ms_derivative_check(proc: FractalProcess, tau: float, n: int = 10000,
                        seed: int = 0) -> DerivativeCheck:
    """Mean-square continuity and differentiability at tau, both read from
    one ladder of D(eps) = E[(X(tau+eps) - X(tau))^2] along
    ``DEFAULT_EPS_LADDER``, whose rungs are a decade apart.

    With an analytic R, D(eps) = R(tau+eps, tau+eps) - R(tau+eps, tau)
    - R(tau, tau+eps) + R(tau, tau), with zero standard errors and no draw.
    The four terms cancel at R's scale, so a rung whose |D| is within 64
    ulps of the terms' summed magnitude is rounding noise; the rules read
    the resolved rungs before the first such one. Without an analytic R,
    D and its standard error are the mean and stderr of the squared
    differences over one draw of n >= 100 paths at tau and every tau + eps,
    and every rung counts.

    Each rule compares rungs of the ladder with each other, so no verdict
    depends on the units of X:
    - divergent: some D/eps^2 is not finite, or |D/eps^2| rises by at least
      sqrt(10) per decade over the last three resolved rungs. Otherwise the
      limit comes from the most self-consistent Richardson pair over the
      whole ladder (the stable pair rather than the last one);
    - continuous: not divergent; or D falls toward 0 over the last three
      resolved rungs (``_settles``), at any power of eps; or the last D is
      within its rounding noise plus ten combined standard errors of the
      first and last rungs, which covers D = 0.
    A differentiable process is therefore continuous by construction.
    """
    if not math.isfinite(tau):
        raise CurveDomainError(f"tau must be finite, got {tau}")
    ladder = DEFAULT_EPS_LADDER
    r = proc.correlation
    if r is not None:
        terms = [(float(r(tau + eps, tau + eps)), float(r(tau + eps, tau)),
                  float(r(tau, tau + eps)), float(r(tau, tau))) for eps in ladder]
        deltas = [a - b - c + d for a, b, c, d in terms]
        noise = [64.0 * math.ulp(1.0) * sum(map(abs, t)) for t in terms]
        stderrs = [0.0] * len(ladder)
    else:
        if n < 100:
            raise CurveDomainError("need at least 100 realizations")
        j = np.array([tau, *(tau + eps for eps in ladder)])
        pt = np.ascontiguousarray(proc.draw_paths(_rng.stream(seed), j, n).T, dtype=float)
        sq = np.square(pt[1:] - pt[0])
        deltas = sq.mean(axis=1).tolist()
        noise = [0.0] * len(ladder)
        stderrs = (sq.std(axis=1, ddof=1) / math.sqrt(n)).tolist()
    values = [d / (eps * eps) for d, eps in zip(deltas, ladder)]
    m = next((k for k, (d, z) in enumerate(zip(deltas, noise)) if not abs(d) > z), len(ladder))
    last = slice(m - 3, m)
    divergent = (not all(map(math.isfinite, values))
                 or (m >= 3 and _rises(*map(abs, values[last]))))
    continuous = (not divergent or (m >= 3 and _settles(deltas[last], stderrs[last]))
                  or deltas[-1] <= noise[-1] + 10.0 * (stderrs[0] + stderrs[-1]))
    best = math.nan
    if not divergent:
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
    return DerivativeCheck(not divergent, best, GeneralizedDerivative(values, best, divergent),
                           ContinuityCheck(deltas, stderrs, continuous))


# -- mean-square integrals -----------------------------------------------------


@dataclass
class ExistencePrecheck:
    sums: list            # double midpoint sums at 1/2, 1 and 2 times MS_PANELS panels
    exists: bool


@dataclass
class MsIntegralResult:
    y: float
    stderr: float
    realizations: np.ndarray
    precheck: ExistencePrecheck


def _mass_panels(weight, table, a, b, u, k):
    """Midpoints of k uniform panels in J and their weights f(j, u) dj: the
    integrands depend on J alone, and g(S(t)) dS(t) over [a, b] is g(j) dj
    over [S(a), S(b)]."""
    j = np.linspace(*table.value([a, b]), k + 1)
    mids = 0.5 * (j[:-1] + j[1:])
    return mids, np.asarray(weight(mids, u), dtype=float) * np.diff(j)


def _path_sums(proc, weight, table, a, b, u, k, n, seed):
    """sum_j w_j X(j) over k panels for each of n paths drawn from
    ``stream(seed, 7)``: one realization of a midpoint sum per row."""
    mids, w = _mass_panels(weight, table, a, b, u, k)
    paths = np.asarray(proc.draw_paths(_rng.stream(seed, 7), mids, n), dtype=float)
    return np.multiply(paths, w, out=paths).sum(axis=1)


def _double_rs_sum(proc, weight, table, a, b, u, k, n, seed):
    """The double midpoint sum over k panels and, without an analytic R,
    the path sums whose mean square it is (else None)."""
    if proc.correlation is None:
        # w (P^T P / n) w in its realization form: O(n k), no k-by-k matrix
        drawn = _path_sums(proc, weight, table, a, b, u, k, n, seed)
        return float(np.mean(drawn ** 2)), drawn
    mids, w = _mass_panels(weight, table, a, b, u, k)
    rmat = np.asarray(proc.correlation(mids[:, None], mids[None, :]), dtype=float)
    return float(((rmat * w).sum(axis=1) * w).sum()), None


def _precheck(proc, weight, table, a, b, u, n, seed):
    """``ms_integral_precheck`` and its rungs' path sums by panel count,
    for the estimate to reuse."""
    if not a < b:
        raise CurveDomainError(f"integration needs a < b, got [{a}, {b}]")
    if not math.isfinite(u):
        raise CurveDomainError(f"u must be finite, got {u}")
    sums, drawn = [], {}
    for k in (MS_PANELS // 2, MS_PANELS, 2 * MS_PANELS):
        total, drawn[k] = _double_rs_sum(proc, weight, table, a, b, u, k, n, seed)
        sums.append(total)
    if not all(math.isfinite(v) for v in sums):
        return ExistencePrecheck(sums, False), drawn
    g1 = abs(sums[1] - sums[0])
    g2 = abs(sums[2] - sums[1])
    tight = g2 <= PRECHECK_RTOL * abs(sums[2])
    contracting = g2 < 0.75 * g1
    return ExistencePrecheck(sums, tight or contracting), drawn


def ms_integral_precheck(proc: FractalProcess, weight, table: StaircaseTable,
                         a: float, b: float, u: float = 0.0,
                         n: int = 20000, seed: int = 0) -> ExistencePrecheck:
    """Evaluate the double midpoint sum of f(j,u) f(j',u) R(j,j') over k/2,
    k and 2k uniform panels in J over [a, b], k = ``MS_PANELS``; the limit
    exists when the sums are finite and Cauchy (within ``PRECHECK_RTOL``
    of each other, or gaps contracting geometrically toward a finite
    value).

    Every sum is an ordered numpy reduction, not a BLAS product. An analytic
    R is summed row by row; without one, the sum is taken in its realization
    form: the mean over n paths, drawn from ``stream(seed, 7)``, of
    (sum_j w_j X(j))^2, w_j = f(j, u) dj. It equals w R_n w for the sample
    correlation R_n = P^T P / n in exact arithmetic and can differ from that
    Gram form in the last bits."""
    return _precheck(proc, weight, table, a, b, u, n, seed)[0]


def _ms_integral(proc, weight, table, a, b, u, k, n, seed):
    """``ms_integral`` over k panels in J. The estimate reuses the
    pre-check's rung of k panels where one was drawn; otherwise it draws
    that rung once, from the pre-check's stream."""
    if n < 2:
        raise CurveDomainError("need at least 2 realizations for a standard error")
    pre, drawn = _precheck(proc, weight, table, a, b, u, n, seed)
    if not pre.exists:
        raise ExistenceError(
            f"double-integral pre-check failed: sums {pre.sums} are not Cauchy"
        )
    realizations = drawn.get(k)
    if realizations is None:
        realizations = _path_sums(proc, weight, table, a, b, u, k, n, seed)
    y = float(realizations.mean())
    stderr = float(realizations.std(ddof=1) / math.sqrt(n))
    return MsIntegralResult(y, stderr, realizations, pre)


def ms_integral(proc: FractalProcess, weight, table: StaircaseTable,
                a: float, b: float, u: float = 0.0,
                n: int = 2000, seed: int = 0) -> MsIntegralResult:
    """Mean-square integral of f(tau, u) X(tau) against the staircase.

    The existence pre-check runs first; failure raises without forming
    the integral. The estimate averages per-realization midpoint sums over
    ``MS_PANELS`` uniform panels in J: without an analytic R, the sums of
    the pre-check's middle rung. The realizations are returned for
    downstream statistics.
    """
    return _ms_integral(proc, weight, table, a, b, u, MS_PANELS, n, seed)


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
    if not s[1] > s[0]:
        raise CurveDomainError(
            f"first upper limit {ladder[0]} carries no mass above a = {a}: "
            "the panel density is undefined")
    values, stderrs = [], []
    converged = False
    for b, s_b in zip(ladder, s[1:]):
        # constant panel density in J, so quadrature drift cannot mask the tail
        k_b = max(MS_PANELS, math.ceil(MS_PANELS * (s_b - s[0]) / (s[1] - s[0])))
        res = _ms_integral(proc, weight, table, a, b, u, k_b, n, seed)
        values.append(res.y)
        stderrs.append(res.stderr)
        if len(values) >= 2:
            tol = max(1e-6, 3.0 * (stderrs[-1] + stderrs[-2]))
            if abs(values[-1] - values[-2]) < tol:
                converged = True
                break
    return ImproperIntegralResult(values, stderrs, values[-1], converged)
