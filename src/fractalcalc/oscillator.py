"""Series solution and truncated moments for the random-frequency
oscillator on a curve.

The equation is the second-order mean-square oscillator driven in the
mass coordinate: the second derivative plus A^2 times the solution is
zero, with random initial data X0, X1 and the squared amplitude A^2
either Beta-distributed or a fixed number. The power-series ansatz in
J gives the two-term recurrence c[m+2] = -A^2 c[m] / ((m+2)(m+1)),
so the closed form is X0 cos(A J) + (X1 / A) sin(A J).

Truncation convention: order N keeps summation index m = 0..N in each
of the even and odd sums (polynomial degree 2N, resp. 2N+1).
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _threads
from . import rng as _rng
from .errors import CurveDomainError

DEFAULT_ORDER = 20

#: Path values that ``mc_solution_moments`` holds at once, shared out as
#: one slab per thread. A slab sets how many grid columns a chunk takes,
#: and it is reduced a sixteenth at a time, so each block stays in cache.
MC_SLAB_VALUES = 2 ** 21


def beta_raw_moment(mu: float, nu: float, m: int) -> float:
    """E[B^m] for B ~ Beta(mu, nu): the product of (mu+k)/(mu+nu+k)."""
    if not (0.0 < mu < math.inf and 0.0 < nu < math.inf):
        raise CurveDomainError("Beta parameters must be positive and finite")
    if m < 0:
        raise CurveDomainError("moment order must be non-negative")
    return math.prod(((mu + k) / (mu + nu + k) for k in range(m)), start=1.0)


class BetaSquaredAmplitude:
    """A^2 ~ Beta(mu, nu); supplies raw moments and draws."""

    def __init__(self, mu: float, nu: float):
        if not (0.0 < mu < math.inf and 0.0 < nu < math.inf):
            raise CurveDomainError("Beta parameters must be positive and finite")
        self.mu = float(mu)
        self.nu = float(nu)

    def moment(self, m: int) -> float:
        return beta_raw_moment(self.mu, self.nu, m)

    def sample(self, gen, size: int) -> np.ndarray:
        return gen.beta(self.mu, self.nu, size)

    def describe(self) -> str:
        return f"beta({self.mu:g},{self.nu:g})"


class FixedSquaredAmplitude:
    """Deterministic A^2 = value (covers settings a Beta variable cannot
    reach, e.g. E[A^2] = 4)."""

    def __init__(self, value: float):
        if not 0.0 <= value < math.inf:
            raise CurveDomainError("a squared amplitude must be finite and non-negative")
        self.value = float(value)

    def moment(self, m: int) -> float:
        return self.value ** m

    def sample(self, gen, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def describe(self) -> str:
        return f"fixed({self.value:g})"


@dataclass
class MomentSpec:
    """Joint moments of the initial data plus the A^2 moment provider.

    X0 and X1 may be correlated through ex01; A^2 is independent of both.
    """

    ex0: float
    ex1: float
    ex0_sq: float
    ex1_sq: float
    ex01: float
    a2: object

    def __post_init__(self):
        slack = 1e-12
        # E[v v^T], v = (1, X0, X1), is PSD under every joint law. It is
        # judged in correlation form D^-1/2 M D^-1/2 over the rows with a
        # positive diagonal, so the verdict does not change with the units
        # of X; a zero second moment forces the rest of its row to zero
        m = np.array([[1.0, self.ex0, self.ex1], [self.ex0, self.ex0_sq, self.ex01],
                      [self.ex1, self.ex01, self.ex1_sq]])
        d = m.diagonal()
        live = d > 0.0
        r = np.sqrt(d[live])
        if not (np.all(d >= 0.0) and not np.any(m[~live])
                and np.linalg.eigvalsh(m[np.ix_(live, live)] / np.outer(r, r)).min() >= -slack):
            raise CurveDomainError(
                "no joint law of (X0, X1) has these moments: "
                "[[1, ex0, ex1], [ex0, ex0sq, ex01], [ex1, ex01, ex1sq]] is not PSD")
        if abs(self.a2.moment(0) - 1.0) > slack:
            raise CurveDomainError("A^2 moment provider must return 1 at order 0")


def _series_weights(spec: MomentSpec, order: int, top: int):
    """E[(A^2)^k] for k = 0..top, and k! as a float for k = 0..2*order+1.
    A provider's moment can cost O(k) (a Beta moment is a product), so the
    coefficient builders ask once per order rather than once per term;
    every builder starts here. Series weights divide by one factorial at a
    time, so no intermediate leaves the float range below order 85."""
    if order < 0:
        raise CurveDomainError("truncation order must be non-negative")
    moments = [spec.a2.moment(k) for k in range(top + 1)]
    if 2 * order + 1 > 170:
        raise CurveDomainError("truncation order too high: 171! exceeds the float range")
    fact = [float(math.factorial(k)) for k in range(2 * order + 2)]
    return moments, fact


def mean_coefficients(spec: MomentSpec, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Polynomial coefficients (in J) of the truncated ensemble mean."""
    moments, fact = _series_weights(spec, order, order)
    coeffs = np.zeros(2 * order + 2)
    for m in range(order + 1):
        am = moments[m]
        sign = -1.0 if m % 2 else 1.0
        coeffs[2 * m] += spec.ex0 * sign * am / fact[2 * m]
        coeffs[2 * m + 1] += spec.ex1 * sign * am / fact[2 * m + 1]
    return coeffs


def _paired_coefficients(spec: MomentSpec, order: int, diagonal: bool) -> np.ndarray:
    """Second-moment coefficients from pairing term n of the series with
    term m of a second copy, n, m = 0..order in row order, each weighted by
    (-1)^(n+m) E[(A^2)^(n+m)]: every even-odd pairing, and the even-even and
    odd-odd ones where n == m or not ``diagonal``."""
    moments, fact = _series_weights(spec, order, 2 * order)
    coeffs = np.zeros(4 * order + 3)
    for n in range(order + 1):
        for m in range(order + 1):
            k = n + m
            w = -moments[k] if k % 2 else moments[k]
            if n == m or not diagonal:
                coeffs[2 * k] += spec.ex0_sq * w / fact[2 * n] / fact[2 * m]
                coeffs[2 * k + 2] += spec.ex1_sq * w / fact[2 * n + 1] / fact[2 * m + 1]
            coeffs[2 * k + 1] += 2.0 * spec.ex01 * w / fact[2 * n] / fact[2 * m + 1]
    return coeffs


def second_moment_coefficients(spec: MomentSpec, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Polynomial coefficients of the truncated second moment: the paper's
    diagonal-plus-cross expansion, the termwise square
    ``squared_series_coefficients`` without its n != m even-even and
    odd-odd pairings. The two agree through order J but differ from J^2 on."""
    return _paired_coefficients(spec, order, diagonal=True)


def squared_series_coefficients(spec: MomentSpec, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Second-moment coefficients from squaring the truncated series
    termwise (all even-even and odd-odd pairings kept): with A^2
    independent of (X0, X1) this is the exact E[X_N(J)^2] of the order-N
    series. With deterministic data it collapses to the squared mean."""
    return _paired_coefficients(spec, order, diagonal=False)


@dataclass
class SeriesSolution:
    """Truncated moment polynomials in the mass coordinate."""

    order: int
    mean_coeffs: np.ndarray
    second_coeffs: np.ndarray

    def mean(self, j):
        return np.polynomial.polynomial.polyval(np.asarray(j, dtype=float), self.mean_coeffs)

    def second_moment(self, j):
        return np.polynomial.polynomial.polyval(np.asarray(j, dtype=float), self.second_coeffs)

    def variance(self, j):
        """Pointwise E[X^2] - E[X]^2. Truncation can push small-J values
        slightly negative; a dip beyond 1e-9 max(|E[X^2]|, E[X]^2) at the
        same J is reported, not fatal."""
        second, mean_sq = self.second_moment(j), self.mean(j) ** 2
        var = second - mean_sq
        if np.any(var < -1e-9 * np.maximum(np.abs(second), mean_sq)):
            warnings.warn(
                f"truncated variance dips to {float(np.min(var)):.3e}; raise the order",
                stacklevel=2,
            )
        return var


def solve_series(spec: MomentSpec, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """The order-N series' ensemble mean and its exact second moment
    E[X_N(J)^2] (``squared_series_coefficients``)."""
    return SeriesSolution(
        order, mean_coefficients(spec, order), squared_series_coefficients(spec, order)
    )


def closed_form_sample(a: float, x0: float, x1: float, j):
    """Pathwise solution x0*cos(a j) + (x1/a)*sin(a j).

    At a = 0 the sine term degenerates: with x1 = 0 the solution is the
    constant x0, otherwise the limit form x0 + x1*j is returned (with a
    warning, since the division was removable only in the limit).
    """
    if not all(map(math.isfinite, (a, x0, x1))):
        raise CurveDomainError(f"a, x0 and x1 must be finite, got {a}, {x0}, {x1}")
    j = np.asarray(j, dtype=float)
    if a == 0.0:
        if x1 == 0.0:
            return np.full_like(j, x0)
        warnings.warn("a = 0 with x1 != 0: returning the limit form x0 + x1*j",
                      stacklevel=2)
        return x0 + x1 * j
    return x0 * np.cos(a * j) + (x1 / a) * np.sin(a * j)


def deterministic_initial_data(x0: float, x1: float):
    """Initial-data sampler for fixed starting values."""

    def draw(gen, size):
        return np.full(size, x0), np.full(size, x1)

    return draw


@dataclass
class EnsembleMoments:
    mean: np.ndarray
    second: np.ndarray
    mean_stderr: np.ndarray
    second_stderr: np.ndarray
    n: int


def _carry_sum(block, acc):
    """Column sums of the rows summed so far (``acc``, None before the
    first block) followed by the rows of ``block``, added one row at a
    time in order, as numpy's axis-0 sum adds the rows of one matrix.
    Overwrites ``block[0]``."""
    if acc is not None:
        block[0] += acc
    return block.sum(axis=0)


def mc_solution_moments(a2_provider, initial_sampler, n: int, seed: int,
                        j_values) -> EnsembleMoments:
    """Monte Carlo moments of the pathwise closed form.

    Draws (A^2, X0, X1) with A^2 independent of the initial data,
    evaluates the closed form per path, and returns ensemble mean and
    second-moment curves with their standard errors.

    The grid is split into groups, one per CPU the process may use, and
    each thread walks its group in chunks of near-equal width, as few as
    keep every chunk's paths within its share of ``MC_SLAB_VALUES``.
    Groups and chunks are at least two columns wide. A thread fills its
    one slab with a chunk's n paths, reduces it a block of rows at a time
    and writes the chunk's curves before it takes the next chunk, so the
    peak does not depend on the grid size. Each mean is one pass of column
    sums carried from block to block; each standard error is one more pass
    of squared deviations from that mean. The column sums add the rows in
    order, so for grids of two or more points the four curves are
    bit-identical to ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` of the
    whole path matrix, whatever the group and chunk widths. A one-point
    grid may differ in the last bits, since numpy sums a single column
    pairwise.

    When every X1 is zero and no |X0| is below 2^-900, the sine term is
    left out and no sine is taken. It would add a signed zero to x0 cos(aJ),
    which cannot change that product's bits since it is never zero: |cos|
    of a double stays above 2^-62.
    """
    if n < 2:
        raise CurveDomainError("need at least 2 realizations")
    j = np.asarray(j_values, dtype=float)
    if len(j) < 1:
        raise CurveDomainError("Monte Carlo grid needs at least one index point")
    if not np.all(np.isfinite(j)):
        raise CurveDomainError(f"Monte Carlo grid index {j[~np.isfinite(j)][0]} is not finite")
    m = len(j)
    groups = _runs(0, m, _threads.workers(n * m))
    share = MC_SLAB_VALUES // (len(groups) - 1)
    # as few chunks as keep each within the columns a thread's share holds
    cols = max(2, share // n)
    chunks = [_runs(lo, hi, -(-(hi - lo) // cols)) for lo, hi in zip(groups, groups[1:])]
    width = max(hi - lo for edges in chunks for lo, hi in zip(edges, edges[1:]))
    rows = min(n, max(1, share // 16 // width))
    gen = _rng.stream(seed, 0)
    a2 = np.asarray(a2_provider.sample(gen, n), dtype=float)
    x0, x1 = initial_sampler(_rng.stream(seed, 1), n)
    a = np.sqrt(a2)
    zero = a == 0.0
    a_div = np.where(zero, 1.0, a)
    # the sine term would add a signed zero to a normal x0 cos(aJ)
    if not np.any(x1) and np.all(np.abs(x0) >= 2.0 ** -900):
        x1 = None
    # every buffer comes from the calling thread (see _threads.run)
    slabs = np.empty((len(chunks), n * width))
    scratch = np.empty((len(chunks), rows * width))
    out = np.empty((4, m))
    _threads.run([
        partial(_chunk_moments, edges, rows, j, a, a_div, zero, x0, x1, slab, block, out)
        for edges, slab, block in zip(chunks, slabs, scratch)])
    return EnsembleMoments(*out, n)


def _runs(lo, hi, parts):
    """Edges of ``parts`` runs of near-equal width over columns lo..hi-1,
    fewer where a run would be one column wide: numpy sums a single
    column pairwise, not in row order."""
    parts = max(1, min(parts, (hi - lo) // 2))
    return [lo + (hi - lo) * k // parts for k in range(parts + 1)]


def _chunk_moments(edges, rows, j, a, a_div, zero, x0, x1, slab, scratch, out):
    """``_column_moments`` of each chunk between consecutive ``edges``, in
    the flat buffers ``slab`` (n rows of paths) and ``scratch`` (``rows``
    rows), each viewed as wide as the chunk."""
    n = len(a)
    for lo, hi in zip(edges, edges[1:]):
        w = hi - lo
        _column_moments(j[lo:hi], a, a_div, zero, x0, x1, slab[:n * w].reshape(n, w),
                        scratch[:rows * w].reshape(rows, w), out[:, lo:hi])


def _column_moments(j, a, a_div, zero, x0, x1, paths, scratch, out):
    """Mean, second moment and their standard errors at the indices ``j``
    into the rows of ``out``. ``paths`` (n, len(j)) receives the paths;
    ``scratch`` holds one block of rows. ``x1`` None leaves the sine term
    out."""
    n = len(paths)
    blocks = [slice(lo, min(lo + len(scratch), n)) for lo in range(0, n, len(scratch))]
    total = total_sq = None
    for rows in blocks:
        blk, tmp = paths[rows], scratch[:rows.stop - rows.start]
        # x0 cos(a j) + x1 sin(a j) / a, with the a -> 0 limit j for the sine term
        np.multiply.outer(a[rows], j, out=tmp)
        if x1 is None:
            np.cos(tmp, out=tmp)
            tmp *= x0[rows, None]
            blk[...] = tmp
        else:
            np.sin(tmp, out=blk)
            blk /= a_div[rows, None]
            blk[zero[rows]] = j
            blk *= x1[rows, None]
            np.cos(tmp, out=tmp)
            tmp *= x0[rows, None]
            blk += tmp
            tmp[...] = blk  # _carry_sum overwrites its first row
        total = _carry_sum(tmp, total)
        np.square(blk, out=tmp)
        total_sq = _carry_sum(tmp, total_sq)
    mean = total / n
    second = total_sq / n
    dev = dev_sq = None
    for rows in blocks:
        blk, tmp = paths[rows], scratch[:rows.stop - rows.start]
        np.subtract(blk, mean, out=tmp)
        np.square(tmp, out=tmp)
        dev = _carry_sum(tmp, dev)
        np.square(blk, out=tmp)
        tmp -= second
        np.square(tmp, out=tmp)
        dev_sq = _carry_sum(tmp, dev_sq)
    out[0], out[1] = mean, second
    out[2] = np.sqrt(dev / (n - 1)) / math.sqrt(n)
    out[3] = np.sqrt(dev_sq / (n - 1)) / math.sqrt(n)
