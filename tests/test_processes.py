import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalcalc import (
    brownian_like,
    build_line,
    build_polyline,
    build_staircase,
    cosine_phase,
    estimate_correlation_grid,
    improper_ms_integral,
    linear_amplitude,
    ms_continuity_check,
    ms_derivative_check,
    ms_integral,
    ms_integral_precheck,
    second_generalized_derivative,
    white_noise,
)
from fractalcalc import _threads, processes
from fractalcalc import rng as frng
from fractalcalc.errors import CurveDomainError, ExistenceError, ResourceError
from fractalcalc.processes import (
    BUILTIN_FIXTURES,
    DEFAULT_EPS_LADDER,
    GRID_BLOCK,
    MS_PANELS,
    FractalProcess,
    _mass_panels,
    _path_sums,
)
from conftest import traced_peak
from constant import constant_process
from walks import lognormal_walk, underflow_polyline


@pytest.fixture(scope="module")
def unit_table():
    return build_staircase(build_line(0, 1))


@pytest.fixture(scope="module")
def long_table():
    return build_staircase(build_line(0, 30), grid_size=4096)


def amplitude_only(sigma2=1.0):
    """X(tau) = A for all tau: a single random level per realization."""
    sd = math.sqrt(sigma2)

    def draw(gen, j, n):
        a = gen.normal(0.0, sd, n)
        return np.repeat(a[:, None], len(j), axis=1)

    def corr(j1, j2):
        j1a, j2a = np.broadcast_arrays(
            np.asarray(j1, dtype=float), np.asarray(j2, dtype=float)
        )
        return np.full(j1a.shape, sigma2)

    return FractalProcess("amplitude-only", draw, corr)


def throwaway_then_amplitude(gen, j, n):
    """A * j, drawn after one throwaway normal per index: the stream
    position of A depends on how many indices are asked for."""
    gen.normal(size=len(j))
    return gen.normal(size=n)[:, None] * np.asarray(j, dtype=float)[None, :]


def amplitude_and_curvature(gen, j, n):
    """A * j + B * j^2, with A and B the first two columns of one
    (n, 2 + len(j)) normal draw: R(j1, j2) = j1 j2 + j1^2 j2^2."""
    j = np.asarray(j, dtype=float)
    z = gen.normal(size=(n, 2 + len(j)))
    return z[:, :1] * j + z[:, 1:2] * (j * j)


class TestEstimatedCorrelation:
    # cos(j1 + phi) cos(j2 + phi) = cos(j1 - j2) / 2 + cos(j1 + j2 + 2 phi) / 2,
    # so each product has variance 1/8 whatever the pair.
    N = 20000

    def test_estimates_within_band_of_analytic(self):
        pairs = [(0.0, 0.0), (0.2, 0.5), (1.0, 0.0), (0.3, 2.5), (3.0, 1.0)]
        j1, j2 = np.array(pairs).T
        j = np.unique(pairs)
        grid = estimate_correlation_grid(
            FractalProcess("cosine-estimated", cosine_phase().draw_paths), j, self.N, seed=4)
        r = grid.r[np.searchsorted(j, j1), np.searchsorted(j, j2)]
        band = 4.89 * math.sqrt(0.125 / self.N)
        np.testing.assert_array_less(np.abs(r - 0.5 * np.cos(j1 - j2)), band)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_estimate_neither_continuous_nor_differentiable(self, seed):
        proc = FractalProcess("wn-estimated", white_noise().draw_paths)
        chk = ms_derivative_check(proc, 0.4, n=10000, seed=seed)
        assert (chk.continuity.continuous, chk.differentiable) == (False, False)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("draw, limit", [
        (throwaway_then_amplitude, 1.0),
        (amplitude_and_curvature, 1.0 + 4.0 * 0.4 ** 2),
    ], ids=["throwaway", "curvature"])
    def test_column_dependent_samplers_are_differentiable(self, seed, draw, limit):
        # every R estimate of a check shares one draw, so the second
        # differences cancel whatever columns the sampler's stream depends on.
        # The limit E[(A + 2 B tau)^2] is estimated by a mean of n squares of
        # a normal with variance `limit`, whose variance is 2 limit^2.
        n = 10000
        chk = ms_derivative_check(FractalProcess("columns", draw), 0.4, n=n, seed=seed)
        assert chk.differentiable is True
        assert abs(chk.value - limit) <= 4.89 * math.sqrt(2.0 * limit ** 2 / n)


class TestSecondOrder:
    def test_builtin_fixtures_are_second_order(self):
        # the grid's diagonal is the estimated E[X(tau)^2]
        j = np.linspace(0.0, 2.0, 9)
        for proc in (linear_amplitude(1.0), cosine_phase(), white_noise(),
                     brownian_like()):
            assert np.all(np.isfinite(estimate_correlation_grid(proc, j, 4000).r.diagonal()))

    @pytest.mark.parametrize("make, name", [(linear_amplitude, "sigma2"),
                                            (white_noise, "variance")])
    def test_negative_variance_rejected_by_name(self, make, name):
        with pytest.raises(CurveDomainError, match=f"{name} must be non-negative"):
            make(-1.0)


def grid_pair(proc, j1, j2, n, seed):
    """(R, stderr) at (j1, j2), read from the grid over the one or two
    distinct indices by position; equal indices share a column."""
    j = np.unique([j1, j2])
    grid = estimate_correlation_grid(proc, j, n, seed)
    i1, i2 = np.searchsorted(j, [j1, j2])
    return grid.r[i1, i2], grid.stderr[i1, i2]


class TestCorrelationMC:
    def test_bilinear_fixture_within_three_sigma(self):
        r, stderr = grid_pair(linear_amplitude(1.5), 0.4, 0.7, 20000, seed=3)
        assert abs(r - 1.5 * 0.4 * 0.7) <= 3 * stderr

    def test_deterministic_unit_process(self):
        r, stderr = grid_pair(constant_process(1.0), 0.2, 0.9, 500, seed=1)
        assert r == 1.0
        assert stderr == 0.0

    def test_cosine_phase_diagonal_half(self):
        r, stderr = grid_pair(cosine_phase(), 0.5, 0.5, 20000, seed=3)
        assert abs(r - 0.5) <= 3 * stderr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_diagonal_reads_one_column(self, seed):
        # R(x, x) = E[Z^2] = 1
        r, stderr = grid_pair(white_noise(), 0.3, 0.3, 10000, seed=seed)
        assert abs(r - 1.0) <= 4.89 * stderr


def brownian_three_copies(gen, j, n):
    """The brownian-like draw as three (n, m) arrays: increments, their
    running sums, and the sums put back in the order of ``j``."""
    order = np.argsort(j)
    steps = np.diff(np.concatenate(([0.0], j[order])))
    incs = gen.normal(0.0, 1.0, (n, len(j))) * np.sqrt(steps)[None, :]
    walked = np.cumsum(incs, axis=1)
    out = np.empty_like(walked)
    out[:, order] = walked
    return out


class TestBrownianDraw:
    @pytest.mark.parametrize("j", [
        [0.1, 0.4, 0.9, 2.0], [0.9, 0.1, 2.0, 0.4], [0.5, 0.5, 0.2, 0.5, 0.0],
        [1.3, 0.0, 0.7, 1.3, 0.0, 0.2]], ids=["sorted", "unsorted", "repeated", "mixed"])
    def test_in_place_draw_matches_three_copies(self, j):
        j = np.asarray(j)
        got = brownian_like().draw_paths(frng.stream(4), j, 257)
        assert np.array_equal(got, brownian_three_copies(frng.stream(4), j, 257))

    def test_blocks_of_realizations_match_one_draw(self):
        # 8000 realizations of 37 indices span several blocks of draws, the
        # last one partial
        j = np.random.default_rng(1).random(37) * 3.0
        got = brownian_like().draw_paths(frng.stream(4), j, 8000)
        assert got.tobytes() == brownian_three_copies(frng.stream(4), j, 8000).tobytes()

    def test_path_sums_add_each_row_in_order(self):
        # the draw is index-major, and each realization's weighted row is
        # still summed as numpy sums a C-contiguous row
        table = build_staircase(build_line(0.0, 2.0))

        def weight(j, u):
            return np.cos(j + u)

        mids, w = _mass_panels(weight, table, 0.0, 1.8, 0.3, 256)
        got = _path_sums(brownian_like(), mids, w, 3000, 5)
        want = (brownian_three_copies(frng.stream(5, 7), mids, 3000) * w).sum(axis=1)
        assert got.tobytes() == want.tobytes()

    def test_sorted_and_shuffled_indices_give_the_same_columns(self):
        j = np.linspace(0.0, 1.5, 37)
        perm = np.random.default_rng(0).permutation(len(j))
        walked = brownian_like().draw_paths(frng.stream(4), j, 257)
        shuffled = brownian_like().draw_paths(frng.stream(4), j[perm], 257)
        assert shuffled.tobytes() == walked[:, perm].tobytes()

    def test_sorted_draw_holds_one_path_matrix(self):
        n, points = 8000, 100
        tracemalloc.start()
        try:
            brownian_like().draw_paths(frng.stream(4), np.linspace(0.0, 1.5, points), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * points * 8

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_grid_peak_memory(self, monkeypatch, cpus):
        # one (n, m) path array, drawn index-major so the grid reads its
        # transpose without a copy, one block of draws, and one block of
        # products per thread
        n, points = 8000, 100
        monkeypatch.setattr(_threads, "cpus", lambda: cpus)
        tracemalloc.start()
        try:
            estimate_correlation_grid(brownian_like(), np.linspace(0.0, 1.5, points), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.25 * n * points + cpus * GRID_BLOCK) * 8


class TestCorrelationGrid:
    def test_symmetry_diagonal_and_cauchy_schwarz(self):
        grid = estimate_correlation_grid(
            cosine_phase(), np.linspace(0.0, 2.0, 5), 5000, seed=11
        )
        np.testing.assert_allclose(grid.r, grid.r.T, atol=1e-12)
        assert np.all(np.diag(grid.r) >= 0.0)
        for i in range(5):
            for l in range(5):
                bound = math.sqrt(grid.r[i, i] * grid.r[l, l])
                slack = 3.0 * (grid.stderr[i, l] + grid.stderr[i, i] + grid.stderr[l, l])
                assert abs(grid.r[i, l]) <= bound + slack


    @pytest.mark.parametrize("make", [brownian_like, white_noise])
    @pytest.mark.parametrize("points, n", [(1, 2), (7, 3001), (40, 1200)])
    def test_bit_identical_to_numpy_std(self, make, points, n):
        # reference: each pair-product row through numpy's mean and std(ddof=1)
        proc, j = make(), np.linspace(0.1, 2.0, points)
        grid = estimate_correlation_grid(proc, j, n, seed=5)
        pt = np.ascontiguousarray(proc.draw_paths(frng.stream(5), j, n).T)
        r = np.empty((points, points))
        stderr = np.empty((points, points))
        for i in range(points):
            r[i, i:] = r[i:, i] = (pt[i] * pt[i:]).mean(axis=1)
            stderr[i, i:] = stderr[i:, i] = (
                (pt[i] * pt[i:]).std(axis=1, ddof=1) / math.sqrt(n))
        assert np.array_equal(grid.r, r)
        assert np.array_equal(grid.stderr, stderr)


class TestEstimatorPins:
    # Exact values from the pair-at-a-time estimators that the grid path
    # replaced. Each pair's mean and std(ddof=1) come out of the same draw
    # and the same ordered row sums, so nothing may move, not even a last bit.
    @pytest.mark.parametrize("make, j1, j2, n, seed, r, stderr", [
        (lambda: linear_amplitude(1.5), 0.4, 0.7, 20000, 3,
         0.4151901659212042, 0.004144034002925478),
        (cosine_phase, 0.5, 0.5, 20000, 3, 0.4984019990750552, 0.0024960985172558046),
        (white_noise, 0.3, 0.3, 10000, 1, 1.0097067456733593, 0.01411089027621673),
        (brownian_like, 0.9, 0.2, 5000, 7, 0.20354281339860406, 0.006671832152046627),
        (white_noise, 0.7, 0.3, 3000, 2, 0.0064959896939106605, 0.01739874252268519),
    ])
    def test_correlation_mc(self, make, j1, j2, n, seed, r, stderr):
        assert grid_pair(make(), j1, j2, n, seed) == (r, stderr)

    @pytest.mark.parametrize("make", [linear_amplitude, cosine_phase, white_noise,
                                      brownian_like])
    def test_derivative_check_reads_one_draw(self, make):
        draws = []

        def counted(gen, j, n):
            draws.append(len(j))
            return make().draw_paths(gen, j, n)

        tau, n = 0.3, 500
        res = ms_derivative_check(FractalProcess("counted", counted), tau, n=n, seed=2)
        # one draw over tau and the seven offsets, in ladder order
        assert draws == [8]
        j = np.array([tau, *(tau + eps for eps in DEFAULT_EPS_LADDER)])
        paths = make().draw_paths(frng.stream(2), j, n)
        want = [np.mean((paths[:, k] - paths[:, 0]) ** 2) / (eps * eps)
                for k, eps in enumerate(DEFAULT_EPS_LADDER, 1)]
        assert res.values == want
        # with its analytic R the same sampler is never called
        ms_derivative_check(FractalProcess("counted", counted, make().correlation), tau,
                            n=n, seed=2)
        assert draws == [8]

    @pytest.mark.parametrize("make, digest", [(brownian_like, "c8882c5ecd605d28"),
                                              (white_noise, "fbe07ef1a7d4934d")])
    def test_grid_stderr(self, make, digest):
        grid = estimate_correlation_grid(make(), np.linspace(0.1, 2.0, 20), 3001, seed=5)
        assert hashlib.sha256(grid.stderr.tobytes()).hexdigest()[:16] == digest


class TestGeneralizedSecondDerivative:
    def test_bilinear_collapses_to_sigma2(self):
        proc = linear_amplitude(2.0)
        res = second_generalized_derivative(proc.correlation, 0.0)
        for v in res.values:
            assert v == pytest.approx(2.0, rel=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-12)
        assert res.differentiable is True

    def test_cosine_analytic_oracle(self):
        # mixed second difference of cos(t-s)/2 at the diagonal -> 1/2
        res = second_generalized_derivative(lambda a, b: 0.5 * math.cos(a - b), 1.3)
        assert res.value == pytest.approx(0.5, abs=1e-7)
        assert res.differentiable is True

    def test_brownian_kernel_diverges(self):
        res = second_generalized_derivative(lambda a, b: min(a, b), 0.5)
        assert res.differentiable is False
        # difference quotient grows like 1/eps
        assert res.values[-1] == pytest.approx(1.0 / 1e-7, rel=1e-6)


class TestContinuity:
    def test_linear_amplitude_continuous_with_quadratic_decay(self):
        res = ms_continuity_check(linear_amplitude(1.0), 0.3, n=10000)
        assert res.continuous is True
        ratios = np.array(res.deltas[:-1]) / np.array(res.deltas[1:])
        np.testing.assert_allclose(ratios, 100.0, rtol=0.2)

    def test_cosine_phase_continuous(self):
        assert ms_continuity_check(cosine_phase(), 0.7, n=10000).continuous is True

    def test_white_noise_not_continuous(self):
        res = ms_continuity_check(white_noise(), 0.3, n=10000)
        assert res.continuous is False
        np.testing.assert_allclose(res.deltas, 2.0, rtol=0.2)

    def test_brownian_continuous(self):
        assert ms_continuity_check(brownian_like(), 0.3, n=10000).continuous is True

    @pytest.mark.parametrize("tau", [0.3, 1e3])
    @pytest.mark.parametrize("jump", [0.5, 1e-3, 1e-6])
    def test_brownian_with_a_jump_not_continuous(self, jump, tau):
        # D = eps + 2 jump levels off at the jump. At jump 1e-6 it starts to
        # level off only at the last rungs (p = 0.60, then 0.16): undecided
        b, w = brownian_like(), white_noise(jump)
        proc = FractalProcess("jump", None, lambda j1, j2: b.correlation(j1, j2)
                              + w.correlation(j1, j2))
        assert ms_continuity_check(proc, tau).continuous is (None if jump == 1e-6 else False)


class TestDerivativeCheck:
    def test_bilinear_differentiable_value_sigma2(self):
        chk = ms_derivative_check(linear_amplitude(2.0), 0.0, n=4000)
        assert chk.differentiable is True
        assert chk.value == pytest.approx(2.0, rel=1e-9)
        assert chk.continuity.continuous is True

    def test_cosine_differentiable_value_half(self):
        chk = ms_derivative_check(cosine_phase(), 0.4, n=4000)
        assert chk.differentiable is True
        assert chk.value == pytest.approx(0.5, abs=1e-6)

    def test_brownian_not_differentiable(self):
        chk = ms_derivative_check(brownian_like(), 0.5, n=4000)
        assert chk.differentiable is False

    def test_white_noise_not_differentiable_not_continuous(self):
        chk = ms_derivative_check(white_noise(), 0.3, n=4000)
        assert chk.differentiable is False
        assert chk.continuity.continuous is False

    def test_fewer_than_100_paths_refused_only_when_drawn(self):
        with pytest.raises(CurveDomainError, match="at least 100"):
            ms_derivative_check(scaled(cosine_phase(), 0, True), 0.3, n=50)
        assert ms_derivative_check(cosine_phase(), 0.3, n=50).differentiable is True

    def test_no_fixture_violates_implication(self):
        for proc in (linear_amplitude(1.0), cosine_phase(), white_noise(),
                     brownian_like()):
            chk = ms_derivative_check(proc, 0.25, n=4000)
            if chk.differentiable:
                assert chk.continuity.continuous is True


def scaled(proc, k, sampled=False):
    """``proc`` with X times 2^(k/2), so that R is 2^k R; a sampled copy
    keeps only the path sampler."""
    c = 2.0 ** k

    def draw(gen, j, n):
        return proc.draw_paths(gen, j, n) * math.sqrt(c)

    def corr(j1, j2):
        return c * proc.correlation(j1, j2)

    return FractalProcess(proc.name, draw, None if sampled else corr)


def fbm(hurst):
    """Fractional Brownian motion over J, drawn from the eigenvectors of its
    covariance at the queried indices."""

    def corr(j1, j2):
        j1, j2 = np.asarray(j1, dtype=float), np.asarray(j2, dtype=float)
        h = 2.0 * hurst
        return 0.5 * (np.abs(j1) ** h + np.abs(j2) ** h - np.abs(j1 - j2) ** h)

    def draw(gen, j, n):
        j = np.asarray(j, dtype=float)
        w, v = np.linalg.eigh(corr(j[:, None], j[None, :]))
        return gen.standard_normal((n, len(j))) @ (v * np.sqrt(np.clip(w, 0.0, None))).T

    return FractalProcess("fbm", draw, corr)


def integrated_brownian(j1, j2):
    """R of the integral of Brownian motion over J, s^2 t / 2 - s^3 / 6 for
    s = min(j1, j2) and t = max(j1, j2): differentiable, E[X'(tau)^2] = tau."""
    s = np.minimum(j1, j2)
    return s * s * np.maximum(j1, j2) / 2.0 - s ** 3 / 6.0


class TestUnitsOfX:
    # Scaling X by 2^(k/2) scales R and every rung of the mean-square ladder
    # by 2^k. The rules compare rungs with each other, so no verdict moves.
    K = range(-60, 61)

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("name, verdict", [
        ("linear-amplitude", (True, True)), ("cosine-phase", (True, True)),
        ("white-noise", (False, False)), ("brownian-like", (True, False))])
    def test_fixture_verdicts_at_every_scale(self, name, verdict, sampled):
        proc = BUILTIN_FIXTURES[name]()
        for k in self.K:
            chk = ms_derivative_check(scaled(proc, k, sampled), 0.3, n=2000)
            assert (chk.continuity.continuous, chk.differentiable) == verdict, k

    def test_brownian_kernel_diverges_at_every_scale(self):
        for k in self.K:
            assert not second_generalized_derivative(
                lambda a, b: min(a, b) * 2.0 ** k, 0.3).differentiable, k

    @pytest.mark.parametrize("proc, weight, exists", [
        (linear_amplitude(), lambda j, u: 1.0 / np.abs(j - u), False),
        (linear_amplitude(), lambda j, u: np.ones_like(j), True),
        (brownian_like(), lambda j, u: np.ones_like(j), True),
        (constant_process(0.0), lambda j, u: np.ones_like(j), True),
    ], ids=["singular-weight", "linear", "brownian", "zero"])
    def test_precheck_verdicts_at_every_scale(self, unit_table, proc, weight, exists):
        # 4^k R: every sum is scaled exactly, so a few k stand for all
        for k in range(-30, 31, 5):
            pre = ms_integral_precheck(scaled(proc, 2 * k), weight, unit_table, 0, 1, u=0.5)
            assert pre.exists == exists, k

    def test_singular_weight_at_tiny_variance_does_not_exist(self, unit_table):
        # the sums grow by about 9 per doubling of the panels at any sigma2
        for sigma2 in (1.0, 1e-10, 1e-16, 1e-20):
            pre = ms_integral_precheck(linear_amplitude(sigma2), lambda j, u: 1.0 / np.abs(j - u),
                                       unit_table, 0, 1, u=0.5)
            assert not pre.exists, sigma2


class TestFarAlongTheIndex:
    # Far along J an analytic rung's four terms cancel at R(tau, tau)'s scale;
    # the verdicts read only the rungs resolved above that rounding noise.
    # From tau = 1e3 on, linear-amplitude's D = eps^2 has fewer than three.
    TAUS = (0.3, 1e2, 1e3, 2770.888466262316, 6405.920704482398, 1e4, 1e6)

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("name, verdict", [
        ("linear-amplitude", (True, True)), ("cosine-phase", (True, True)),
        ("white-noise", (False, False)), ("brownian-like", (True, False))])
    def test_fixture_verdicts_at_every_tau(self, name, verdict, sampled):
        proc = scaled(BUILTIN_FIXTURES[name](), 0, sampled)
        for tau in self.TAUS:
            chk = ms_derivative_check(proc, tau, n=2000)
            undecided = name == "linear-amplitude" and not sampled and tau >= 1e3
            want = (None, None) if undecided else verdict
            assert (chk.continuity.continuous, chk.differentiable) == want, tau

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("hurst", [0.05, 0.2, 0.45])
    def test_fbm_verdicts_at_every_tau(self, hurst, sampled):
        # D = eps^(2H) falls by less than sqrt(10) per decade for H < 1/4
        proc = scaled(fbm(hurst), 0, sampled)
        for tau in self.TAUS:
            chk = ms_derivative_check(proc, tau, n=2000)
            assert (chk.continuity.continuous, chk.differentiable) == (True, False), tau


class TestExponentVerdicts:
    # Each verdict reads p = log10(D_k / D_{k+1}) at the last three resolved
    # rungs: 2H for fractional Brownian motion, 2 for a differentiable process.
    @pytest.mark.parametrize("tau", [0.5, 3.0])
    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
    def test_fbm_is_continuous_and_never_differentiable(self, hurst, tau):
        chk = second_generalized_derivative(fbm(hurst).correlation, tau)
        assert (chk.continuity.continuous, chk.differentiable) == (True, False)
        assert math.isnan(chk.value)

    @pytest.mark.parametrize("tau", [0.5, 3.0])
    def test_fbm_at_the_resolution_limit_reads_differentiable(self, tau):
        # p = 2H = 1.998 is within EXPONENT_TOL of 2
        chk = second_generalized_derivative(fbm(0.999).correlation, tau)
        assert (chk.continuity.continuous, chk.differentiable) == (True, True)

    @pytest.mark.parametrize("correlation, tau, limit", [
        (integrated_brownian, 0.5, 0.5), (integrated_brownian, 3.0, 3.0),
        (cosine_phase().correlation, 0.4, 0.5)], ids=["ibm-0.5", "ibm-3", "cosine-phase"])
    def test_differentiable_limits(self, correlation, tau, limit):
        chk = second_generalized_derivative(correlation, tau)
        assert (chk.continuity.continuous, chk.differentiable) == (True, True)
        assert chk.value == pytest.approx(limit, rel=1e-4)

    @pytest.mark.parametrize("n", [100, 400])
    def test_sampled_white_noise_at_few_paths_is_never_continuous(self, n):
        proc = FractalProcess("wn", white_noise().draw_paths)
        for seed in range(10):
            assert ms_continuity_check(proc, 0.3, n=n, seed=seed).continuous is not True, seed

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_zero_ladder_is_continuous_and_differentiable(self, value, sampled):
        chk = ms_derivative_check(scaled(constant_process(value), 0, sampled), 0.3)
        assert (chk.continuity.continuous, chk.differentiable, chk.value) == (True, True, 0.0)

    def test_band_too_wide_to_tell_0_from_2_is_undecided(self):
        # one path in 100 carries D = eps^1.5, so each SE is D's size and the
        # bands (1.85) hold p = 1.5 both above 2 - band and below band
        def draw(gen, j, n):
            spike = np.zeros((n, 1))
            spike[0] = 1.0
            return spike * np.abs(np.asarray(j) - j[0]) ** 0.75

        chk = ms_derivative_check(FractalProcess("spike", draw), 0.3, n=100)
        assert (chk.continuity.continuous, chk.differentiable) == (None, None)

    def test_sampled_cosine_phase_decides(self):
        # the benchmark's library op: a drawn cosine-phase at n = 10000
        proc = FractalProcess("cosine-estimated", cosine_phase().draw_paths)
        gen = np.random.default_rng(0)
        for seed in range(20):
            tau = float(gen.uniform(0.1, 0.9))
            chk = ms_derivative_check(proc, tau, n=10000, seed=seed)
            assert (chk.continuity.continuous, chk.differentiable) == (True, True), (tau, seed)


class TestLinearityOfQuotients:
    def test_combination_matches_parts(self):
        # shared streams couple the three processes pathwise
        a, b = 1.7, -0.6
        jvals = np.array([0.4, 0.4 + 1e-3])
        x = linear_amplitude(1.0)
        y = cosine_phase()
        seed = 21
        px = x.draw_paths(frng.stream(seed, 0), jvals, 4000)
        py = y.draw_paths(frng.stream(seed, 1), jvals, 4000)
        combo = a * px + b * py
        qx = (px[:, 1] - px[:, 0]) / 1e-3
        qy = (py[:, 1] - py[:, 0]) / 1e-3
        qc = (combo[:, 1] - combo[:, 0]) / 1e-3
        resid = qc - (a * qx + b * qy)
        stderr = resid.std(ddof=1) / math.sqrt(len(resid)) + 1e-12
        assert abs(resid.mean()) <= 3 * stderr
        np.testing.assert_allclose(qc, a * qx + b * qy, atol=1e-9)


class TestMsIntegral:
    def test_unit_process_telescopes(self, unit_table):
        res = ms_integral(constant_process(1.0), lambda j, u: np.ones_like(j),
                          unit_table, 0, 1, n=500, seed=1)
        assert res.y == pytest.approx(1.0, abs=1e-12)
        assert res.stderr == pytest.approx(0.0, abs=1e-12)

    def test_random_amplitude_moments(self, unit_table):
        res = ms_integral(amplitude_only(1.0), lambda j, u: np.ones_like(j),
                          unit_table, 0, 1, n=20000, seed=2)
        assert abs(res.y) <= 3 * res.stderr
        second = (res.realizations ** 2).mean()
        second_se = (res.realizations ** 2).std(ddof=1) / math.sqrt(len(res.realizations))
        assert abs(second - 1.0) <= 3 * second_se

    def test_expectation_commutes_with_integral(self, unit_table):
        # X = A J + 1 with E[A] = 0: E[Y] = integral of E[X] = mass
        def draw(gen, j, n):
            amp = gen.normal(0.0, 1.0, n)
            return amp[:, None] * np.asarray(j)[None, :] + 1.0

        def corr(j1, j2):
            return np.asarray(j1) * np.asarray(j2) + 1.0

        proc = FractalProcess("affine", draw, corr)
        res = ms_integral(proc, lambda j, u: np.ones_like(j), unit_table,
                          0, 1, n=20000, seed=4)
        assert abs(res.y - 1.0) <= 3 * res.stderr + 1e-9

    def test_divergent_weight_rejected(self, unit_table):
        with pytest.raises(ExistenceError):
            ms_integral(amplitude_only(1.0),
                        lambda j, u: 1.0 / np.maximum(j, 1e-300),
                        unit_table, 0, 1, n=500, seed=2)

    def test_precheck_verdict_matches_partial_sum_behavior(self, unit_table):
        # the pre-check and the empirical tail of partial sums must agree
        fixtures = [
            (constant_process(1.0), lambda j, u: np.ones_like(j)),
            (amplitude_only(1.0), lambda j, u: np.ones_like(j)),
            (white_noise(1.0), lambda j, u: np.ones_like(j)),
            (amplitude_only(1.0), lambda j, u: 1.0 / np.maximum(j, 1e-300)),
        ]
        # the same processes without an analytic R take the estimated branch
        fixtures += [(FractalProcess(proc.name, proc.draw_paths), weight)
                     for proc, weight in fixtures]
        for proc, weight in fixtures:
            pre = ms_integral_precheck(proc, weight, unit_table, 0, 1, n=4000, seed=6)
            sums = []
            for k in (64, 128, 256):
                t = np.linspace(0, 1, k + 1)
                s = np.asarray(unit_table.value(t))
                mids = np.asarray(unit_table.value(0.5 * (t[:-1] + t[1:])))
                coeff = np.asarray(weight(mids, 0.0)) * np.diff(s)
                paths = proc.draw_paths(frng.stream(6, 1), mids, 4000)
                sums.append(paths @ coeff)
            gaps = [
                float(np.mean((sums[i + 1] - sums[i]) ** 2)) for i in range(2)
            ]
            empirically_cauchy = gaps[1] <= max(0.75 * gaps[0], 1e-9)
            assert pre.exists == empirically_cauchy, proc.name


@pytest.mark.parametrize("make, weight", [
    (constant_process, lambda j, u: np.ones_like(j)),
    (amplitude_only, lambda j, u: np.ones_like(j)),
    (white_noise, lambda j, u: np.ones_like(j)),
    (amplitude_only, lambda j, u: 1.0 / np.maximum(j, 1e-300)),
    (cosine_phase, lambda j, u: np.cos(j - u)),
], ids=["constant", "amplitude", "white-noise", "amplitude-divergent", "cosine"])
def test_estimated_precheck_sums_match_gram_form(unit_table, make, weight):
    # reference: w (P^T P / n) w over the k-by-k sample correlation matrix
    proc = FractalProcess("estimated", make().draw_paths)
    pre = ms_integral_precheck(proc, weight, unit_table, 0, 1, u=0.3, n=3000, seed=8)
    for kk, got in zip((128, 256, 512), pre.sums):
        j = np.linspace(0.0, 1.0, kk + 1)
        mids = 0.5 * (j[:-1] + j[1:])
        w = np.asarray(weight(mids, 0.3), dtype=float) * np.diff(j)
        paths = proc.draw_paths(frng.stream(8, 7), mids, 3000)
        want = float(w @ (paths.T @ paths / 3000) @ w)
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), edges=st.integers(8, 256),
       dim=st.sampled_from([2, 3]), a=st.floats(0.0, 0.4), b=st.floats(0.6, 1.0))
def test_linear_amplitude_integral_is_exact_on_walks(seed, edges, dim, a, b):
    # X = A J integrates to A (S(b)^2 - S(a)^2) / 2 on any polyline
    table = build_staircase(lognormal_walk(seed, edges, dim))
    amplitudes = []

    def draw(gen, j, n):
        amp = gen.normal(0.0, 1.0, n)
        amplitudes.append(amp)
        return amp[:, None] * np.asarray(j)[None, :]

    proc = FractalProcess("linear-amplitude", draw, linear_amplitude(1.0).correlation)
    res = ms_integral(proc, lambda j, u: np.ones_like(j), table, a, b, n=50, seed=seed)
    sa, sb = table.value([a, b])
    np.testing.assert_allclose(res.realizations / amplitudes[-1], (sb ** 2 - sa ** 2) / 2.0,
                               rtol=1e-12)


class TestImproperIntegral:
    def test_exponential_weight_converges_to_one(self, long_table):
        res = improper_ms_integral(
            constant_process(1.0), lambda j, u: np.exp(-j), long_table,
            0.0, [5, 10, 15, 20, 25, 30], n=400, seed=5,
        )
        assert res.converged
        assert res.y == pytest.approx(1.0, abs=1e-3)

    def test_laplace_weight_halves(self, long_table):
        res = improper_ms_integral(
            constant_process(1.0), lambda j, u: np.exp(-u * j), long_table,
            0.0, [5, 10, 15, 20, 25, 30], u=2.0, n=400, seed=5,
        )
        assert res.converged
        assert res.y == pytest.approx(0.5, abs=1e-3)

    def test_constant_weight_flagged_divergent(self, long_table):
        res = improper_ms_integral(
            constant_process(1.0), lambda j, u: np.ones_like(j), long_table,
            0.0, [5, 10, 15, 20, 25, 30], n=300, seed=5,
        )
        assert not res.converged
        np.testing.assert_allclose(res.values, [5, 10, 15, 20, 25, 30], rtol=1e-9)

    def test_ladder_validation(self, long_table):
        with pytest.raises(CurveDomainError):
            improper_ms_integral(constant_process(1.0),
                                 lambda j, u: np.ones_like(j), long_table,
                                 0.0, [10, 5], n=300)

    def test_ladder_starts_above_a(self, long_table):
        # the first rung's mass span sets the panel density
        with pytest.raises(CurveDomainError):
            improper_ms_integral(constant_process(1.0),
                                 lambda j, u: np.ones_like(j), long_table,
                                 0.0, [0, 5], n=300)


class TestSharedDraw:
    # The estimate of a k-panel integral reads the pre-check's rung of k
    # panels, which is drawn from stream 7, instead of drawing it again.

    @staticmethod
    def spied(proc, widths):
        """``proc`` without its analytic R, recording each draw's width."""
        def draw(gen, j, n):
            widths.append(len(j))
            return proc.draw_paths(gen, j, n)

        return FractalProcess(proc.name, draw)

    def test_estimate_reads_the_precheck_rung(self, unit_table):
        widths = []
        weight = lambda j, u: np.cos(j - u)
        res = ms_integral(self.spied(cosine_phase(), widths), weight, unit_table,
                          0, 1, u=0.3, n=500, seed=11)
        assert widths == [MS_PANELS // 2, MS_PANELS, 2 * MS_PANELS]
        j = np.linspace(0.0, 1.0, MS_PANELS + 1)
        mids = 0.5 * (j[:-1] + j[1:])
        paths = cosine_phase().draw_paths(frng.stream(11, 7), mids, 500)
        want = np.multiply(paths, weight(mids, 0.3) * np.diff(j), out=paths).sum(axis=1)
        assert res.realizations.tobytes() == want.tobytes()
        assert res.precheck.sums[1] == np.mean(res.realizations ** 2)

    def test_integral_runs_the_public_precheck(self, unit_table, monkeypatch):
        # ms_integral's pre-check is ms_integral_precheck, called by its
        # module name, so a wrapper installed there sees it
        seen = []
        real = processes.ms_integral_precheck

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(processes, "ms_integral_precheck", spy)
        weight = lambda j, u: np.cos(j - u)
        res = ms_integral(cosine_phase(), weight, unit_table, 0, 1, u=0.3, n=500, seed=11)
        assert len(seen) == 1 and seen[0] is res.precheck and res.precheck.drawn == {}
        drawn = ms_integral(self.spied(cosine_phase(), []), weight, unit_table,
                            0, 1, u=0.3, n=500, seed=11).precheck.drawn
        alone = real(self.spied(cosine_phase(), []), weight, unit_table, 0, 1, 0.3, 500, 11)
        rungs = [MS_PANELS // 2, MS_PANELS, 2 * MS_PANELS]
        assert list(drawn) == list(alone.drawn) == rungs
        for k, total in zip(rungs, alone.sums):
            assert drawn[k].tobytes() == alone.drawn[k].tobytes()
            assert total == np.mean(drawn[k] ** 2)

    def test_improper_rungs_draw_only_past_the_precheck(self, long_table):
        # first-rung masses 5, 10, 20 take 256, 512 and 1024 panels: the
        # first two are pre-check rungs, the third is drawn once more
        widths = []
        res = improper_ms_integral(self.spied(constant_process(1.0), widths),
                                   lambda j, u: np.ones_like(j), long_table,
                                   0.0, [5, 10, 20], n=300, seed=5)
        rungs = [MS_PANELS // 2, MS_PANELS, 2 * MS_PANELS]
        assert widths == [*rungs, *rungs, *rungs, 4 * MS_PANELS]
        np.testing.assert_allclose(res.values, [5, 10, 20], rtol=1e-9)

    @pytest.mark.parametrize("first, n", [(0.001, 100), (0.01, 2000)])
    def test_oversized_ladder_is_refused_before_any_draw(self, unit_table, first, n):
        # the last rung takes 256 panels per first-rung span: 25.6M and
        # 51.2M path values, past the cap of 2^24
        widths = []
        with pytest.raises(ResourceError, match=f"x {n} paths; cap is {2 ** 24} path values"):
            improper_ms_integral(self.spied(linear_amplitude(1.0), widths),
                                 lambda j, u: np.ones_like(j), unit_table,
                                 0.0, [first, 1.0], n=n)
        assert widths == []

    def test_ladder_under_the_cap_runs(self, unit_table):
        widths = []
        improper_ms_integral(self.spied(linear_amplitude(1.0), widths),
                             lambda j, u: np.ones_like(j), unit_table,
                             0.0, [0.01, 1.0], n=100)
        assert widths[-1] == pytest.approx(100 * MS_PANELS, rel=1e-3)

    def test_analytic_ladder_peak_memory(self, long_table):
        # the pre-check's rungs stay at 128, 256 and 512 panels whatever a
        # rung's k; rungs relative to k would build 3072-square R matrices
        peak = traced_peak(lambda: improper_ms_integral(
            constant_process(1.0), lambda j, u: np.ones_like(j), long_table,
            0.0, [5, 10, 15, 20, 25, 30], n=300, seed=5))
        assert peak <= 6 * 2 ** 20


@pytest.mark.parametrize("curve, ladder", [
    (underflow_polyline, [0.5, 1.0]),
    (lambda: build_polyline([0, .25, .5, 1], [[0, 0], [1e-200, 0], [.5, 0], [1, 0]], 2.0),
     [0.25, 1.0]),
], ids=["all-zero", "zero-first-rung"])
def test_massless_first_rung_is_refused(curve, ladder):
    with pytest.warns(UserWarning, match="flat cells"):
        table = build_staircase(curve(), alpha=2.0)
    with pytest.raises(CurveDomainError,
                       match=f"first upper limit {ladder[0]} .* panel density is undefined"):
        improper_ms_integral(constant_process(1.0), lambda j, u: np.ones_like(j), table,
                             0.0, ladder, n=300)


@pytest.mark.parametrize("call", [ms_integral_precheck, ms_integral])
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.5, 0.5)], ids=["reversed", "empty"])
def test_interval_must_increase(unit_table, call, a, b):
    with pytest.raises(CurveDomainError, match="needs a < b"):
        call(linear_amplitude(1.0), lambda j, u: np.ones_like(j), unit_table, a, b)


@pytest.mark.parametrize("call", [
    lambda table: ms_integral(linear_amplitude(1.0), lambda j, u: np.ones_like(j),
                              table, 0.0, 1.0, n=1),
    lambda table: improper_ms_integral(linear_amplitude(1.0),
                                       lambda j, u: np.ones_like(j), table,
                                       0.0, [0.5, 1.0], n=1),
], ids=["ms_integral", "improper_ms_integral"])
def test_one_realization_has_no_standard_error(unit_table, call):
    with pytest.raises(CurveDomainError, match="at least 2 realizations"):
        call(unit_table)
