import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalcalc import (
    brownian_like,
    build_line,
    build_staircase,
    correlation_mc,
    cosine_phase,
    estimate_correlation_grid,
    improper_ms_integral,
    linear_amplitude,
    ms_continuity_check,
    ms_derivative_check,
    ms_integral,
    ms_integral_precheck,
    product_limit_check,
    second_generalized_derivative,
    white_noise,
)
from fractalcalc import rng as frng
from fractalcalc.errors import CurveDomainError, ExistenceError
from fractalcalc.processes import FractalProcess, constant_process
from walks import lognormal_walk


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


class TestCorrelationOrEstimate:
    # cos(j1 + phi) cos(j2 + phi) = cos(j1 - j2) / 2 + cos(j1 + j2 + 2 phi) / 2,
    # so each product has variance 1/8 whatever the pair.
    N = 20000

    def estimated(self):
        proc = FractalProcess("cosine-estimated", cosine_phase().draw_paths)
        return proc.correlation_or_estimate(n=self.N, seed=4)

    def test_scalar_in_float_out_and_arrays_broadcast(self):
        corr = self.estimated()
        value = corr(0.2, 0.5)
        assert type(value) is float
        grid = corr(np.array([0.2, 0.7, 1.5])[:, None], np.array([0.5, 0.0])[None, :])
        assert grid.shape == (3, 2)
        assert grid[0, 0] == value  # same stream for the first pair

    def test_estimates_within_band_of_analytic(self):
        corr = self.estimated()
        pairs = [(0.0, 0.0), (0.2, 0.5), (1.0, 0.0), (0.3, 2.5), (3.0, 1.0)]
        j1, j2 = np.array(pairs).T
        band = 4.89 * math.sqrt(0.125 / self.N)
        np.testing.assert_array_less(np.abs(corr(j1, j2) - 0.5 * np.cos(j1 - j2)), band)

    def test_analytic_correlation_returned_as_is(self):
        proc = cosine_phase()
        assert proc.correlation_or_estimate() is proc.correlation

    def test_white_noise_estimate_shares_draws_at_equal_indices(self):
        # Z^2 has variance 2; distinct indices draw independent columns
        proc = FractalProcess("wn-estimated", white_noise().draw_paths)
        corr = proc.correlation_or_estimate(n=self.N, seed=4)
        band = 4.89 * math.sqrt(2.0 / self.N)
        assert abs(corr(0.3, 0.3) - 1.0) < band
        assert abs(corr(0.3, 0.7)) < 4.89 * math.sqrt(1.0 / self.N)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_estimate_neither_continuous_nor_differentiable(self, seed):
        proc = FractalProcess("wn-estimated", white_noise().draw_paths)
        chk = ms_derivative_check(proc, 0.4, n=10000, seed=seed)
        assert (chk.continuity.continuous, chk.differentiable) == (False, False)


class TestSecondOrder:
    def test_builtin_fixtures_are_second_order(self):
        from fractalcalc.processes import second_order_check

        j = np.linspace(0.0, 2.0, 9)
        for proc in (linear_amplitude(1.0), cosine_phase(), white_noise(),
                     brownian_like()):
            assert second_order_check(proc, j)

    def test_heavy_tailed_sampler_flagged(self):
        from fractalcalc.processes import second_order_check

        def draw(gen, j, n):
            # levels so large the second-moment estimate overflows
            u = gen.standard_cauchy(n) * 1e200
            out = np.repeat(u[:, None], len(j), axis=1)
            with np.errstate(over="ignore"):
                return out ** 2

        proc = FractalProcess("heavy", draw)
        with np.errstate(over="ignore"):
            assert not second_order_check(proc, np.array([0.0, 1.0]))


class TestCorrelationMC:
    def test_bilinear_fixture_within_three_sigma(self):
        proc = linear_amplitude(1.5)
        est = correlation_mc(proc, 0.4, 0.7, 20000, seed=3)
        assert abs(est.r - 1.5 * 0.4 * 0.7) <= 3 * est.stderr

    def test_deterministic_unit_process(self):
        est = correlation_mc(constant_process(1.0), 0.2, 0.9, 500, seed=1)
        assert est.r == 1.0
        assert est.stderr == 0.0

    def test_cosine_phase_diagonal_half(self):
        est = correlation_mc(cosine_phase(), 0.5, 0.5, 20000, seed=3)
        assert abs(est.r - 0.5) <= 3 * est.stderr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_diagonal_reads_one_column(self, seed):
        # R(x, x) = E[Z^2] = 1
        est = correlation_mc(white_noise(), 0.3, 0.3, 10000, seed=seed)
        assert abs(est.r - 1.0) <= 4.89 * est.stderr

    def test_sample_floor(self):
        with pytest.raises(CurveDomainError):
            correlation_mc(cosine_phase(), 0.1, 0.2, 50)


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


class TestGeneralizedSecondDerivative:
    def test_bilinear_collapses_to_sigma2(self):
        proc = linear_amplitude(2.0)
        res = second_generalized_derivative(proc.correlation, 0.0)
        for v in res.values:
            assert v == pytest.approx(2.0, rel=1e-12)
        assert res.limit == pytest.approx(2.0, rel=1e-12)
        assert not res.divergent

    def test_cosine_analytic_oracle(self):
        # mixed second difference of cos(t-s)/2 at the diagonal -> 1/2
        res = second_generalized_derivative(lambda a, b: 0.5 * math.cos(a - b), 1.3)
        assert res.limit == pytest.approx(0.5, abs=1e-7)
        assert not res.divergent

    def test_brownian_kernel_diverges(self):
        res = second_generalized_derivative(lambda a, b: min(a, b), 0.5)
        assert res.divergent
        # difference quotient grows like 1/eps
        assert res.values[-1] == pytest.approx(1.0 / 1e-7, rel=1e-6)

    def test_ladder_validation(self):
        with pytest.raises(CurveDomainError):
            second_generalized_derivative(lambda a, b: a * b, 0.0, [0.1, 0.2, 0.3])


class TestContinuity:
    def test_linear_amplitude_continuous_with_quadratic_decay(self):
        res = ms_continuity_check(linear_amplitude(1.0), 0.3, n=10000)
        assert res.continuous
        ratios = np.array(res.deltas[:-1]) / np.array(res.deltas[1:])
        np.testing.assert_allclose(ratios, 100.0, rtol=0.2)

    def test_cosine_phase_continuous(self):
        assert ms_continuity_check(cosine_phase(), 0.7, n=10000).continuous

    def test_white_noise_not_continuous(self):
        res = ms_continuity_check(white_noise(), 0.3, n=10000)
        assert not res.continuous
        np.testing.assert_allclose(res.deltas, 2.0, rtol=0.2)

    def test_brownian_continuous(self):
        assert ms_continuity_check(brownian_like(), 0.3, n=10000).continuous


class TestDerivativeCheck:
    def test_bilinear_differentiable_value_sigma2(self):
        chk = ms_derivative_check(linear_amplitude(2.0), 0.0, n=4000)
        assert chk.differentiable
        assert chk.value == pytest.approx(2.0, rel=1e-9)
        assert chk.continuity.continuous

    def test_cosine_differentiable_value_half(self):
        chk = ms_derivative_check(cosine_phase(), 0.4, n=4000)
        assert chk.differentiable
        assert chk.value == pytest.approx(0.5, abs=1e-6)

    def test_brownian_not_differentiable(self):
        chk = ms_derivative_check(brownian_like(), 0.5, n=4000)
        assert not chk.differentiable

    def test_white_noise_not_differentiable_not_continuous(self):
        chk = ms_derivative_check(white_noise(), 0.3, n=4000)
        assert not chk.differentiable
        assert not chk.continuity.continuous

    def test_no_fixture_violates_implication(self):
        for proc in (linear_amplitude(1.0), cosine_phase(), white_noise(),
                     brownian_like()):
            chk = ms_derivative_check(proc, 0.25, n=4000)
            if chk.differentiable:
                assert chk.continuity.continuous

    def test_bare_correlation_supported(self):
        chk = ms_derivative_check(lambda a, b: 3.0 * a * b, 0.0)
        assert chk.differentiable
        assert chk.value == pytest.approx(3.0, rel=1e-9)
        assert chk.continuity is None


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


class TestProductLimits:
    def test_deterministic_shift(self):
        # X_m = X + 1/m against X: products converge to E[X^2] = 1
        def pair(gen, count, m):
            x = gen.normal(0.0, 1.0, count)
            return x + 1.0 / m, x

        ok, estimates, _ = product_limit_check(pair, 1.0, [1, 4, 16, 64, 256],
                                               20000, seed=8)
        assert ok

    def test_scaled_sequence_tracks_closed_form(self):
        # X_m = (1 + 1/m) X: E[X_m X] = (1 + 1/m) E[X^2]
        def pair(gen, count, m):
            x = gen.normal(0.0, 1.0, count)
            return (1.0 + 1.0 / m) * x, x

        ok, estimates, stderrs = product_limit_check(
            pair, 1.0, [1, 4, 16, 64, 256], 20000, seed=9
        )
        assert ok
        for m, est, se in zip([1, 4, 16, 64, 256], estimates, stderrs):
            assert abs(est - (1.0 + 1.0 / m)) <= 4 * se

    def test_independent_pair_converges_to_product_of_means(self):
        def pair(gen, count, m):
            x = gen.normal(1.0, 1.0, count) + 1.0 / m
            xp = gen.normal(2.0, 1.0, count)
            return x, xp

        ok, _, _ = product_limit_check(pair, 2.0, [1, 4, 16, 64, 256],
                                       40000, seed=10)
        assert ok


@pytest.mark.parametrize("call", [
    lambda table: ms_integral(linear_amplitude(1.0), lambda j, u: np.ones_like(j),
                              table, 0.0, 1.0, n=1),
    lambda table: improper_ms_integral(linear_amplitude(1.0),
                                       lambda j, u: np.ones_like(j), table,
                                       0.0, [0.5, 1.0], n=1),
    lambda table: product_limit_check(lambda gen, count, m: (gen.normal(size=count),) * 2,
                                      1.0, [1, 4], 1),
], ids=["ms_integral", "improper_ms_integral", "product_limit_check"])
def test_one_realization_has_no_standard_error(unit_table, call):
    with pytest.raises(CurveDomainError, match="at least 2 realizations"):
        call(unit_table)
