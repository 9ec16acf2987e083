import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fractalcalc import (
    BetaSquaredAmplitude,
    FixedSquaredAmplitude,
    MomentSpec,
    beta_raw_moment,
    closed_form_sample,
    mc_solution_moments,
    solve_series,
)
from fractalcalc.errors import CurveDomainError
from fractalcalc import _threads, oscillator
from fractalcalc import rng as frng
from fractalcalc.oscillator import (
    MC_SLAB_VALUES,
    EnsembleMoments,
    deterministic_initial_data,
    mean_coefficients,
    second_moment_coefficients,
    squared_series_coefficients,
)


def beta_moment_quadrature(mu, nu, m, panels=400001):
    """Independent oracle: trapezoid quadrature of x^m against the Beta
    density."""
    x = np.linspace(0.0, 1.0, panels)
    norm = math.gamma(mu + nu) / (math.gamma(mu) * math.gamma(nu))
    dens = x ** (mu - 1) * (1 - x) ** (nu - 1) * norm
    return float(np.trapezoid(x ** m * dens, x))


REFERENCE_SPEC = MomentSpec(
    ex0=1.0, ex1=1.0, ex0_sq=1.0, ex1_sq=1.0, ex01=1.0,
    a2=BetaSquaredAmplitude(2.0, 1.0),
)


def fixed_spec(x0, x1, a2):
    """Deterministic initial data x0, x1 and a fixed A^2 = a2: the mean
    series is the pathwise series of that one solution."""
    return MomentSpec(x0, x1, x0 * x0, x1 * x1, x0 * x1, FixedSquaredAmplitude(a2))


class TestBetaMoments:
    def test_first_moment_is_mean(self):
        assert beta_raw_moment(2, 1, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_order_zero_is_one(self):
        for mu, nu in [(2, 1), (0.5, 0.5), (7, 3)]:
            assert beta_raw_moment(mu, nu, 0) == 1.0

    @pytest.mark.parametrize("mu,nu,m", [(2, 1, 2), (2, 1, 3), (1.5, 2.5, 2)])
    def test_against_quadrature_oracle(self, mu, nu, m):
        assert beta_raw_moment(mu, nu, m) == pytest.approx(
            beta_moment_quadrature(mu, nu, m), abs=1e-9
        )

    def test_beta21_second_moment_product_form(self):
        # (2/3)(3/4) = 1/2
        assert beta_raw_moment(2, 1, 2) == pytest.approx(0.5, rel=1e-15)

    def test_variance_closed_form(self):
        for mu, nu in [(2.0, 1.0), (3.5, 0.7), (1.0, 1.0)]:
            prov = BetaSquaredAmplitude(mu, nu)
            var = prov.moment(2) - prov.moment(1) ** 2
            expected = mu * nu / ((mu + nu) ** 2 * (mu + nu + 1))
            assert var == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(CurveDomainError):
            beta_raw_moment(0.0, 1.0, 1)
        with pytest.raises(CurveDomainError):
            beta_raw_moment(1.0, 1.0, -1)


IMPOSSIBLE_MOMENTS = {
    "variance-x0": (1.0, 0.0, 0.5, 1.0, 0.0),     # E[X0^2] < E[X0]^2
    "cauchy-schwarz": (0.0, 0.0, 1.0, 1.0, 2.0),  # |E[X0 X1]| over the Cauchy-Schwarz bound
    # each pairwise bound holds, but both variances are 0, so the covariance
    # ex01 - ex0 ex1 = -0.5 is impossible; the matrix has eigenvalue -0.186
    "joint-only": (1.0, 1.0, 1.0, 1.0, 0.5),
}

POSSIBLE_MOMENTS = {
    "perfect-correlation": (1.0, 1.0, 1.0, 1.0, 1.0),
    "deterministic-1e6": (1e6, 0.0, 1e12, 0.0, 0.0),     # rank one at a large scale
    "deterministic-pair": (0.7, 0.4, 0.49, 0.16, 0.28),
    "covariance": (1.0, 0.5, 1.5, 0.5, 0.3),             # a proper covariance
}


class TestMomentSpec:
    @pytest.mark.parametrize("moments", [
        *IMPOSSIBLE_MOMENTS.values(), (math.nan, 0.0, 1.0, 1.0, 0.0)],
        ids=[*IMPOSSIBLE_MOMENTS, "nan"])
    def test_rejects_impossible_moments(self, moments):
        with pytest.raises(CurveDomainError, match="no joint law"):
            MomentSpec(*moments, FixedSquaredAmplitude(1.0))

    @pytest.mark.parametrize("moments", POSSIBLE_MOMENTS.values(), ids=POSSIBLE_MOMENTS)
    def test_accepts_possible_moments(self, moments):
        MomentSpec(*moments, FixedSquaredAmplitude(1.0))

    @pytest.mark.parametrize("moments, possible", [
        # a variance of X0 at -2^-10 ex0^2
        ((1.0, 0.0, 1.0 - 2.0 ** -10, 0.0, 0.0), False),
        *((m, False) for m in IMPOSSIBLE_MOMENTS.values()),
        *((m, True) for m in POSSIBLE_MOMENTS.values()),
    ], ids=["variance-x0-small", *IMPOSSIBLE_MOMENTS, *POSSIBLE_MOMENTS])
    def test_verdict_does_not_depend_on_the_units_of_x(self, moments, possible):
        # X -> 2^k X scales the first moments by 2^k and the second by 4^k
        ex0, ex1, ex0_sq, ex1_sq, ex01 = moments
        for k in range(-60, 61):
            scaled = (math.ldexp(ex0, k), math.ldexp(ex1, k), math.ldexp(ex0_sq, 2 * k),
                      math.ldexp(ex1_sq, 2 * k), math.ldexp(ex01, 2 * k))
            try:
                MomentSpec(*scaled, FixedSquaredAmplitude(1.0))
            except CurveDomainError:
                assert not possible, k
            else:
                assert possible, k


class TestFrobenius:
    def test_recurrence_low_orders(self):
        c = mean_coefficients(fixed_spec(1.0, 1.0, 1.0), 1)
        assert c[2] == pytest.approx(-0.5)       # -A^2 X0 / 2
        assert c[3] == pytest.approx(-1.0 / 6.0)  # -A^2 X1 / 6

    def test_deterministic_frequency_gives_trig_taylor(self):
        omega = 1.7
        c = mean_coefficients(fixed_spec(1.0, 0.0, omega ** 2), 5)
        for m in range(6):
            expected = (-1) ** m * omega ** (2 * m) / math.factorial(2 * m)
            assert c[2 * m] == pytest.approx(expected, rel=1e-12)
            assert c[2 * m + 1] == 0.0
        s = mean_coefficients(fixed_spec(0.0, 1.0, omega ** 2), 5)
        for m in range(6):
            expected = (-1) ** m * omega ** (2 * m) / math.factorial(2 * m + 1)
            assert s[2 * m + 1] == pytest.approx(expected, rel=1e-12)
            assert s[2 * m] == 0.0


class TestTruncatedMean:
    def test_printed_coefficients(self):
        coeffs = mean_coefficients(REFERENCE_SPEC, 20)
        np.testing.assert_allclose(
            coeffs[:4], [1.0, 1.0, -1.0 / 3.0, -1.0 / 9.0], atol=1e-12
        )

    def test_value_at_origin_is_initial_mean(self):
        for spec in (REFERENCE_SPEC,
                     MomentSpec(2.5, 0.0, 6.25, 0.0, 0.0, FixedSquaredAmplitude(4.0))):
            assert solve_series(spec, 8).mean([0.0])[0] == spec.ex0

    def test_deterministic_a2_tracks_cosine(self):
        spec = MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, FixedSquaredAmplitude(4.0))
        j = np.linspace(0.0, 2.0, 101)
        vals = solve_series(spec, 20).mean(j)
        np.testing.assert_allclose(vals, np.cos(2.0 * j), atol=1e-10)

    def test_truncation_error_scale(self):
        # dropping at m = N leaves a first omitted term (2J)^(2N+2)/(2N+2)!
        spec = MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, FixedSquaredAmplitude(4.0))
        n = 4
        j = 1.5
        err = abs(solve_series(spec, n).mean([j])[0] - math.cos(2.0 * j))
        bound = (2.0 * j) ** (2 * n + 2) / math.factorial(2 * n + 2)
        assert err <= bound

    def test_even_odd_decoupling(self):
        spec = MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, BetaSquaredAmplitude(2.0, 1.0))
        coeffs = mean_coefficients(spec, 10)
        assert np.all(coeffs[1::2] == 0.0)

    def test_classical_degeneration(self):
        # deterministic frequency on the unit interval: the series converges
        # to the classical oscillator solution uniformly
        for omega in (1.0, 2.0):
            spec = MomentSpec(0.7, 0.4, 0.49, 0.16, 0.28,
                              FixedSquaredAmplitude(omega ** 2))
            j = np.linspace(0.0, 1.0, 101)
            exact = 0.7 * np.cos(omega * j) + 0.4 * np.sin(omega * j) / omega
            err = np.abs(solve_series(spec, 20).mean(j) - exact).max()
            assert err < 1e-10


class TestTruncatedSecondMoment:
    def test_printed_opening_coefficients(self):
        coeffs = second_moment_coefficients(REFERENCE_SPEC, 20)
        np.testing.assert_allclose(coeffs[:3], [1.0, 2.0, 1.0], atol=1e-12)

    def test_value_at_origin(self):
        assert solve_series(REFERENCE_SPEC, 8).second_moment([0.0])[0] == REFERENCE_SPEC.ex0_sq

    @pytest.mark.parametrize("a2, order, j, tol", [
        (1.0, 12, np.linspace(-0.5, 0.5, 41), 1e-6),
        # the deterministic README recipe: its variance is 0
        (4.0, 20, np.linspace(0.0, 2.0, 101), 1e-8),
    ], ids=["a2-1", "recipe"])
    def test_squared_series_degenerate_case(self, a2, order, j, tol):
        # deterministic data: the termwise square equals the squared mean
        spec = MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, FixedSquaredAmplitude(a2))
        sq = np.polynomial.polynomial.polyval(j, squared_series_coefficients(spec, order))
        mean = solve_series(spec, order).mean(j)
        assert np.abs(sq - mean ** 2).max() < tol

    def test_variance_nonnegative_for_reference_spec(self):
        sol = solve_series(REFERENCE_SPEC, 20)
        j = np.linspace(0.0, 1.0, 101)
        assert np.all(sol.variance(j) >= -1e-9)

    def test_variance_warns_when_negative_beyond_tolerance(self):
        from fractalcalc import SeriesSolution

        sol = SeriesSolution(
            order=1,
            mean_coeffs=np.array([1.0]),
            second_coeffs=np.array([1.0 - 1e-6]),
        )
        with pytest.warns(UserWarning):
            vals = sol.variance(np.array([0.0, 0.1]))
        np.testing.assert_allclose(vals, -1e-6, atol=1e-12)


class TestPolyval:
    """``SeriesSolution`` evaluates its polynomials by numpy's own Horner
    recurrence, so that numpy.polynomial is never imported."""

    GRIDS = [
        np.linspace(-3.0, 3.0, 61),
        np.array([0.0, -0.0, -1e-300, 5e-324, -2.5, 2.5]),
        np.random.default_rng(5).uniform(-4.0, 4.0, 300),
        np.float64(-0.7),
        0.0,
    ]

    @pytest.mark.parametrize("spec", [REFERENCE_SPEC, fixed_spec(0.7, -0.4, 3.0)],
                             ids=["beta", "fixed"])
    def test_matches_numpy_polyval(self, spec):
        poly = np.polynomial.polynomial
        for order in range(10, 61):
            sol = solve_series(spec, order)
            for j in self.GRIDS:
                x = np.asarray(j, dtype=float)
                for got, coeffs in ((sol.mean(j), sol.mean_coeffs),
                                    (sol.second_moment(j), sol.second_coeffs)):
                    want = poly.polyval(x, coeffs)
                    assert type(got) is type(want) and np.shape(got) == np.shape(want)
                    assert np.array_equal(np.asarray(got).view(np.int64),
                                          np.asarray(want).view(np.int64))


class _NoLawAmplitude:
    """E[A^2] = 1 and E[A^4] = 0 (and every higher moment 0): no law has
    these moments, so the truncated variance goes negative, at J > 2."""

    def moment(self, m: int) -> float:
        return 1.0 if m < 2 else 0.0


def _scaled_variance(spec, k):
    """The order-20 variance on J in [0, 3] with X scaled by 2^k, and how
    many warnings it gave."""
    scaled = MomentSpec(
        spec.ex0 * 2.0 ** k, spec.ex1 * 2.0 ** k, spec.ex0_sq * 4.0 ** k,
        spec.ex1_sq * 4.0 ** k, spec.ex01 * 4.0 ** k, spec.a2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        var = solve_series(scaled, 20).variance(np.linspace(0.0, 3.0, 61))
    return var, len(caught)


class TestVarianceDipIsRelative:
    """X -> 2^k X scales the mean by 2^k and the second moment and the
    variance by 4^k exactly, so it must neither add nor remove the dip
    warning."""

    @pytest.mark.parametrize("spec, warned", [
        (MomentSpec(1.0, 0.0, 1.0, 0.0, 0.0, _NoLawAmplitude()), 1),
        (REFERENCE_SPEC, 0),
    ], ids=["no-law-amplitude", "reference"])
    def test_scaling_keeps_the_warning(self, spec, warned):
        base, caught = _scaled_variance(spec, 0)
        assert caught == warned
        for k in range(-60, 61):
            var, caught = _scaled_variance(spec, k)
            assert var.tobytes() == (base * 4.0 ** k).tobytes(), k
            assert caught == warned, k


def beta_expectation(f, mu, nu, nodes=200):
    """Independent oracle: E[f(B)] for B ~ Beta(mu, nu), by Gauss-Legendre
    quadrature on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    norm = math.gamma(mu + nu) / (math.gamma(mu) * math.gamma(nu))
    return float((w * x ** (mu - 1) * (1 - x) ** (nu - 1) * norm * f(x)).sum())


class TestSquaredSeriesSecondMoment:
    """The termwise square of the truncated series is its exact second
    moment E[X_N(J)^2]: with A^2 independent of (X0, X1), at order 20 it
    is E[ex0sq cos^2(AJ) + ex1sq sin^2(AJ)/A^2 + 2 ex01 cos(AJ) sin(AJ)/A]."""

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mu, nu", [(2.0, 1.0), (3.0, 2.0)])
    @pytest.mark.parametrize("moments", [(1.0, 1.0, 1.0, 1.0, 1.0),
                                         (1.0, 0.5, 1.3, 0.7, 0.4)])
    def test_against_quadrature(self, moments, mu, nu, j):
        spec = MomentSpec(*moments, BetaSquaredAmplitude(mu, nu))

        def second(a2):
            a = np.sqrt(a2)
            c, s = np.cos(a * j), np.sin(a * j) / a
            return spec.ex0_sq * c * c + spec.ex1_sq * s * s + 2.0 * spec.ex01 * c * s

        got = np.polynomial.polynomial.polyval(j, squared_series_coefficients(spec, 20))
        assert got == pytest.approx(beta_expectation(second, mu, nu), rel=1e-12)

    def test_reference_spec_at_two(self):
        # the exact E[X^2]; the diagonal-plus-cross expansion reads 8.131 here
        got = np.polynomial.polynomial.polyval(
            2.0, squared_series_coefficients(REFERENCE_SPEC, 20))
        assert got == pytest.approx(1.7495410279840122, rel=1e-15)


class TestClosedForm:
    def test_fixed_amplitude_reduces_to_cosine(self):
        j = np.linspace(0.0, 2.0, 21)
        np.testing.assert_allclose(
            closed_form_sample(2.0, 1.0, 0.0, j), np.cos(2.0 * j), rtol=1e-12
        )

    def test_sine_peak(self):
        assert closed_form_sample(1.0, 0.0, 1.0, math.pi / 2) == pytest.approx(1.0)

    def test_origin_returns_initial_value(self):
        for a, x0, x1 in [(2.0, 1.5, 0.3), (0.5, -2.0, 1.0)]:
            assert closed_form_sample(a, x0, x1, 0.0) == pytest.approx(x0)

    def test_zero_frequency_limit(self):
        np.testing.assert_allclose(closed_form_sample(0.0, 2.0, 0.0, 1.5), 2.0)
        with pytest.warns(UserWarning):
            val = closed_form_sample(0.0, 1.0, 2.0, np.array([0.5]))
        assert val[0] == pytest.approx(2.0)


class TestMonteCarlo:
    def test_beta_spec_matches_series_everywhere(self):
        j = np.linspace(0.0, 1.0, 21)
        mc = mc_solution_moments(
            BetaSquaredAmplitude(2.0, 1.0), deterministic_initial_data(1.0, 1.0),
            10 ** 5, 7, j,
        )
        series = solve_series(REFERENCE_SPEC, 20).mean(j)
        assert np.all(np.abs(mc.mean - series) <= 3.0 * mc.mean_stderr + 1e-12)

    def test_deterministic_paths_have_no_spread(self):
        j = np.linspace(0.0, 1.0, 11)
        mc = mc_solution_moments(
            FixedSquaredAmplitude(4.0), deterministic_initial_data(1.0, 0.0),
            1000, 3, j,
        )
        np.testing.assert_allclose(mc.mean, np.cos(2.0 * j), rtol=1e-12)
        assert np.all(mc.mean_stderr <= 1e-12)

    def test_origin_is_exact(self):
        mc = mc_solution_moments(
            BetaSquaredAmplitude(2.0, 1.0), deterministic_initial_data(1.0, 1.0),
            10 ** 4, 11, [0.0],
        )
        assert mc.mean[0] == 1.0


    @pytest.mark.parametrize("a2, initial, digest", [
        (BetaSquaredAmplitude(2.0, 1.0),
         lambda gen, size: (gen.normal(1.0, 0.5, size), gen.normal(0.0, 1.0, size)),
         "1b6d22ecf126f293"),
        (FixedSquaredAmplitude(0.0), deterministic_initial_data(1.0, 2.0),
         "2884418d9d4ebf8a"),
    ], ids=["beta-normal-data", "zero-amplitude"])
    def test_ensemble_bytes(self, a2, initial, digest):
        # sha256 prefix of the two ensemble curves; any moved bit changes it
        mc = mc_solution_moments(a2, initial, 500, 5, np.linspace(0.0, 2.0, 9))
        data = b"".join(v.tobytes() for v in (mc.mean, mc.mean_stderr))
        assert hashlib.sha256(data).hexdigest()[:16] == digest


class CountingAmplitude(BetaSquaredAmplitude):
    """Beta(2, 1) amplitude that counts its moment calls."""

    def __init__(self):
        super().__init__(2.0, 1.0)
        self.calls = 0

    def moment(self, m):
        self.calls += 1
        return super().moment(m)


@pytest.mark.parametrize("build", [
    mean_coefficients, second_moment_coefficients, squared_series_coefficients,
])
def test_a2_moments_built_once_per_call(build):
    order = 24
    a2 = CountingAmplitude()
    spec = MomentSpec(1.0, 0.5, 1.5, 0.5, 0.3, a2)
    a2.calls = 0
    build(spec, order)
    assert a2.calls <= 2 * order + 1


@pytest.mark.parametrize("build", [
    mean_coefficients, second_moment_coefficients, squared_series_coefficients,
    solve_series,
])
def test_negative_order_names_the_truncation_order(build):
    spec = MomentSpec(1.0, 0.5, 1.5, 0.5, 0.3, FixedSquaredAmplitude(1.0))
    with pytest.raises(CurveDomainError, match="truncation order"):
        build(spec, -1)


class ZeroMixedBeta(BetaSquaredAmplitude):
    """Beta(2, 1) draws with every fifth one set to A^2 = 0."""

    def __init__(self):
        super().__init__(2.0, 1.0)

    def sample(self, gen, size):
        a2 = gen.beta(self.mu, self.nu, size)
        a2[::5] = 0.0
        return a2


def correlated_initial_data(gen, size):
    x0 = gen.normal(1.0, 0.5, size)
    return x0, 0.6 * x0 + gen.normal(0.0, 0.8, size)


def one_shot_moments(a2_provider, initial_sampler, n, seed, j_values):
    """Reference: the whole path matrix at once, then numpy's mean and
    std(ddof=1) over it."""
    j = np.asarray(j_values, dtype=float)
    a = np.sqrt(np.asarray(a2_provider.sample(frng.stream(seed, 0), n), dtype=float))
    x0, x1 = initial_sampler(frng.stream(seed, 1), n)
    zero = a == 0.0
    aj = np.multiply.outer(a, j)
    paths = np.sin(aj) / np.where(zero, 1.0, a)[:, None]
    paths[zero] = j
    paths = x0[:, None] * np.cos(aj) + x1[:, None] * paths
    return EnsembleMoments(paths.mean(axis=0),
                           paths.std(axis=0, ddof=1) / math.sqrt(n), n)


#: Deterministic (x0, x1) with X1 = 0: the sine term is left out for the
#: first two. The last two give a zero or subnormal x0 cos(aJ), so it is
#: kept: leaving it out could turn a +0 path value into -0.
COSINE_ONLY_DATA = [(1.0, 0.0), (-2.5, 0.0), (0.0, 0.0), (5e-324, 0.0)]


def assert_same_bytes(got, want):
    """The two curves bit for bit, signed zeros included."""
    for name in ("mean", "mean_stderr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestBlockedMonteCarlo:
    @pytest.mark.parametrize("points", [2, 9, 129])
    # below 2^18 path values one thread takes the 129-point grid as one
    # chunk, in blocks of MC_SLAB_VALUES // 16 // 129 rows
    @pytest.mark.parametrize("n", [2, MC_SLAB_VALUES // 16 // 129 - 1,
                                   MC_SLAB_VALUES // 16 // 129,
                                   MC_SLAB_VALUES // 16 // 129 + 1, 5000])
    @pytest.mark.parametrize("a2, initial", [
        (ZeroMixedBeta(), correlated_initial_data),
        (BetaSquaredAmplitude(2.0, 1.0), deterministic_initial_data(1.0, 2.0)),
        *[(a2, deterministic_initial_data(x0, x1))
          for a2 in (BetaSquaredAmplitude(2.0, 1.0), ZeroMixedBeta())
          for x0, x1 in COSINE_ONLY_DATA],
    ], ids=["zero-mixed-correlated", "beta-deterministic",
            *[f"{name}-x0={x0!r}-x1={x1!r}" for name in ("beta", "zero-mixed")
              for x0, x1 in COSINE_ONLY_DATA]])
    def test_bit_identical_to_one_shot(self, a2, initial, n, points):
        j = np.linspace(0.0, 2.5, points)
        got = mc_solution_moments(a2, initial, n, 17, j)
        want = one_shot_moments(a2, initial, n, 17, j)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("a2", [BetaSquaredAmplitude(2.0, 1.0), ZeroMixedBeta()],
                             ids=["beta", "zero-mixed"])
    @pytest.mark.parametrize("x0, x1", COSINE_ONLY_DATA[:2] + [(3.0, -0.0)])
    def test_no_sine_when_x1_is_zero(self, monkeypatch, a2, x0, x1):
        # 3000 x 129 path values: split across threads on two or more CPUs
        j = np.linspace(0.0, 2.5, 129)
        initial = deterministic_initial_data(x0, x1)
        want = one_shot_moments(a2, initial, 3000, 17, j)

        def no_sine(*args, **kwargs):
            raise AssertionError("np.sin called")

        monkeypatch.setattr(np, "sin", no_sine)
        assert_same_bytes(mc_solution_moments(a2, initial, 3000, 17, j), want)

    @pytest.mark.parametrize("x0, x1", COSINE_ONLY_DATA[2:] + [(1.0, 2.0), (1.0, 5e-324)])
    def test_sine_taken_when_it_can_move_a_bit(self, monkeypatch, x0, x1):
        calls = []
        sin = np.sin

        def counted_sine(*args, **kwargs):
            calls.append(args)
            return sin(*args, **kwargs)

        monkeypatch.setattr(np, "sin", counted_sine)
        mc_solution_moments(BetaSquaredAmplitude(2.0, 1.0),
                            deterministic_initial_data(x0, x1), 100, 17, [0.0, 1.0])
        assert calls

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 7, 10, 13, 29])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [2, 3])
    def test_narrow_chunks(self, monkeypatch, width, cpus, points):
        # a share of two or three columns per thread: a run of 3, 5, 7, ...
        # columns cannot be cut into even pairs, nor 4, 7, 10, ... into
        # threes, and no chunk may be left one column wide
        n = 40
        monkeypatch.setattr(oscillator, "MC_SLAB_VALUES", width * n * cpus)
        monkeypatch.setattr(_threads, "MIN_SPLIT", 1)
        monkeypatch.setattr(_threads, "cpus", lambda: cpus)
        a2, initial = ZeroMixedBeta(), correlated_initial_data
        j = np.linspace(0.0, 2.5, points)
        got = mc_solution_moments(a2, initial, n, 17, j)
        want = one_shot_moments(a2, initial, n, 17, j)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch, cpus):
        # the slabs share MC_SLAB_VALUES path values and each thread adds a
        # block of a sixteenth of its slab, whatever the grid; the draws and
        # per-path factors, about ten arrays of n, come on top
        n = 10000
        monkeypatch.setattr(_threads, "cpus", lambda: cpus)
        for points in (33, 129, 1025):
            tracemalloc.start()
            try:
                mc_solution_moments(BetaSquaredAmplitude(2.0, 1.0),
                                    correlated_initial_data, n, 3,
                                    np.linspace(0.0, 2.0, points))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (MC_SLAB_VALUES * 17 // 16 + 16 * n) * 8, points


class TestResidual:
    """P = mean_coefficients(spec, N) under a fixed A^2 = a2 solves the
    oscillator equation up to its truncation: the recurrence cancels every
    coefficient of P'' + a2 P but a2 times P's top two, of degree 2N and
    2N + 1. No step size enters, since P'' is taken exactly."""

    @staticmethod
    def residual(a2, x0, x1, order, j):
        """P'' + a2 P at ``j``, summed coefficient by coefficient, and P."""
        p = mean_coefficients(fixed_spec(x0, x1, a2), order)
        poly = np.polynomial.polynomial
        return poly.polyval(j, poly.polyadd(poly.polyder(p, 2), a2 * p)), p

    @pytest.mark.parametrize("a2, x0, x1, order", [
        (1.0, 1.0, 0.5, 16), (2.89, 1.0, 0.0, 5), (4.0, 0.7, 0.4, 20), (0.5, -1.0, 2.0, 2)])
    def test_only_the_top_two_terms_remain(self, a2, x0, x1, order):
        j = np.linspace(-1.0, 1.0, 201)
        resid, p = self.residual(a2, x0, x1, order, j)
        top = a2 * (p[-2] * j ** (2 * order) + p[-1] * j ** (2 * order + 1))
        # on |J| <= 1 each term of a2 P is at most its coefficient, so the
        # cancelled ones leave at most one ulp of their sum
        np.testing.assert_allclose(resid, top, rtol=0.0,
                                   atol=np.finfo(float).eps * a2 * np.abs(p).sum())

    def test_low_order_dominated_by_truncation(self):
        # degree cap 2N+1 = 5: the residual is a2 * c4 * J^4 = 1/24 at J = 1
        assert self.residual(1.0, 1.0, 0.0, 2, 1.0)[0] == 1.0 / 24.0

    def test_zero_solution(self):
        resid, _ = self.residual(1.0, 0.0, 0.0, 16, np.linspace(-1.0, 1.0, 101))
        assert not np.any(resid)
