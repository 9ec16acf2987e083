import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fractalcalc
from fractalcalc import (
    KOCH_DIMENSION,
    DistributionOnCurve,
    FractalCurve,
    build_koch,
    build_line,
    build_polyline,
    build_staircase,
    falpha_derivative,
    falpha_integral,
    sampling_cdf,
)
from fractalcalc.curves import _BLOCK
from fractalcalc.errors import CurveDomainError
from fractalcalc.staircase import StaircaseTable
from conftest import simd_pin, traced_peak
from ks import ks_distance
from walks import lognormal_walk, plateau_polyline, subnormal_plateau_polyline


#: Minor page faults of a fresh uniform Koch-6 draw of 10^6 points and
#: their first read.
FAULTS = """
import resource
from fractalcalc import DistributionOnCurve, build_koch, build_staircase
dist = DistributionOnCurve.uniform(build_staircase(build_koch(6)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
dist.sample(123, 10 ** 6).points
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture(scope="module")
def koch_table():
    return build_staircase(build_koch(6))


@pytest.fixture(scope="module")
def long_line_table():
    # mass range [0, 25]: exponential truncation below 2e-11
    return build_staircase(build_line(0, 25), grid_size=4096)


@pytest.fixture(scope="module")
def unit_line_table():
    return build_staircase(build_line(0, 1))


class TestUniform:
    def test_pdf_is_gamma_constant_on_koch(self, koch_table):
        # unit-base Koch at its own order has total mass 1/Gamma(alpha+1),
        # so the normalized density equals the constant Gamma(alpha+1)
        dist = DistributionOnCurve.uniform(koch_table)
        rng = np.random.default_rng(5)
        vals = np.array(
            [dist.pdf(koch_table.curve.point(t)) for t in rng.uniform(0.02, 0.98, 100)]
        )
        assert np.ptp(vals) / vals.mean() < 1e-12
        assert vals[0] == pytest.approx(math.gamma(KOCH_DIMENSION + 1.0), rel=1e-9)

    def test_cdf_reaches_one_at_curve_end(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        assert dist.cdf(koch_table.curve.point(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_is_normalized_chart(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        theta = koch_table.curve.point(0.25)
        expected = koch_table.j_of_theta(theta) / koch_table.s[-1]
        assert dist.cdf(theta) == pytest.approx(expected, rel=1e-12)


class TestMemoryless:
    def test_cdf_edges(self, long_line_table):
        dist = DistributionOnCurve.memoryless(long_line_table, 1.0)
        assert dist.cdf_at_j(0.0) == 0.0
        assert dist.cdf_at_j(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert float(dist.cdf_at_j(dist.support[1])) == pytest.approx(1.0, abs=1e-9)

    def test_pdf_at_origin_is_rate(self, long_line_table):
        dist = DistributionOnCurve.memoryless(long_line_table, 2.0)
        assert dist.pdf_at_j(0.0) == pytest.approx(2.0, rel=1e-12)

    def test_truncation_reported_on_short_curve(self, koch_table):
        dist = DistributionOnCurve.memoryless(koch_table, 1.0)
        expected = math.exp(-koch_table.s[-1])
        assert dist.truncated_mass == pytest.approx(expected, rel=1e-9)

    def test_memoryless_property_in_chart(self, long_line_table):
        dist = DistributionOnCurve.memoryless(long_line_table, 1.3)

        def tail(j):
            return 1.0 - float(dist.cdf_at_j(j))

        for s, t in [(0.3, 0.9), (1.1, 0.4), (2.0, 2.5)]:
            assert tail(s + t) / tail(s) == pytest.approx(tail(t), abs=1e-9)

    def test_pdf_cdf_consistency_via_derivative(self, unit_line_table):
        # definition-level oracle: the chart derivative of the cdf is the pdf
        dist = DistributionOnCurve.memoryless(unit_line_table, 1.0)
        for t in np.linspace(0.05, 0.95, 20):
            theta = np.array([t])
            num = falpha_derivative(dist.cdf, unit_line_table, theta, h=1e-4)
            assert num == pytest.approx(dist.pdf(theta), abs=1e-3)

    @pytest.mark.parametrize("lam", [1e-9, 1e-12, 1e-17])
    def test_small_rates_keep_the_law(self, lam):
        # 1 - exp(-lam J) cancels when lam J is small: at lam = 1e-12 the cap
        # came out 3e-5 too high and draws fell past the curve's mass range
        table = build_staircase(build_koch(3))
        lo, hi = table.mass_bounds
        dist = DistributionOnCurve.memoryless(table, lam)
        x = lam * hi
        assert dist._cap == pytest.approx(x - x * x / 2, rel=1e-12, abs=0)
        sample = dist.sample(11, 10 ** 4)
        assert np.all((lo <= sample.j) & (sample.j <= hi))
        assert np.all(np.isfinite(sample.points))
        band = 1.36 / math.sqrt(sample.count)
        assert ks_distance(sample.j, sampling_cdf(dist)) < band

    def test_rejects_bad_rate(self, unit_line_table):
        with pytest.raises(CurveDomainError):
            DistributionOnCurve.memoryless(unit_line_table, 0.0)


def test_unknown_family_rejected_at_construction(unit_line_table):
    with pytest.raises(CurveDomainError, match="^unknown family 'bogus'"):
        DistributionOnCurve(unit_line_table, "bogus")


class TestNormalization:
    @pytest.mark.parametrize("family", ["uniform", "memoryless", "custom"])
    def test_pdf_integrates_to_one(self, family, koch_table, long_line_table):
        if family == "uniform":
            dist, table = DistributionOnCurve.uniform(koch_table), koch_table
        elif family == "memoryless":
            dist, table = (
                DistributionOnCurve.memoryless(long_line_table, 1.0),
                long_line_table,
            )
        else:
            dist = DistributionOnCurve.custom(
                long_line_table, lambda j: math.exp(-((j - 5.0) ** 2))
            )
            table = long_line_table

        lo, hi = dist.support
        ta, tb = table.t_from_mass(lo), table.t_from_mass(hi)

        def integrand(pts):
            return dist.pdf_at_j(table.j_of_many(np.atleast_2d(pts)))

        total = falpha_integral(integrand, table, ta, tb)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampling:
    def test_same_seed_reproduces(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        one = dist.sample(123, 500)
        two = dist.sample(123, 500)
        assert np.array_equal(one.points, two.points)
        three = dist.sample(124, 500)
        assert not np.array_equal(one.points, three.points)

    def test_all_samples_on_curve(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        sample = dist.sample(9, 200)
        recovered = koch_table.j_of_many(sample.points)
        np.testing.assert_allclose(recovered, sample.j, atol=1e-9)

    def test_uniform_ks_band(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        sample = dist.sample(2024, 10 ** 5)
        assert ks_distance(sample.j, sampling_cdf(dist)) < 0.01

    def test_memoryless_ks_band(self, long_line_table):
        dist = DistributionOnCurve.memoryless(long_line_table, 1.0)
        sample = dist.sample(77, 10 ** 5)
        band = 1.36 / math.sqrt(10 ** 5)
        assert ks_distance(sample.j, sampling_cdf(dist)) < band

    @pytest.mark.parametrize("table", [build_staircase(build_line(0, 1)),
                                       build_staircase(build_koch(5))], ids=["line", "koch5"])
    def test_custom_ks_band(self, table):
        # the custom law's cdf and sampler: pdf j^2 on [0, J_max], so the cdf
        # is (J / J_max)^3, 1/8 at mid-support
        dist = DistributionOnCurve.custom(table, lambda j: j * j)
        n = 2 * 10 ** 5
        assert ks_distance(dist.sample(5, n).j, sampling_cdf(dist)) < 1.95 / math.sqrt(n)
        assert abs(float(dist.cdf_at_j(table.total_mass / 2)) - 0.125) < 1e-6

    def test_memoryless_mean_matches_rate(self, long_line_table):
        dist = DistributionOnCurve.memoryless(long_line_table, 1.0)
        sample = dist.sample(31, 10 ** 5)
        assert abs(sample.j.mean() - 1.0) < 3.0 / math.sqrt(10 ** 5)

    def test_sample_bytes(self, koch_table):
        # sha256 prefix of points, t and J; any moved bit changes it
        smp = DistributionOnCurve.memoryless(koch_table, 1.3).sample(7, 10 ** 4)
        data = b"".join(v.tobytes() for v in (smp.points, smp.t, smp.j))
        assert hashlib.sha256(data).hexdigest()[:16] == simd_pin("46fa2a9534315615")

    @pytest.mark.parametrize("law, digest", [
        ("walk-uniform", "58636e6302273d94"),
        ("walk-memoryless", "d9e5afcd9b1788d1"),
        ("plateau-uniform", "f941c790431d40da"),
    ])
    def test_sample_pins(self, law, digest):
        # sha256 prefix of points, t, J and the plateau hits; 30001 draws
        # span more than one sampling block and end in a partial one
        if law == "walk-uniform":
            dist = DistributionOnCurve.uniform(build_staircase(lognormal_walk(5, 200, 2)))
        elif law == "walk-memoryless":
            table = build_staircase(lognormal_walk(8, 120, 3), p0=0.4)
            dist = DistributionOnCurve.memoryless(table, 2.0 / table.total_mass)
        else:
            dist = DistributionOnCurve.uniform(
                build_staircase(plateau_polyline(), alpha=2.0, grid_size=4))
        smp = dist.sample(11, 30001)
        data = b"".join(v.tobytes() for v in
                        (smp.points, smp.t, smp.j, np.int64(smp.plateau_hits)))
        assert hashlib.sha256(data).hexdigest()[:16] == simd_pin(digest)

    def test_sampler_memory_per_draw(self, koch_table):
        # a draw returns its J, 8 bytes, and every temporary of the
        # sampler is one block long; test_sampler_leaves_points_to_first_read
        # holds the draw to 8 bytes a draw plus 2 MiB
        dist = DistributionOnCurve.memoryless(koch_table, 1.3)
        count = 2 * 10 ** 5
        tracemalloc.start()
        try:
            smp = dist.sample(7, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert smp.count == count
        assert peak <= 56 * count

    @pytest.mark.parametrize("count", [2 * 10 ** 5, 10 ** 6])
    def test_sampler_leaves_points_to_first_read(self, koch_table, monkeypatch, count):
        # a draw keeps only J, 8 bytes; t is built from J on the first
        # read of .t, and the (count, 2) points from t on the first read of
        # .points, each one block at a time
        calls, inversions = [], []
        point, t_from_mass = FractalCurve.point, StaircaseTable.t_from_mass

        def counted(curve, t):
            calls.append(len(t))
            return point(curve, t)

        def counted_inverse(table, s):
            inversions.append(np.size(s))
            return t_from_mass(table, s)

        monkeypatch.setattr(FractalCurve, "point", counted)
        monkeypatch.setattr(StaircaseTable, "t_from_mass", counted_inverse)
        dist = DistributionOnCurve.memoryless(koch_table, 1.3)
        drawn = []
        assert traced_peak(lambda: drawn.append(dist.sample(7, count))) <= 8 * count + 2 ** 21
        assert calls == [] and inversions == []
        smp = drawn[0]
        assert traced_peak(lambda: smp.points) <= 32 * count + 2 ** 21
        assert sum(calls) == count
        assert smp.points is smp.points
        assert len(calls) == -(-count // _BLOCK)
        assert sum(inversions) == count and len(inversions) == len(calls)
        t = smp.t
        assert smp.t is t
        np.testing.assert_array_equal(t.view(np.int64),
                                      t_from_mass(koch_table, smp.j).view(np.int64))

    def test_plateau_hits_are_counted_once_at_draw_time(self):
        # the draws' hits are counted from J when they are drawn; building
        # t later through t_from_mass leaves the table's count as it was
        with pytest.warns(UserWarning, match="flat cells"):
            table = build_staircase(subnormal_plateau_polyline(), grid_size=5)
        with pytest.warns(UserWarning, match="flat cells"):
            fresh = build_staircase(subnormal_plateau_polyline(), grid_size=5)
        before = table.plateau_hits
        smp = DistributionOnCurve.uniform(table).sample(11, 30001)
        fresh.t_from_mass(smp.j)
        assert smp.plateau_hits == fresh.plateau_hits > 0
        assert table.plateau_hits - before == smp.plateau_hits
        smp.t, smp.points
        assert table.plateau_hits - before == smp.plateau_hits

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
    def test_block_arrays_stay_off_mmap(self):
        # glibc maps every allocation of 128 KiB or more afresh and faults
        # its pages in again; a block's arrays stay below that. On x86_64
        # with glibc 2.36, 16,384-row blocks took ~36,000 minor faults and
        # 8,192-row ones ~1,800
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(fractalcalc.__file__).parent.parent), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", FAULTS], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 5000

    def test_count_floor(self, koch_table):
        with pytest.raises(CurveDomainError):
            DistributionOnCurve.uniform(koch_table).sample(0, 0)

    def test_plateau_draws_snap_right_and_count(self):
        # a microscopic edge underflows to a flat staircase cell at alpha=2
        table = build_staircase(plateau_polyline(), alpha=2.0, grid_size=4)
        assert table.plateau_cells >= 1
        flat = np.flatnonzero(np.diff(table.s) == 0.0)[0]
        t = table.t_from_mass(float(table.s[flat]))
        assert t == pytest.approx(float(table.t[flat + 1]))
        assert table.plateau_hits >= 1


class TestMoments:
    def test_uniform_line_mean(self, unit_line_table):
        dist = DistributionOnCurve.uniform(unit_line_table)
        np.testing.assert_allclose(dist.mean(), [0.5], atol=1e-9)

    def test_uniform_line_second_moment(self, unit_line_table):
        dist = DistributionOnCurve.uniform(unit_line_table)
        np.testing.assert_allclose(dist.moment(2), [1.0 / 3.0], atol=1e-9)

    def test_uniform_line_variance(self, unit_line_table):
        dist = DistributionOnCurve.uniform(unit_line_table)
        np.testing.assert_allclose(dist.variance(), [1.0 / 12.0], atol=1e-9)

    def test_variance_identity(self, koch_table):
        dist = DistributionOnCurve.uniform(koch_table)
        direct = dist.variance()
        algebraic = dist.moment(2) - dist.mean() ** 2
        np.testing.assert_allclose(direct, algebraic, atol=1e-6)

    def test_mean_against_monte_carlo(self, koch_table):
        # panels aligned with the table grid keep the quadrature exact on
        # the oscillatory coordinate functions
        dist = DistributionOnCurve.uniform(koch_table)
        sample = dist.sample(100, 10 ** 6)
        mu = dist.mean()
        se = sample.points.std(axis=0, ddof=1) / math.sqrt(len(sample.t))
        assert np.all(np.abs(sample.points.mean(axis=0) - mu) <= 3.0 * se)

    def test_point_mass_limit(self, unit_line_table):
        # tightening the bump shrinks the variance toward zero
        sizes = []
        for width in (0.2, 0.05, 0.01):
            dist = DistributionOnCurve.custom(
                unit_line_table,
                lambda j, w=width: math.exp(-(((j - 0.5) / w) ** 2)),
            )
            sizes.append(float(dist.variance()[0]))
        assert sizes[0] > sizes[1] > sizes[2]
        assert sizes[2] < 1e-3

    def test_moment_order_floor(self, unit_line_table):
        with pytest.raises(CurveDomainError):
            DistributionOnCurve.uniform(unit_line_table).moment(0)

    def test_moment_of_j_option(self, unit_line_table):
        dist = DistributionOnCurve.uniform(unit_line_table)
        assert dist.moment_of_j(1) == pytest.approx(0.5, abs=1e-9)

    def test_custom_pdf_runs_once_per_node(self, unit_line_table):
        # the 2048-panel normalizing grid once, then three Gauss nodes per
        # cell once per law
        calls = []

        def pdf(j):
            calls.append(j)
            return math.exp(-j)

        dist = DistributionOnCurve.custom(unit_line_table, pdf)
        dist.mean(), dist.variance(), dist.moment(2), dist.moment_of_j(1)
        cells = len(np.union1d(unit_line_table.t, unit_line_table.curve.knots)) - 1
        assert len(calls) == 2049 + 3 * cells

    def test_koch5_uniform_mean_y(self):
        # exact: equal mass on every edge, each traversed linearly in J, so the
        # mean is the average of the edge midpoints
        dist = DistributionOnCurve.uniform(build_staircase(build_koch(5)))
        assert dist.mean()[1] == pytest.approx(0.0961311, abs=1e-7)


#: Two-sided z band with false-alarm rate 1e-6 per check.
Z_BAND = 4.89


def _assert_within_band(value, stat, se):
    assert np.all(np.abs(np.asarray(value) - stat) <= Z_BAND * se), (value, stat, se)


@pytest.mark.parametrize("table, lam", [
    (build_staircase(build_koch(5)), 1.3),
    (build_staircase(lognormal_walk(11, 64, 2)), None),
], ids=["koch5", "lognormal-walk"])
def test_truncated_variance_is_the_drawn_variance_times_the_cap(table, lam):
    # like mean, the variance of a truncated law is the reachable mass times
    # the drawn law's: centred on the drawn mean, not on the analytic one
    dist = DistributionOnCurve.memoryless(table, lam or 1.0 / table.total_mass)
    cap = 1.0 - dist.truncated_mass
    assert cap < 0.7
    n = 2 * 10 ** 5
    x = dist.sample(3, n).points
    var = x.var(axis=0, ddof=1)
    m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
    _assert_within_band(dist.variance(), cap * var, cap * np.sqrt((m4 - var ** 2) / n))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), edges=st.integers(8, 256),
       dim=st.sampled_from([2, 3]), lam_per_mass=st.floats(0.5, 3.0))
def test_moments_agree_with_same_seed_sample(seed, edges, dim, lam_per_mass):
    # the quadrature integrates the law the sampler draws, on any polyline
    table = build_staircase(lognormal_walk(seed, edges, dim))
    n = 2 * 10 ** 5
    uniform = DistributionOnCurve.uniform(table)
    x = uniform.sample(seed, n).points
    var = x.var(axis=0, ddof=1)
    m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
    _assert_within_band(uniform.mean(), x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(n))
    _assert_within_band(uniform.variance(), var, np.sqrt((m4 - var ** 2) / n))
    # the analytic law is not renormalized over the truncated tail
    memoryless = DistributionOnCurve.memoryless(table, lam_per_mass / table.total_mass)
    scale = 1.0 - memoryless.truncated_mass
    smp = memoryless.sample(seed, n)
    _assert_within_band(memoryless.mean(), scale * smp.points.mean(axis=0),
                        scale * smp.points.std(axis=0, ddof=1) / math.sqrt(n))
    var = smp.points.var(axis=0, ddof=1)
    m4 = ((smp.points - smp.points.mean(axis=0)) ** 4).mean(axis=0)
    _assert_within_band(memoryless.variance(), scale * var, scale * np.sqrt((m4 - var ** 2) / n))
    j2 = smp.j ** 2
    _assert_within_band(memoryless.moment_of_j(2), scale * j2.mean(),
                        scale * j2.std(ddof=1) / math.sqrt(n))


class TestRetrace:
    """A polyline that runs out along the x axis and back to its start:
    every point of the curve sits at two mass coordinates, so moments
    must be taken at the quadrature's (t, J) tags, not recovered from
    points."""

    @pytest.fixture(scope="class")
    def retrace_table(self):
        curve = build_polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], 1.0)
        return build_staircase(curve)

    def test_uniform_mass_moment(self, retrace_table):
        dist = DistributionOnCurve.uniform(retrace_table)
        assert dist.moment_of_j(1) == pytest.approx(1.0, abs=1e-6)

    def test_memoryless_mean(self, retrace_table):
        # x = J out to J = 1 and 2 - J on the way back, against exp(-J)
        dist = DistributionOnCurve.memoryless(retrace_table, 1.0)
        expected = 1.0 - 2.0 / math.e + math.exp(-2.0)
        assert dist.mean()[0] == pytest.approx(expected, abs=1e-6)
