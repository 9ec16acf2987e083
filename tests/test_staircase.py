import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalcalc import (
    KOCH_DIMENSION,
    FractalCurve,
    build_koch,
    build_line,
    build_polyline,
    build_staircase,
    coarse_mass,
    gamma_dimension,
    mass_function,
    sigma_alpha,
)
from fractalcalc.errors import CurveDomainError, EstimationError, GeometryError
from fractalcalc import staircase as sc
from fractalcalc.curves import _BLOCK, _chord_lengths, _clip_one
from conftest import X86_V4, traced_peak
from walks import (lognormal_walk, plateau_polyline, subnormal_plateau_polyline,
                   underflow_polyline)

DATA = Path(__file__).parent / "data"

GAMMA_DIM = math.gamma(KOCH_DIMENSION + 1.0)


def test_koch_dimension_identity():
    # the algebraic identity the self-similar oracles rest on
    assert abs(3.0 ** KOCH_DIMENSION - 4.0) < 1e-12


class TestSigmaAlpha:
    def test_line_single_segment(self):
        line = build_line(0, 1)
        assert sigma_alpha(line, [0.0, 1.0], 1.0) == pytest.approx(1.0)

    def test_koch_level1_grid_at_dimension(self):
        # 4 chords of length 1/3 each: 4 * 3^-alpha / Gamma = 1 / Gamma
        curve = build_koch(3)
        val = sigma_alpha(curve, np.linspace(0, 1, 5), KOCH_DIMENSION)
        assert val == pytest.approx(1.0 / GAMMA_DIM, rel=1e-12)

    def test_line_alpha2_hand_sum(self):
        # (0.5^2 + 0.5^2) / Gamma(3) = 0.5 / 2
        line = build_line(0, 1)
        val = sigma_alpha(line, [0.0, 0.5, 1.0], 2.0)
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(CurveDomainError):
            sigma_alpha(build_line(0, 1), [0.0, 0.5, 1.0], 0.0)

    @pytest.mark.parametrize("points", [
        [0.5], [0.0, 0.5, 0.5, 1.0], [1.0, 0.0], [[0.0, 0.5], [0.5, 1.0]],
    ], ids=["single", "repeated", "decreasing", "2-d"])
    def test_rejects_bad_points(self, points):
        with pytest.raises(CurveDomainError, match="strictly increasing"):
            sigma_alpha(build_line(0, 1), points, 1.0)


class TestCoarseMass:
    def test_line_total_length_any_delta(self):
        line = build_line(0, 1)
        for delta in (0.7, 0.2, 0.03, 0.001):
            assert coarse_mass(line, 0, 1, 1.0, delta) == pytest.approx(1.0)

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_koch_at_dimension(self, level):
        curve = build_koch(level)
        val = coarse_mass(curve, 0, 1, KOCH_DIMENSION, 4.0 ** (-level))
        assert val == pytest.approx(1.0 / GAMMA_DIM, abs=1e-6)

    def test_koch_alpha1_grows_like_polyline_length(self):
        for level in (3, 4, 5):
            curve = build_koch(level)
            val = coarse_mass(curve, 0, 1, 1.0, 4.0 ** (-level))
            assert val == pytest.approx((4.0 / 3.0) ** level, rel=1e-9)

    def test_monotone_in_delta_at_and_below_dimension(self):
        curve = build_koch(5)
        for alpha in (1.0, 1.1, KOCH_DIMENSION):
            ladder = [4.0 ** (-k) for k in range(1, 6)]
            masses = [coarse_mass(curve, 0, 1, alpha, d) for d in ladder]
            diffs = np.diff(masses)
            assert np.all(diffs >= -1e-12 * np.abs(masses[:-1]))

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75, 3.0 / 16.0, 11.0 / 16.0])
    def test_additivity_at_quaternary_breakpoints(self, b):
        curve = build_koch(6)
        delta = 4.0 ** (-5)
        whole = coarse_mass(curve, 0, 1, KOCH_DIMENSION, delta)
        left = coarse_mass(curve, 0, b, KOCH_DIMENSION, delta)
        right = coarse_mass(curve, b, 1, KOCH_DIMENSION, delta)
        assert abs(whole - left - right) <= 1e-6 * whole

    def test_rejects_bad_delta(self):
        with pytest.raises(CurveDomainError):
            coarse_mass(build_line(0, 1), 0, 1, 1.0, 0.0)

    @pytest.mark.parametrize("delta", [1.0, 1e300, math.inf])
    def test_delta_past_the_width_takes_the_chord(self, delta):
        # the level-0 lattice [a, b]; an infinite delta raised a bare
        # "math domain error" from the lattice's logarithm
        assert coarse_mass(build_koch(2), 0, 1, 1.0, delta) == 1.0
        assert coarse_mass(build_koch(2), 0.25, 0.5, 1.0, delta) == 1.0 / 3.0


class TestMassFunction:
    def test_line_finite_one(self):
        est = mass_function(build_line(0, 1), 0, 1, 1.0)
        assert est.verdict == "finite"
        assert est.estimate == pytest.approx(1.0)

    def test_koch_finite_at_dimension(self):
        est = mass_function(build_koch(6), 0, 1, KOCH_DIMENSION)
        assert est.verdict == "finite"
        assert est.estimate == pytest.approx(1.0 / GAMMA_DIM, abs=1e-6)

    def test_koch_zero_above_dimension(self):
        # sigma at level k scales like 4^k 3^(-1.5 k) -> 0
        est = mass_function(build_koch(6), 0, 1, 1.5)
        assert est.verdict == "zero"
        assert est.estimate == 0.0
        ratios = np.array(est.masses[1:]) / np.array(est.masses[:-1])
        np.testing.assert_allclose(ratios, 4.0 * 3.0 ** (-1.5), rtol=1e-9)

    def test_koch_divergent_below_dimension(self):
        est = mass_function(build_koch(6), 0, 1, 1.0)
        assert est.verdict == "divergent"
        assert math.isinf(est.estimate)


class TestGammaDimension:
    def test_line_is_one(self):
        assert gamma_dimension(build_line(0, 1)).value == pytest.approx(1.0, abs=1e-2)

    def test_koch_level6(self):
        est = gamma_dimension(build_koch(6))
        assert abs(est.value - KOCH_DIMENSION) <= 0.02

    def test_koch_level0_is_segment(self):
        assert gamma_dimension(build_koch(0)).value == pytest.approx(1.0, abs=1e-2)

    def test_tol_floor(self):
        with pytest.raises(CurveDomainError):
            gamma_dimension(build_koch(3), tol=1e-5)

    def test_nan_tol_rejected(self):
        with pytest.raises(CurveDomainError):
            gamma_dimension(build_koch(3), tol=math.nan)

    def test_tol_wider_than_bracket_raises(self):
        # a tolerance above n - 1 would end the bisection before any step
        with pytest.raises(CurveDomainError, match="tol"):
            gamma_dimension(build_koch(3), tol=5.0)
        gamma_dimension(build_koch(3), tol=1.0)  # exactly n - 1 still bisects once

    def test_r1_curve_is_one_at_any_tol(self):
        est = gamma_dimension(build_line(0, 1), tol=5.0)
        assert est.value == 1.0 and est.trace == []

    def test_non_bracketing_raises(self, monkeypatch):
        monkeypatch.setattr(sc, "_classify_limit", lambda masses: ("zero", 0.0))
        with pytest.raises(EstimationError):
            sc.gamma_dimension(build_koch(3))


def _rotated_koch6():
    koch = build_koch(6)
    c, s = math.cos(0.3), math.sin(0.3)
    return build_polyline(koch.knots, koch.vertices @ np.array([[c, s], [-s, c]]),
                          koch.alpha)


def _koch_polyline(level, relabel):
    koch = build_koch(level)
    return build_polyline(relabel(koch.knots), koch.vertices, koch.alpha)


class TestLadderCache:
    """gamma_dimension builds each rung's chords once and coarse_mass
    keeps nothing on the curve; results must not depend on what was asked
    before."""

    TRACES = json.loads((DATA / "dimension_traces.json").read_text())
    if not X86_V4:
        # the ladder's power sums round differently below X86_V4
        TRACES.update(json.loads((DATA / "dimension_traces_no_x86_v4.json").read_text()))

    @pytest.mark.parametrize("name, make", [
        ("koch7", lambda: build_koch(7)),
        ("rotated_koch6", _rotated_koch6),
        ("walk3d", lambda: lognormal_walk(3, 4096, 3)),
    ])
    def test_traces_are_pinned(self, name, make):
        # compared exactly
        pinned = self.TRACES[name]
        est = gamma_dimension(make())
        assert est.value == pinned["value"]
        assert [[alpha, m.verdict, m.masses] for alpha, m in est.trace] == pinned["trace"]

    @pytest.mark.parametrize("make", [lambda: build_koch(6),
                                      lambda: lognormal_walk(0, 256, 2)],
                             ids=["koch6", "walk"])
    def test_segment_switches_match_fresh_curves(self, make):
        curve = make()
        for a, b in [(0.0, 1.0), (0.0, 0.25), (0.0, 1.0)]:
            for alpha in (1.0, KOCH_DIMENSION, 1.7):
                for delta in (0.3 * (b - a), 4.0 ** -5):
                    assert coarse_mass(curve, a, b, alpha, delta) == \
                        coarse_mass(make(), a, b, alpha, delta)
                assert mass_function(curve, a, b, alpha).masses == \
                    mass_function(make(), a, b, alpha).masses

    @pytest.mark.parametrize("make, rungs, interpolated", [
        (lambda: build_koch(6), 6, False),
        (lambda: _koch_polyline(6, lambda t: 5.0 * t), 6, False),
        (lambda: _koch_polyline(6, lambda t: t + 0.3), 6, False),
        (lambda: lognormal_walk(2, 4096, 2), 6, True),
    ], ids=["koch6", "knots-5t", "knots-t+0.3", "walk"])
    def test_bisection_reuses_rung_chords(self, monkeypatch, make, rungs, interpolated):
        curve = make()
        calls, points = [], []
        chords, point = FractalCurve.chords, FractalCurve.point

        def counting_chords(self, t):
            calls.append(len(t))
            return chords(self, t)

        def counting_points(self, t):
            points.append(len(np.atleast_1d(t)))
            return point(self, t)

        monkeypatch.setattr(FractalCurve, "chords", counting_chords)
        monkeypatch.setattr(FractalCurve, "point", counting_points)
        est = gamma_dimension(curve)
        assert len(est.trace) > 2
        # one chord array per rung, over the domain's 4^j cells, whatever
        # the units of t
        assert calls == [4 ** j + 1 for j in range(1, rungs + 1)]
        # a rung of every s-th knot reads the vertices; a walk's rungs
        # lie between its knots and are interpolated, one block each
        assert points == (calls if interpolated else [])

    @pytest.mark.parametrize("a, b, j", [
        (2.0, 6.0, 0), (2.0, 6.0, 3), (2.5, 3.7, 2), (3.0, 4.0, 1), (2.1, 2.2, 1),
    ])
    def test_lattice_points_follow_the_domain(self, a, b, j):
        curve = build_polyline([2.0, 4.0, 6.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 1.0)
        i = np.arange(4 ** j + 1, dtype=float)
        lattice = 2.0 + 4.0 * (i * 4.0 ** -j)
        inside = lattice[(lattice >= a) & (lattice <= b)]
        np.testing.assert_array_equal(sc._lattice_points(curve, a, b, 4.0 * 4.0 ** -j),
                                      np.unique(np.concatenate(([a], inside, [b]))))

    @pytest.mark.parametrize("curve, b, delta", [
        (build_koch(3), 1.0, 1e-6),
        # width / delta overflows to inf
        (build_koch(2), 1.0, 1e-310),
        (build_line(0, 1e300), 1e300, 1e-10),
    ], ids=["koch3", "subnormal-delta", "wide-domain"])
    def test_lattice_cap_names_delta(self, curve, b, delta):
        with pytest.raises(CurveDomainError, match=f"delta={delta}.*cap is {sc._MAX_DIRECT_POINTS}"):
            coarse_mass(curve, 0.0, b, 1.0, delta)

    def test_lattice_cap_is_checked_before_the_lattice_is_built(self):
        # 4^20 + 1 lattice points would take 8.8 TB as float64
        tracemalloc.start()
        try:
            with pytest.raises(CurveDomainError, match="delta=1e-12"):
                coarse_mass(build_line(0, 1), 0.0, 1.0, 1.0, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _one_pass_chords(curve, points):
    return _chord_lengths(curve.point(points).T)


_BLOCK_EDGE_COUNTS = [2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1]


class TestChordBlocks:
    """``FractalCurve.chords`` takes its points in overlapping blocks; every chord,
    and so every staircase S, is the same double as in one pass."""

    @pytest.mark.parametrize("count", _BLOCK_EDGE_COUNTS)
    @pytest.mark.parametrize("make", [lambda: build_koch(8),
                                      lambda: lognormal_walk(3, 4096, 3)],
                             ids=["koch8", "walk3d"])
    def test_chords_match_one_pass(self, make, count):
        curve = make()
        points = np.linspace(*curve.domain, count)
        got = curve.chords(points)
        assert got.tobytes() == _one_pass_chords(curve, points).tobytes()

    @pytest.mark.parametrize("count", _BLOCK_EDGE_COUNTS)
    @pytest.mark.parametrize("make", [lambda: _koch_polyline(8, lambda t: t * t),
                                      lambda: lognormal_walk(3, 4096, 3)],
                             ids=["koch8-squared-knots", "walk3d"])
    def test_staircase_matches_one_pass(self, monkeypatch, make, count):
        # knots off the quaternary lattice, so the grid takes count points
        curve = make()
        table = build_staircase(curve, grid_size=count - 1)
        assert len(table.t) == count
        monkeypatch.setattr(FractalCurve, "chords", _one_pass_chords)
        assert table.s.tobytes() == build_staircase(curve, grid_size=count - 1).s.tobytes()

    def test_koch10_dimension_peak_memory(self):
        # the 16 MiB vertices, 8 MiB knots, knot index and rung chords; one
        # pass over a 65,537-point rung made it 29.7 MiB
        assert traced_peak(lambda: gamma_dimension(build_koch(10))) <= 27 * 2 ** 20

    def test_koch10_staircase_peak_memory(self):
        # the knots are tested against linspace one block at a time: a whole
        # linspace of Koch-10's knots made the peak 9.0 MiB
        curve = build_koch(10)
        assert traced_peak(lambda: build_staircase(curve)) <= 2 ** 20


def _trace_rows(est):
    return [(alpha, m.verdict, m.deltas, m.masses) for alpha, m in est.trace]


def _rungs(curve):
    return len(gamma_dimension(curve).trace[0][1].masses)


class TestKnotsSetTheChoices:
    """The ladder depth and the staircase grid are read from the knots, so
    Koch-L and the polyline of its knots and vertices give one answer."""

    @pytest.mark.parametrize("level", range(9))
    def test_koch_and_its_polyline_agree(self, level):
        koch = build_koch(level)
        poly = build_polyline(koch.knots, koch.vertices, koch.alpha)
        est = gamma_dimension(koch)
        assert _trace_rows(gamma_dimension(poly)) == _trace_rows(est)
        assert len(est.trace[0][1].masses) == max(3, min(level, 8))
        for grid_size in (None, 16, 100, 4 ** level):
            ref = build_staircase(koch, grid_size=grid_size)
            table = build_staircase(poly, grid_size=grid_size)
            assert table.t.tobytes() == ref.t.tobytes()
            assert table.s.tobytes() == ref.s.tobytes()

    @pytest.mark.parametrize("k", [-3, 5])
    @pytest.mark.parametrize("level", range(9))
    def test_dyadic_relabelling_keeps_rungs_and_snapped_grid(self, level, k):
        # t -> 2^k t + 1/4 maps the knots onto the new domain's lattice
        # exactly, so the grid still snaps and reads the same vertices
        koch = build_koch(level)
        moved = _koch_polyline(level, lambda t: 2.0 ** k * t + 0.25)
        assert _rungs(moved) == _rungs(koch)
        if level:
            ref, table = build_staircase(koch), build_staircase(moved)
            np.testing.assert_array_equal(table.t, 2.0 ** k * ref.t + 0.25)
            assert table.s.tobytes() == ref.s.tobytes()

    @pytest.mark.parametrize("count", [2, 5, _BLOCK, _BLOCK + 1, _BLOCK + 2, 4 ** 7 + 1])
    @pytest.mark.parametrize("a, b", [
        (0.0, 1.0), (-0.0, 1.0), (0.3, 1.3), (0.0, 5.0), (-2.5, 0.0),
        # the step underflows to 0 or to a subnormal
        (0.0, 1e-320), (1e-310, 3e-310), (5e-324, 1.5e-323),
        # the width overflows: linspace starts at nan
        (-1e308, 1e308),
    ])
    def test_blocked_linspace_test_is_array_equal(self, a, b, count):
        # the blocked test behind the staircase's snap, against the whole
        # linspace it replaced
        with np.errstate(all="ignore"):
            grid = np.linspace(a, b, count)
            nudged = []
            for i in {0, 1, count // 2, count - 2, count - 1}:
                x = grid.copy()
                x[i] = np.nextafter(x[i], math.inf)
                nudged.append(x)
            for x in [grid, *nudged]:
                want = np.array_equal(x, np.linspace(x[0], x[-1], len(x)))
                assert sc._is_linspace(x) == want


def _koch_shape(level):
    if level == "rotated6":
        return _rotated_koch6()
    return _koch_polyline(level, lambda t: t)


def _log_uniform(decades):
    return st.floats(-decades, decades).map(lambda e: 10.0 ** e)


def _relabelling_examples(test):
    """Fixed rows for the relabelling property: Hypothesis seeds its draws
    with constants from every imported module, so the drawn examples
    depend on which test files are collected, and these do not."""
    for level, reverse, c in itertools.product([0, 3, 6, "rotated6"], [False, True],
                                               [5.0, 2.0 ** -3]):
        test = example(level=level, c=c, d=0.3, reverse=reverse, s=7.0, theta=0.3,
                       v=(1.0, -2.0))(test)
    return test


class TestRelabellingInvariance:
    """The dimension belongs to the curve: an affine change of t, a
    reversal, or a similarity of R^2 leaves the estimate within tol."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @_relabelling_examples
    @given(level=st.sampled_from([0, 1, 2, 3, 4, 5, 6, "rotated6"]),
           c=_log_uniform(3), d=st.floats(-10.0, 10.0), reverse=st.booleans(),
           s=_log_uniform(10), theta=st.floats(0.0, 2.0 * math.pi),
           v=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    def test_dimension_ignores_units_of_t_and_x(self, level, c, d, reverse, s, theta, v):
        shape = _koch_shape(level)
        knots = c * shape.knots + d
        rot = np.array([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        verts = s * (shape.vertices @ rot) + np.asarray(v)
        if reverse:
            knots, verts = -knots[::-1], verts[::-1]
        est = gamma_dimension(build_polyline(knots, verts, 1.0))
        assert abs(est.value - gamma_dimension(shape).value) <= 1e-2


#: Vertex scales out to where the chords' squares leave the float range
#: (about 1e-154 and 1e154).
_SCALES = [1e-150, 1e-100, 1e-50, 1e-12, 1e-10, 1e-8, 1e-4,
           1e4, 1e6, 1e8, 1e10, 1e12, 1e50, 1e100, 1e150]


def _ladders():
    """Five-rung mass ladders m0 r^i, each rung jittered: Cauchy,
    geometric trends both ways and the fallback all occur."""
    return st.builds(
        lambda m0, r, jitter: [m0 * r ** i * e for i, e in enumerate(jitter)],
        st.floats(1e-3, 1e3), st.floats(0.25, 4.0),
        st.lists(st.floats(0.99, 1.01), min_size=5, max_size=5))


class TestUnitsOfX:
    """A verdict compares the masses of one ladder with each other, so
    scaling the vertices moves no verdict and no dimension."""

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("level", [3, 4, 5, 6, "rotated6"])
    def test_dimension_of_scaled_vertices_is_exact(self, level, scale):
        shape = _koch_shape(level)
        scaled = build_polyline(shape.knots, scale * shape.vertices, 1.0)
        assert gamma_dimension(scaled).value == gamma_dimension(shape).value

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(masses=_ladders(), k=st.integers(-600, 600))
    def test_verdict_is_scale_free(self, masses, k):
        # multiplying by 2^k is exact: every ratio and difference of the
        # ladder scales exactly, so the verdict must not move
        verdict, estimate = sc._classify_limit(masses)
        scaled = [math.ldexp(m, k) for m in masses]
        assert sc._classify_limit(scaled) == (verdict, math.ldexp(estimate, k))

    @pytest.mark.parametrize("masses, verdict", [
        ([1.0, 2.0, math.inf], ("divergent", math.inf)),
        ([1e-300, 1e-310, 0.0], ("zero", 0.0)),
    ], ids=["overflow", "underflow"])
    def test_float_range_edges(self, masses, verdict):
        assert sc._classify_limit(masses) == verdict


class TestStaircase:
    def test_line_identity(self):
        table = build_staircase(build_line(0, 1))
        t = np.linspace(0, 1, 257)
        np.testing.assert_allclose(table.value(t), t, atol=1e-12)

    def test_koch_linear_at_quaternary_points(self):
        table = build_staircase(build_koch(6))
        total = table.s[-1]
        assert total == pytest.approx(1.0 / GAMMA_DIM, rel=1e-9)
        for level in (1, 2, 3, 6):
            t = np.arange(4 ** level + 1) / 4.0 ** level
            err = np.abs(table.value(t) - t * total).max() / total
            assert err < 1e-6

    def test_sign_convention_around_p0(self):
        table = build_staircase(build_line(0, 1), p0=0.5)
        assert table.value(0.0) == pytest.approx(-0.5, abs=1e-12)
        assert table.value(1.0) == pytest.approx(0.5, abs=1e-12)
        assert table.value(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_non_decreasing(self):
        table = build_staircase(build_koch(5))
        assert np.all(np.diff(table.s) >= 0.0)

    def test_p0_outside_domain(self):
        with pytest.raises(CurveDomainError):
            build_staircase(build_line(0, 1), p0=2.0)


class TestChart:
    def test_origin_maps_to_zero(self):
        curve = build_koch(4)
        table = build_staircase(curve)
        assert table.j_of_theta(curve.point(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_line_identity_chart(self):
        table = build_staircase(build_line(0, 1))
        assert table.j_of_theta(np.array([0.75])) == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(table.j_inverse(0.3), [0.3], atol=1e-12)

    def test_koch_quarter_point(self):
        curve = build_koch(5)
        table = build_staircase(curve)
        val = table.j_of_theta(curve.point(0.25))
        assert val == pytest.approx(table.s[-1] / 4.0, rel=1e-9)

    def test_round_trip_on_random_masses(self):
        curve = build_koch(5)
        table = build_staircase(curve)
        np.testing.assert_allclose(table.j_inverse(0.0), curve.point(0.0), atol=1e-12)
        rng = np.random.default_rng(7)
        masses = rng.uniform(0.0, table.s[-1], 100)
        for s in masses:
            assert table.j_of_theta(table.j_inverse(s)) == pytest.approx(s, abs=1e-9)
        # chart is strictly increasing along the parameter order
        t = np.linspace(0, 1, 200)
        vals = table.value(t)
        assert np.all(np.diff(vals) > 0.0)

    def test_off_curve_point_rejected(self):
        table = build_staircase(build_koch(3))
        with pytest.raises(GeometryError):
            table.j_of_theta(np.array([0.5, -0.3]))

    @pytest.mark.parametrize("scale", [1e8, 1e10, 1e14])
    def test_points_of_scaled_vertices_stay_on_the_curve(self, scale):
        # point(t) rounds in ulps of the coordinates, so the snap
        # tolerance grows with them; a point off by 1e-6 of them is not
        # on the curve at any scale
        koch = build_koch(4)
        curve = build_polyline(koch.knots, scale * koch.vertices, koch.alpha)
        table = build_staircase(curve)
        t = np.linspace(0.0, 1.0, 1001)
        err = np.abs(table.j_of_many(curve.point(t)) - table.value(t))
        assert err.max() <= 64 * _EPS * table.total_mass
        with pytest.raises(GeometryError):
            table.j_of_theta(curve.point(0.5) + [0.0, 1e-6 * scale])

    @pytest.mark.parametrize("thetas", [[[0.0]], [[0.0], [0.5], [1.0]], [0.0, 0.0]],
                             ids=["one-coordinate", "three-one-coordinate", "flat"])
    def test_j_of_many_checks_coordinate_count(self, thetas):
        table = build_staircase(build_koch(3))
        with pytest.raises(GeometryError, match=r"\(m, 2\)"):
            table.j_of_many(thetas)

    def test_out_of_range_mass_rejected(self):
        table = build_staircase(build_line(0, 1))
        with pytest.raises(CurveDomainError):
            table.j_inverse(1.5)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_mass_tolerance_follows_the_mass_range(self, scale):
        # the slack is 1e-9 of the mass range: an absolute 1e-9 would span 14
        # mass ranges at scale 1e-8 and fall below one ulp of hi at scale 1e8
        koch = build_koch(3)
        table = build_staircase(build_polyline(koch.knots, scale * koch.vertices, 1.26))
        lo, hi = table.mass_bounds
        assert table.t_from_mass([lo - 0.5e-9 * hi, hi + 0.5e-9 * hi]).tolist() == [0.0, 1.0]
        for bad in (lo - 2e-9 * hi, hi + 2e-9 * hi):
            with pytest.raises(CurveDomainError):
                table.t_from_mass(bad)

    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan], [math.nan, 0.2]])
    def test_nan_rejected(self, bad):
        table = build_staircase(build_line(0, 1))
        for query in (table.value, table.t_from_mass, table.j_inverse):
            with pytest.raises(CurveDomainError):
                query(bad)

    @pytest.mark.parametrize("theta", [[math.nan, 0.0], [0.5, math.nan]])
    def test_nan_point_rejected(self, theta):
        table = build_staircase(build_koch(3))
        with pytest.raises(GeometryError):
            table.j_of_theta(theta)
        with pytest.raises(GeometryError):
            table.j_of_many([[0.0, 0.0], theta])

    def test_nan_on_a_flat_cell_rejected(self):
        # a nan mass must not come back as the flat cell's right edge
        with pytest.warns(UserWarning):
            table = build_staircase(underflow_polyline(), alpha=2.0, grid_size=8)
        with pytest.raises(CurveDomainError):
            table.t_from_mass(math.nan)

    def test_inverse_chart_stays_in_the_domain(self):
        # (t1 - t0) * 1.0 + t0 rounds one ulp past b in this table's last cell
        curve = build_line(974851.7379447774, 6057124.516132095)
        table = build_staircase(curve, 1.0, 1700069.5781426555, 1)
        lo, hi = table.mass_bounds
        a, b = curve.domain
        t = table.t_from_mass(np.array([lo, hi, np.nextafter(hi, -np.inf)]))
        assert np.all((a <= t) & (t <= b))
        assert table.t_from_mass(hi) == b
        np.testing.assert_array_equal(table.j_inverse(hi), curve.point(b))

    def test_empty_queries_pass_the_range_checks(self):
        table = build_staircase(build_line(0, 1))
        assert table.value(np.empty(0)).shape == (0,)
        assert table.t_from_mass(np.empty(0)).shape == (0,)


_EPS = np.finfo(float).eps

_WALKS = dict(seed=st.integers(0, 2 ** 32 - 1), edges=st.integers(8, 256),
              dim=st.sampled_from([2, 3]))


def _walk_table(seed, edges, dim):
    """Staircase of a lognormal walk, with 200 parameters drawn over [0, 1]."""
    table = build_staircase(lognormal_walk(seed, edges, dim))
    return table, np.random.default_rng(seed).uniform(0.0, 1.0, 200)


def _slopes_near(table, t):
    """Least and greatest dS/dt over the table cell holding each t and its
    two neighbours: a query rounded across a cell end lands in one of them."""
    slope = np.diff(table.s) / np.diff(table.t)
    padded = np.concatenate(([slope[0]], slope, [slope[-1]]))
    near = np.stack([padded[:-2], padded[1:-1], padded[2:]])
    cell = np.clip(np.searchsorted(table.t, t, side="right") - 1, 0, len(slope) - 1)
    return near.min(axis=0)[cell], near.max(axis=0)[cell]


class TestStaircaseProperties:
    """S and its charts on random 2-D and 3-D walks whose knot spacing is
    lognormal. Each bound is a few ulps carried through the chart's
    conditioning."""

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_WALKS)
    def test_monotone(self, seed, edges, dim):
        table, t = _walk_table(seed, edges, dim)
        assert np.all(np.diff(table.s) >= 0.0)
        assert np.all(np.diff(table.value(np.sort(t))) >= 0.0)

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_WALKS)
    def test_additive_over_a_split(self, seed, edges, dim):
        # mass over [a, c] from the table with origin 0, plus the mass over
        # [c, b] that the table with origin c reads at b, is the mass over [a, b]
        table, t = _walk_table(seed, edges, dim)
        c = table.t[np.searchsorted(table.t, t[0])]
        from_c = build_staircase(table.curve, p0=c)
        np.testing.assert_array_equal(from_c.t, table.t)
        a, b = np.minimum(t[:100], c), np.maximum(t[100:], c)
        split = (table.value(c) - table.value(a)) + from_c.value(b)
        whole = table.value(b) - table.value(a)
        assert np.abs(split - whole).max() <= 8 * _EPS * table.total_mass

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_WALKS)
    def test_inverse_chart_recovers_the_parameter(self, seed, edges, dim):
        # S(t) is off by a few ulps of S, which the inverse divides by the
        # slope of the cell it lands in
        table, t = _walk_table(seed, edges, dim)
        least, _ = _slopes_near(table, t)
        off = least > 0.0  # off plateaus
        bound = 8 * _EPS * (table.total_mass / least[off] + 1.0)
        assert np.all(np.abs(table.t_from_mass(table.value(t[off])) - t[off]) <= bound)

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(**_WALKS)
    def test_projection_recovers_the_mass(self, seed, edges, dim):
        # point(t) is off by a few ulps of the largest coordinate; projected
        # onto t's edge, that moves t by those ulps over the edge's length
        # times its parameter span, and S by the cell slope times that
        table, t = _walk_table(seed, edges, dim)
        curve = table.curve
        edge = np.clip(np.searchsorted(curve.knots, t, side="right") - 1,
                       0, curve.edge_count - 1)
        length = np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1)[edge]
        span = np.diff(curve.knots)[edge]
        moved = 8 * _EPS * (np.abs(curve.vertices).max() * span / length + 1.0)
        bound = _slopes_near(table, t)[1] * moved + 8 * _EPS * table.total_mass
        assert np.all(np.abs(table.j_of_many(curve.point(t)) - table.value(t)) <= bound)


#: Tables whose inverse chart is pinned: Koch, lognormal walks (one with
#: p0 inside the domain, so S runs negative), a retrace, a flat cell, an
#: all-zero staircase and two-value grids.
CHART_TABLES = {
    "koch6": lambda: build_staircase(build_koch(6)),
    "koch3-p0": lambda: build_staircase(build_koch(3), p0=0.3, grid_size=4),
    "walk-2d": lambda: build_staircase(lognormal_walk(3, 300, 2)),
    "walk-3d-p0": lambda: build_staircase(lognormal_walk(4, 90, 3), p0=0.55),
    "retrace": lambda: build_staircase(
        build_polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], 1.0)),
    "plateau": lambda: build_staircase(plateau_polyline(), alpha=2.0, grid_size=4),
    "zero-span": lambda: build_staircase(underflow_polyline(), alpha=2.0, grid_size=8),
    "line-one-cell": lambda: build_staircase(build_line(0, 1), grid_size=1),
    "line-p0": lambda: build_staircase(build_line(-1, 2), p0=0.5),
}


class TestChartPins:
    @pytest.mark.parametrize("name, digest", [
        ("koch6", "40ccf5a7b6c4ba31"),
        ("koch3-p0", "36d45d924e11cf94"),
        ("walk-2d", "d6ed2a80d1a786d2"),
        ("walk-3d-p0", "2184e3058c80781c"),
        ("retrace", "390b40fcb28153f0"),
        ("plateau", "42401eff1744f971"),
        ("zero-span", "223a8c47752e9e86"),
        ("line-one-cell", "412a27844bdc7672"),
        ("line-p0", "11d9f837deadd257"),
    ])
    def test_inverse_chart_bytes(self, name, digest):
        # sha256 prefix of t_from_mass and j_inverse at every S value and
        # both of its float neighbours, with the plateau hits they count;
        # the lookups raise no warning, not even on the all-zero staircase
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # flat-cell warning of the plateau tables
            table = CHART_TABLES[name]()
        s = table.s
        queries = np.concatenate((s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = table.t_from_mass(queries)
            pts = table.j_inverse(queries)
        data = b"".join(v.tobytes() for v in (t, pts, np.int64(table.plateau_hits)))
        assert hashlib.sha256(data).hexdigest()[:16] == digest


def _flat_cell_table():
    with pytest.warns(UserWarning, match="flat cells"):
        return build_staircase(subnormal_plateau_polyline(), grid_size=5)


#: Koch-6, a lognormal walk, a staircase with flat cells and a line whose
#: domain starts at -0.0.
ONE_POINT_TABLES = {
    "koch6": lambda: build_staircase(build_koch(6)),
    "walk": lambda: build_staircase(lognormal_walk(5, 200, 2)),
    "plateau": _flat_cell_table,
    "line-signed-zero": lambda: build_staircase(build_line(-0.0, 1.0)),
}


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _with_ends(rng, values, lo, hi):
    """10^4 uniform draws in [lo, hi], ``values``, both ends, +-0.0 where
    they lie in [lo, hi], and one ulp inside and outside each end."""
    zeros = [z for z in (0.0, -0.0) if lo <= z <= hi]
    ends = [lo, hi, np.nextafter(lo, np.inf), np.nextafter(lo, -np.inf),
            np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
    return np.concatenate((rng.uniform(lo, hi, 10 ** 4), values, zeros, ends))


class TestOnePointQueries:
    """A scalar query to ``t_from_mass`` or ``point`` skips the cell index;
    it must give the batch path's bits, signed zeros included."""

    @pytest.fixture(scope="class", params=list(ONE_POINT_TABLES))
    def table(self, request):
        return ONE_POINT_TABLES[request.param]()

    def test_masses_match_the_batch(self, table):
        lo, hi = table.mass_bounds
        masses = _with_ends(np.random.default_rng(11), table.s, lo, hi)
        before = table.plateau_hits
        want_t = table.t_from_mass(masses)
        batch_hits = table.plateau_hits - before
        got_t = [table.t_from_mass(s) for s in masses.tolist()]
        assert table.plateau_hits - before == 2 * batch_hits
        want_pts = table.j_inverse(masses)
        assert all(type(t) is float for t in got_t)
        np.testing.assert_array_equal(_bits(got_t), _bits(want_t))
        got_pts = [table.j_inverse(s) for s in masses.tolist()]
        np.testing.assert_array_equal(_bits(got_pts), _bits(want_pts))
        # a numpy scalar and a 0-d array take the same path
        for s in (np.float64(masses[0]), np.array(masses[1])):
            assert _bits(table.t_from_mass(s)) == _bits(want_t[masses == s][0])

    def test_parameters_match_the_batch(self, table):
        curve = table.curve
        a, b = curve.domain
        t = _with_ends(np.random.default_rng(12), np.concatenate((table.t, curve.knots)), a, b)
        want = curve.point(t)
        got = [curve.point(x) for x in t.tolist()]
        assert all(p.shape == (curve.ndim,) for p in got)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_errors_match_the_batch(self, table):
        lo, hi = table.mass_bounds
        a, b = table.curve.domain
        for query, bad in [(table.t_from_mass, hi + 1.0), (table.t_from_mass, lo - 1.0),
                           (table.t_from_mass, math.nan), (table.j_inverse, hi + 1.0),
                           (table.j_inverse, math.nan), (table.curve.point, b + 1.0),
                           (table.curve.point, a - 1.0), (table.curve.point, math.nan)]:
            with pytest.raises(CurveDomainError) as one:
                query(bad)
            with pytest.raises(CurveDomainError) as batch:
                query(np.array([bad]))
            assert str(one.value) == str(batch.value)


@pytest.mark.parametrize("x, lo, hi", [
    (x, lo, hi) for x in (0.0, -0.0) for lo, hi in
    [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]])
def test_one_point_clip_keeps_the_sign_of_zero(x, lo, hi):
    # Python's max(-0.0, 0.0) is -0.0 and max(0.0, -0.0) is 0.0: the
    # one-point clip compares, and returns x unless it lies strictly
    # outside a bound, as np.clip does
    assert _bits(_clip_one(x, lo, hi)) == _bits(np.clip(np.array([x]), lo, hi))
    assert _bits(_clip_one(x, lo, hi)) == _bits(x)
