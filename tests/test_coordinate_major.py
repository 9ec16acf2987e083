"""Coordinate-major vertex storage: the per-coordinate kernels against the
row-major formulas they replace, bit for bit, and the layout they keep."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalcalc import (
    DistributionOnCurve,
    build_koch,
    build_line,
    build_polyline,
    build_staircase,
    coarse_mass,
    sigma_alpha,
)
from fractalcalc import staircase as sc
from fractalcalc.curves import _BLOCK, _chord_lengths
from walks import lognormal_walk


# -- row-major reference formulas ---------------------------------------------

def ref_points(curve, t):
    """w(t) from an (m+1, n) row-major vertex array, combined per row."""
    knots = curve.knots
    verts = np.ascontiguousarray(curve.vertices)
    tc = np.clip(np.asarray(t, dtype=float), *curve.domain)
    idx = np.clip(np.searchsorted(knots, tc, side="right") - 1, 0, len(knots) - 2)
    t0 = knots[idx]
    frac = (tc - t0) / (knots[idx + 1] - t0)
    v0 = verts[idx]
    return (verts[idx + 1] - v0) * frac[:, None] + v0


def ref_chords(curve, t):
    seg = np.diff(ref_points(curve, t), axis=0)
    return np.sqrt((seg * seg).sum(axis=1))


def ref_power_sum(chords, alpha):
    return float((chords ** alpha).sum() / math.gamma(alpha + 1.0))


def ref_coarse_mass(curve, a, b, alpha, delta):
    """The lattice chord sum coarse_mass takes, at the coarsest j with
    (d1 - d0) 4^-j <= delta, with every chord from the row-major formula."""
    return ref_power_sum(ref_chords(curve, sc._lattice_points(curve, a, b, delta)), alpha)


def ref_staircase_s(curve, alpha, p0, grid_size):
    t = sc._staircase_grid(curve, grid_size)
    if p0 not in t:
        t = np.sort(np.append(t, p0))
    inc = np.maximum(ref_chords(curve, t) ** alpha, 0.0) / math.gamma(alpha + 1.0)
    cum = np.concatenate(([0.0], np.cumsum(inc)))
    return cum - cum[np.searchsorted(t, p0)]


def ref_polyline_length(curve):
    seg = np.diff(np.ascontiguousarray(curve.vertices), axis=0)
    return float(np.sqrt((seg * seg).sum(axis=1)).sum())


def ref_project(curve, pts):
    """Nearest-segment projection over (point, edge, coordinate) arrays."""
    verts = np.ascontiguousarray(curve.vertices)
    p = verts[:-1]
    d = np.diff(verts, axis=0)
    len2 = (d * d).sum(axis=1)
    rel = pts[:, None, :] - p[None, :, :]
    proj = np.clip((rel * d[None, :, :]).sum(axis=2) / len2[None, :], 0.0, 1.0)
    closest = p[None, :, :] + proj[:, :, None] * d[None, :, :]
    dist2 = ((pts[:, None, :] - closest) ** 2).sum(axis=2)
    best = dist2.argmin(axis=1)
    rows = np.arange(len(pts))
    t0 = curve.knots[best]
    t1 = curve.knots[best + 1]
    return t0 + proj[rows, best] * (t1 - t0), np.sqrt(dist2[rows, best])


def assert_bits_equal(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# -- polylines ------------------------------------------------------------------

#: ±0.0, small integers (repeated coordinates, exact zero steps) and
#: magnitudes from 1e-200 to 1e200 of either sign.
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999), st.integers(-200, 199)),
)


@st.composite
def polylines(draw):
    """A 1-, 2- or 3-D polyline with uneven knots and no repeated
    consecutive vertex."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 24))
    verts = np.array(draw(st.lists(st.lists(_COORDS, min_size=dim, max_size=dim),
                                   min_size=m + 1, max_size=m + 1)))
    repeated = np.all(verts[1:] == verts[:-1], axis=1)
    verts = np.vstack([verts[:1], verts[1:][~repeated]])
    if len(verts) < 2:
        verts = np.vstack([verts, np.where(verts[:1] == 0.0, 1.0, -verts[:1])])
    gaps = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).lognormal(
        0.0, 3.0, len(verts) - 1)
    start = draw(st.sampled_from([0.0, -0.0, -2.5]))
    span = draw(st.sampled_from([1.0, 3.0]))
    knots = np.concatenate(([start], start + span * np.cumsum(gaps) / gaps.sum()))
    return build_polyline(knots, verts, 1.0)


def _queries(curve, seed):
    a, b = curve.domain
    rng = np.random.default_rng(seed)
    return np.concatenate((curve.knots, [a, b], rng.uniform(a, b, 40)))


class TestBitIdentity:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(curve=polylines(), seed=st.integers(0, 2 ** 32 - 1))
    @example(curve=lognormal_walk(5, 40, 3), seed=1)
    @example(curve=build_koch(3), seed=2)
    def test_kernels_match_row_major(self, curve, seed):
        t = _queries(curve, seed)
        a, b = curve.domain
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_bits_equal(curve.point(np.sort(t)), ref_points(curve, np.sort(t)))
            assert_bits_equal(curve.point(t), ref_points(curve, t))
            assert_bits_equal(curve.point(t[-1]), ref_points(curve, t[-1:])[0])
            assert_bits_equal(curve.polyline_length(), ref_polyline_length(curve))
            sub = np.linspace(a, b, 38)
            assert_bits_equal(sigma_alpha(curve, sub, 1.5),
                              ref_power_sum(ref_chords(curve, sub), 1.5))
            assert_bits_equal(coarse_mass(curve, a, b, 1.2, (b - a) / 20),
                              ref_coarse_mass(curve, a, b, 1.2, (b - a) / 20))
            # every s-th knot, and with the sign of a zero end flipped
            for s in _divisors(curve.edge_count):
                knots = curve.knots[::s]
                flipped = np.where(knots == 0.0, -np.copysign(0.0, knots), knots)
                for sub in (knots, flipped):
                    assert_bits_equal(curve.chords(sub), ref_chords(curve, sub))
            p0 = float(t[-1])
            table = build_staircase(curve, alpha=1.3, p0=p0, grid_size=50)
            assert_bits_equal(table.s, ref_staircase_s(curve, 1.3, p0, 50))
            # on-curve points, vertices and points off the curve
            pts = np.concatenate((ref_points(curve, t), np.ascontiguousarray(curve.vertices),
                                  ref_points(curve, t[-5:]) * 1.5 + 0.25))
            got_t, got_d = curve._project(pts)
            want_t, want_d = ref_project(curve, pts)
        assert_bits_equal(got_t, want_t)
        assert_bits_equal(got_d, want_d)

    @pytest.mark.parametrize("verts", [
        [[0.0, 0.0], [-1.0, -1.0], [-2.0, 0.0]],
        [[0.0, -0.0, 0.0], [-3.0, -1e-200, -2.0], [1.0, 1.0, 1.0]],
        [[-0.0], [-4.0], [-5.0]],
    ], ids=["2d", "3d", "1d"])
    def test_all_negative_zero_dot_products(self, verts):
        # at the first vertex every term of the first edge's dot product
        # is +0.0 * (negative step) = -0.0; their row-major sum is +0.0,
        # which the knot -0.0 turns into the sign of t
        curve = build_polyline([-0.0, 1.0, 2.0], verts, 1.0)
        pts = np.array([verts[0], verts[1]], dtype=float)
        got_t, got_d = curve._project(pts)
        want_t, want_d = ref_project(curve, pts)
        assert math.copysign(1.0, want_t[0]) == 1.0
        assert_bits_equal(got_t, want_t)
        assert_bits_equal(got_d, want_d)

    def test_koch6_projection_of_every_vertex(self):
        curve = build_koch(6)
        pts = np.ascontiguousarray(curve.vertices[::7])
        got = curve._project(pts)
        want = ref_project(curve, pts)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)


def point_chords(curve, t):
    """Chords between ``point``'s values, one block at a time, as
    ``chords`` takes them at parameters off the knots."""
    return np.concatenate([_chord_lengths(curve.point(t[lo:lo + _BLOCK + 1]).T)
                           for lo in range(0, len(t) - 1, _BLOCK)])


def _divisors(m):
    return [s for s in range(1, m + 1) if m % s == 0]


class TestKnotStride:
    """``chords`` at every s-th knot reads the vertices, with no knot
    index, and gives the chords of the interpolated points bit for bit."""

    def assert_stride_chords(self, curve, s):
        t = curve.knots[::s]
        assert curve._knot_stride(t) == s
        curve.__dict__.pop("_knot_index", None)  # built by an earlier reference
        got = curve.chords(t)
        assert "_knot_index" not in curve.__dict__
        assert_bits_equal(got, point_chords(curve, t))

    @pytest.mark.parametrize("level", range(9))
    def test_koch_every_stride(self, level):
        curve = build_koch(level)
        for s in _divisors(curve.edge_count):
            self.assert_stride_chords(curve, s)

    def test_koch10_rungs(self):
        curve = build_koch(10)
        for j in range(1, 9):
            self.assert_stride_chords(curve, 4 ** (10 - j))

    @pytest.mark.parametrize("relabel", [lambda t: 5.0 * t, lambda t: t + 0.3],
                             ids=["knots-5t", "knots-t+0.3"])
    def test_koch_polyline_off_the_unit_domain(self, relabel):
        koch = build_koch(5)
        curve = build_polyline(relabel(koch.knots), koch.vertices, koch.alpha)
        for s in _divisors(curve.edge_count):
            self.assert_stride_chords(curve, s)
        a, b = curve.domain
        for delta in sc._rung_deltas(a, b, 5):
            t = sc._lattice_points(curve, a, b, delta)
            assert curve._knot_stride(t) is not None
            assert_bits_equal(curve.chords(t), point_chords(curve, t))

    def test_last_point_is_interpolated(self):
        # the last edge runs x 0.7 -> 0.1, and (0.1 - 0.7) * 1 + 0.7 rounds
        # to 0.09999999999999998: the last chord is taken to that point
        verts = np.array([[0.0, 0.0], [0.4, 0.3], [0.2, 0.9], [0.7, 0.5], [0.1, 0.2]])
        curve = build_polyline(np.linspace(0.0, 1.0, 5), verts, 1.0)
        assert curve.point(1.0)[0] == 0.09999999999999998
        for s in (1, 2, 4):
            self.assert_stride_chords(curve, s)
            assert_bits_equal(curve._stride_points(s, 0, 4 // s)[:, -1], curve.point(1.0))

    def test_walk_knots(self):
        curve = lognormal_walk(6, 3000, 3)
        self.assert_stride_chords(curve, 1)
        self.assert_stride_chords(curve, 8)

    def test_walk_rungs_are_interpolated(self):
        curve = lognormal_walk(6, 4096, 2)
        a, b = curve.domain
        t = sc._lattice_points(curve, a, b, (b - a) / 4 ** 3)
        assert curve._knot_stride(t) is None
        got = curve.chords(t)
        assert "_knot_index" in curve.__dict__
        assert_bits_equal(got, point_chords(curve, t))

    @pytest.mark.parametrize("t, stride", [
        ([0.0, 2.0, 4.0], 2), ([0.0, 1.0], None), ([0.0, 1.5, 4.0], None),
        ([0.0, 1.0, 2.0, 4.0], None),
    ], ids=["stride-2", "not-to-the-end", "off-knot", "uneven"])
    def test_stride_needs_every_sth_knot(self, t, stride):
        curve = build_polyline(np.arange(5.0), [[0.0], [1.0], [3.0], [2.0], [5.0]], 1.0)
        t = np.array(t)
        assert curve._knot_stride(t) == stride
        assert_bits_equal(curve.chords(t), point_chords(curve, t))

    def test_overflowing_edge_is_interpolated(self):
        # an edge difference of inf makes the interpolated point nan
        # (inf * 0 + w); the block with that knot is taken through point
        verts = [[0.0], [1e308], [-1e308], [0.0], [1.0]]
        curve = build_polyline(np.arange(5.0), verts, 1.0)
        with np.errstate(all="ignore"):
            for s in (1, 2, 4):
                t = curve.knots[::s]
                got = curve.chords(t)
                assert_bits_equal(got, point_chords(curve, t))
            assert np.isnan(curve.chords(curve.knots)[:2]).all()


class TestOneLookup:
    """``point``, ``j_inverse`` and the sampler's points, each found
    through the cell index, against the searchsorted reference."""

    @pytest.mark.parametrize("curve", [build_koch(4), lognormal_walk(2, 200, 3)],
                             ids=["koch4", "walk"])
    def test_unsorted_queries_match_searchsorted_reference(self, curve):
        a, b = curve.domain
        t = np.random.default_rng(3).uniform(a, b, 5000)
        t[:3] = a, b, curve.knots[7]
        assert_bits_equal(curve.point(t), ref_points(curve, t))

    @pytest.mark.parametrize("make", [
        lambda: build_staircase(build_koch(5)),
        lambda: build_staircase(lognormal_walk(4, 300, 2), alpha=1.2, p0=0.4),
    ], ids=["koch5", "walk"])
    def test_j_inverse_and_sample_points_match_reference(self, make):
        table = make()
        lo, hi = table.mass_bounds
        s = np.concatenate((table.s, np.random.default_rng(4).uniform(lo, hi, 3000)))
        assert_bits_equal(table.j_inverse(s), ref_points(table.curve, table.t_from_mass(s)))
        sample = DistributionOnCurve.uniform(table).sample(9, 20_000)
        assert_bits_equal(sample.points, ref_points(table.curve, sample.t))


class TestLayout:
    @pytest.mark.parametrize("make", [
        lambda: build_koch(4),
        lambda: build_line(-1.0, 2.0),
        lambda: lognormal_walk(1, 30, 3),
        lambda: build_polyline([0.0, 1.0, 2.0], [3.0, 1.0, 4.0], 1.0),
    ], ids=["koch", "line", "walk3d", "1d"])
    def test_vertices_view_the_coordinate_store(self, make):
        curve = make()
        m1, n = len(curve.knots), curve.ndim
        cols = curve._cols
        assert cols.shape == (n, m1) and cols.flags.c_contiguous
        assert curve.vertices.shape == (m1, n)
        assert np.shares_memory(curve.vertices, cols)
        assert not curve.vertices.flags.writeable and not cols.flags.writeable
        with pytest.raises(ValueError):
            curve.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            cols[0, 0] = 5.0

    def test_row_major_input_is_transposed_and_column_input_kept(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        curve = build_polyline([0.0, 0.5, 1.0], rows, 1.0)
        assert not np.shares_memory(curve._cols, rows)
        assert curve.vertices.tolist() == rows.tolist()
        cols = np.ascontiguousarray(rows.T)
        curve = build_polyline([0.0, 0.5, 1.0], cols.T, 1.0)
        assert np.shares_memory(curve._cols, cols)
        assert curve.vertices.tolist() == rows.tolist()

    def test_points_are_transposed_coordinate_rows(self):
        pts = build_koch(3).point(np.linspace(0.0, 1.0, 9))
        assert pts.shape == (9, 2) and pts.T.flags.c_contiguous

    def test_koch9_build_peak_memory(self):
        build_koch(1)
        tracemalloc.start()
        try:
            curve = build_koch(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the row-major build peaks at 2.58x the knots and vertices it keeps
        assert peak < 2.0 * (curve.knots.nbytes + curve.vertices.nbytes)
