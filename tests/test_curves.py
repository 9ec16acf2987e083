import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalcalc import (
    build_koch,
    build_line,
    build_polyline,
    load_polyline_csv,
)
from fractalcalc import curves as cv
from fractalcalc.cli import main
from fractalcalc.curves import _CellIndex, _koch_step
from fractalcalc.errors import CurveDomainError, ResourceError
from conftest import traced_peak


def koch_generator_step(points):
    """Independent one-step generator: replace each segment by the
    four-segment motif with the apex rotated +60 degrees."""
    out = []
    for p, q in zip(points[:-1], points[1:]):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = (q - p) / 3.0
        s1, s2 = p + d, p + 2 * d
        rot = np.array([
            d[0] * math.cos(math.pi / 3) - d[1] * math.sin(math.pi / 3),
            d[0] * math.sin(math.pi / 3) + d[1] * math.cos(math.pi / 3),
        ])
        out.extend([p, s1, s1 + rot, s2])
    out.append(np.asarray(points[-1], dtype=float))
    return np.array(out)


class TestBuildKoch:
    def test_level0_is_base_segment(self):
        curve = build_koch(0)
        assert len(curve.vertices) == 2
        np.testing.assert_allclose(curve.vertices, [[0, 0], [1, 0]])

    def test_level1_matches_hand_generator(self):
        expected = koch_generator_step([[0.0, 0.0], [1.0, 0.0]])
        curve = build_koch(1)
        assert len(curve.vertices) == 5
        np.testing.assert_allclose(curve.vertices, expected, atol=1e-15)
        np.testing.assert_allclose(
            curve.vertices[2], [0.5, math.sqrt(3) / 6], atol=1e-15
        )

    def test_level2_vertices_and_edges(self):
        curve = build_koch(2)
        assert len(curve.vertices) == 4 ** 2 + 1
        edges = np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1)
        np.testing.assert_allclose(edges, 1.0 / 9.0, rtol=1e-12)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_vertex_count_and_length(self, level):
        curve = build_koch(level)
        assert len(curve.vertices) == 4 ** level + 1
        assert curve.polyline_length() == pytest.approx(
            (4.0 / 3.0) ** level, abs=1e-12 * (4.0 / 3.0) ** level
        )

    def test_level_cap(self):
        with pytest.raises(ResourceError):
            build_koch(13)
        with pytest.raises(CurveDomainError):
            build_koch(-1)

    def test_koch_step_peak_memory(self):
        cols = build_koch(9)._cols
        # the 16 MiB level-10 result and the blocks' temporaries; d, the
        # rotated term and its products over every edge made it 24 MiB
        assert traced_peak(lambda: _koch_step(cols)) <= (16 + 2.5) * 2 ** 20

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_koch_step_blocks_match_one_pass(self, monkeypatch, offset):
        # B - 1, B, B + 1 and 2B + 1 edges, B the block; bytes compared
        block = cv._KOCH_BLOCK_EDGES
        edges = 2 * block + 1 if offset is None else block + offset
        rng = np.random.default_rng(edges)
        cols = np.cumsum(rng.normal(size=(2, edges + 1)), axis=1)
        blocked = _koch_step(cols)
        monkeypatch.setattr(cv, "_KOCH_BLOCK_EDGES", edges)
        assert blocked.tobytes() == _koch_step(cols).tobytes()


class TestEvaluate:
    def test_koch_endpoints_and_apex(self):
        curve = build_koch(1)
        np.testing.assert_allclose(curve.point(0.0), [0, 0])
        # the 4-adic map sends t=1/2 to vertex 2 of 5
        np.testing.assert_allclose(
            curve.point(0.5), [0.5, math.sqrt(3) / 6], atol=1e-15
        )

    def test_line_identity(self):
        line = build_line(0, 1)
        assert line.point(0.25)[0] == pytest.approx(0.25)
        assert line.point(0.5)[0] == pytest.approx(0.5)
        assert build_line(-1, 1).point(0.0)[0] == pytest.approx(0.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(CurveDomainError):
            build_line(2, 2)

    def test_outside_domain_rejected(self):
        with pytest.raises(CurveDomainError):
            build_koch(2).point(1.5)
        with pytest.raises(CurveDomainError):
            build_line(0, 1).point(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan], [math.nan, 0.2]])
    def test_nan_rejected(self, bad):
        with pytest.raises(CurveDomainError):
            build_line(0, 1).point(bad)
        with pytest.raises(CurveDomainError):
            build_koch(2).check_domain(bad)

    def test_domain_edges_and_tolerance(self):
        line = build_line(0, 1)
        line.check_domain([-1e-13, 0.5, 1.0 + 1e-13])
        line.check_domain(np.empty(0))
        with pytest.raises(CurveDomainError):
            line.check_domain([0.5, 1.0 + 1e-11])
        with pytest.raises(CurveDomainError):
            line.check_domain(-np.inf)

    @pytest.mark.parametrize("a, b, t, inside", [
        (0.0, 1e-13, 5e-13, False),                        # five widths past b
        (0.0, 1e-13, 1e-13 + 1e-26, True),
        (1e6, 1e6 + 1.0, np.nextafter(1e6 + 1.0, 2e6), True),  # one ulp past b
        (1e6, 1e6 + 1.0, 1e6 + 1.0 + 1e-5, False),
        (0.0, 1.0, 1.0 + 0.5e-12, True),                    # [0, 1] keeps 1e-12
        (0.0, 1.0, 1.0 + 2e-12, False),
    ])
    def test_tolerance_follows_the_domain(self, a, b, t, inside):
        # the slack is 1e-12 max(|a|, |b|, b - a), not an absolute 1e-12
        curve = build_polyline([a, b], [[0.0, 0.0], [1.0, 1.0]], 1.0)
        if inside:
            curve.check_domain(t)
        else:
            with pytest.raises(CurveDomainError):
                curve.check_domain(t)

    def test_vectorized_evaluation(self):
        curve = build_koch(3)
        t = np.linspace(0, 1, 37)
        pts = curve.point(t)
        assert pts.shape == (37, 2)
        single = np.array([curve.point(x) for x in t])
        np.testing.assert_allclose(pts, single)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_injectivity_on_grid(self, level):
        curve = build_koch(level)
        pts = curve.point(np.linspace(0, 1, 257))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        d2[np.diag_indices_from(d2)] = np.inf
        assert d2.min() > 0.0


class TestPolyline:
    def test_custom_polyline_roundtrip(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("t,x,y\n0,0,0\n0.5,1,0\n1,1,1\n")
        curve = load_polyline_csv(path, alpha=1.0)
        np.testing.assert_allclose(curve.point(0.25), [0.5, 0.0])
        np.testing.assert_allclose(curve.point(0.75), [1.0, 0.5])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("x,y\n0,0\n1,1\n")
        with pytest.raises(CurveDomainError):
            load_polyline_csv(path, alpha=1.0)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("# made by hand\nt,x,y\n\n0,0,0\n# middle\n0.5,1,0\n\n"
                        "1,1,1\n\n")
        curve = load_polyline_csv(path, alpha=1.0)
        assert curve.knots.tolist() == [0.0, 0.5, 1.0]
        assert curve.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]

    def test_spaced_quoted_and_crlf_fields_parse(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_bytes(b' T ,x\r\n 0 ,"0"\r\n\r\n1,  1e0\r\n')
        curve = load_polyline_csv(path, alpha=1.0)
        assert curve.knots.tolist() == [0.0, 1.0]
        assert curve.vertices.tolist() == [[0.0], [1.0]]

    @pytest.mark.parametrize("text, error", [
        ("x,y\n0,0\n1,1\n", CurveDomainError),             # no t header
        ("\nt,x\n0,0\n1,1\n", CurveDomainError),           # blank line first
        ("t\n0\n1\n", CurveDomainError),                   # one column
        ("t,x\n", CurveDomainError),                       # header only
        ("t,x\n\n\n", CurveDomainError),                   # blank rows only
        ("t,x\n0,0\n", CurveDomainError),                  # one vertex
        ("t,x,y\n0,0,0\n0.5,1\n1,1,1\n", ValueError),      # ragged row
        ("t,x\n0,0\n  \n1,1\n", ValueError),               # blank-looking row
        ("t,x\n0,0\n #x\n1,1\n", ValueError),              # indented comment
        ("t,x,y\n0,,0\n1,1,1\n", ValueError),              # empty field
        ("t,x\n0,a\n1,1\n", ValueError),                   # not a number
        ("t,x,y\n0,0,0\n0.5,nan,1\n1,1,1\n", CurveDomainError),  # nan vertex
        ("t,x,y\n0,0,0\n0.5,inf,1\n1,1,1\n", CurveDomainError),  # inf vertex
        ("t,x\n0,0\n1,1\ninf,2\n", CurveDomainError),    # inf knot
    ], ids=["no-t", "blank-first", "one-column", "header-only", "blank-rows",
            "one-vertex", "ragged", "space-row", "indented-hash", "empty-field",
            "text", "nan-vertex", "inf-vertex", "inf-knot"])
    def test_rejected_csv_exits_2(self, tmp_path, capsys, text, error):
        path = tmp_path / "poly.csv"
        path.write_text(text)
        with pytest.raises(error):
            load_polyline_csv(path, alpha=1.0)
        argv = ["staircase", "--curve", str(path), "--alpha", "1",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_walk_csv_round_trip_is_exact(self, tmp_path, dim):
        # the walks the benchmark writes: repr floats, lognormal knot gaps
        rng = np.random.default_rng(dim)
        verts = np.cumsum(rng.normal(size=(1025, dim)), axis=0)
        knots = np.concatenate(([0.0], np.cumsum(rng.lognormal(0.0, 3.0, 1024))))
        knots /= knots[-1]
        path = tmp_path / "walk.csv"
        path.write_text("t," + ",".join(f"x{i}" for i in range(dim)) + "\n" + "".join(
            ",".join(repr(float(v)) for v in (t, *row)) + "\n"
            for t, row in zip(knots, verts)))
        curve = load_polyline_csv(path, alpha=1.0)
        np.testing.assert_array_equal(curve.knots.view(np.int64), knots.view(np.int64))
        np.testing.assert_array_equal(
            np.ascontiguousarray(curve.vertices).view(np.int64), verts.view(np.int64))

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(CurveDomainError):
            load_polyline_csv(path, alpha=1.0)

    @pytest.mark.parametrize("knots, vertices", [
        ([0.0, 1.0, math.inf], [[0, 0], [1, 0], [2, 1]]),
        ([-math.inf, 0.0, 1.0], [[0, 0], [1, 0], [2, 1]]),
        ([0.0, 0.5, 1.0], [[0, 0], [math.nan, 1], [1, 1]]),
        ([0.0, 0.5, 1.0], [[0, 0], [1, -math.inf], [1, 1]]),
    ], ids=["inf-knot", "minus-inf-knot", "nan-vertex", "inf-vertex"])
    def test_non_finite_rejected(self, knots, vertices):
        with pytest.raises(CurveDomainError, match="must be finite"):
            build_polyline(knots, vertices, 1.0)

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [0, 0], [1, 1]],
        [[0.0], [-0.0], [1.0]],
        [[1.0, 0.0], [1.0, -0.0], [2.0, 1.0]],
    ], ids=["equal", "signed-zero-1d", "signed-zero-2d"])
    def test_repeated_vertices_rejected(self, vertices):
        with pytest.raises(CurveDomainError, match="repeated consecutive vertices"):
            build_polyline([0, 0.5, 1], vertices, 1.0)

    def test_equal_consecutive_knots_rejected(self):
        with pytest.raises(CurveDomainError, match="strictly increasing"):
            build_polyline([0.0, 0.5, 0.5, 1.0], [[0, 0], [1, 0], [1, 1], [2, 1]], 1.0)

    def test_subnormal_knot_gap_accepted(self):
        curve = build_polyline([0.0, 5e-324, 1.0], [[0, 0], [1, 0], [1, 1]], 1.0)
        assert curve.knots.tolist() == [0.0, 5e-324, 1.0]

    def test_koch10_build_peak_memory(self):
        tracemalloc.start()
        try:
            build_koch(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the vertices (16 MB) and knots (8 MB) plus the level-9 step and
        # the checks' boolean masks; a knot difference array made it 34 MB
        assert peak <= 30 * 2 ** 20

    def test_curve_is_immutable(self):
        curve = build_koch(2)
        with pytest.raises(ValueError):
            curve.vertices[0, 0] = 5.0


def _plateau_edges(seed, n):
    """Sorted draws from a pool a quarter as large: long runs of equal
    edges, negative ones included."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(rng.normal(size=max(1, n // 4)), n))


def _lognormal_edges(seed, n, offset):
    """Cumulative lognormal(0, 3) gaps: clusters of edges orders of
    magnitude tighter than the gaps between them."""
    rng = np.random.default_rng(seed)
    return offset + np.cumsum(rng.lognormal(0.0, 3.0, n))


_SEEDS = st.integers(0, 2 ** 32 - 1)
_SORTED_EDGES = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40).map(np.sort),
    st.lists(st.integers(-4, 4), min_size=2, max_size=40).map(
        lambda v: np.sort(np.asarray(v, dtype=float)) * 0.1),
    st.builds(_plateau_edges, _SEEDS, st.integers(2, 500)),
    st.builds(_lognormal_edges, _SEEDS, st.integers(1, 500), st.floats(-1e3, 1e3)),
    st.builds(lambda v: np.full(2, v), st.floats(-1e6, 1e6)),
)


class TestCellIndex:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(edges=_SORTED_EDGES, seed=_SEEDS)
    @example(edges=np.zeros(9), seed=0)  # zero span: one bucket
    def test_equals_searchsorted_right(self, edges, seed):
        edges = np.asarray(edges, dtype=float)
        lo, hi = edges[0], edges[-1]
        pad = max(hi - lo, 1.0)
        random = np.random.default_rng(seed).uniform(lo - pad, hi + pad, 200)
        queries = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            random, [lo, hi, np.inf, -np.inf, np.nan],
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _CellIndex(edges).search(queries)
        np.testing.assert_array_equal(got, np.searchsorted(edges, queries, side="right"))

    def test_evenly_spread_edges_take_one_step(self):
        assert _CellIndex(np.linspace(0.0, 1.0, 4 ** 6 + 1))._steps == [1]

    def test_bucket_count_is_capped(self):
        index = _CellIndex(build_koch(10).knots)
        assert len(index._ends) == (1 << 16) + 1
        assert index._steps == [16, 8, 4, 2, 1]
        # up to 4^8 edges there is still a bucket per edge
        assert _CellIndex(np.linspace(0.0, 1.0, 4 ** 8 + 1))._steps == [1]

    @pytest.mark.parametrize("make", [
        lambda: build_koch(10).knots,
        lambda: _lognormal_edges(5, 200_000, -40.0),
        # runs of about 300 equal edges
        lambda: np.sort(np.random.default_rng(6).choice(
            np.random.default_rng(7).normal(size=1000), 300_000)),
    ], ids=["koch10", "lognormal-200k", "plateaus-300k"])
    def test_more_edges_than_buckets_equal_searchsorted_right(self, make):
        edges = make()
        assert len(edges) > 1 << 16
        lo, hi = edges[0], edges[-1]
        some = edges[::3]
        queries = np.concatenate((
            some, np.nextafter(some, -np.inf), np.nextafter(some, np.inf),
            np.random.default_rng(8).uniform(lo - 1.0, hi + 1.0, 100_000),
            [lo, hi, np.inf, -np.inf, np.nan],
        ))
        got = _CellIndex(edges).search(queries)
        np.testing.assert_array_equal(got, np.searchsorted(edges, queries, side="right"))

    def test_koch10_index_peak_memory(self):
        knots = build_koch(10).knots
        tracemalloc.start()
        try:
            _CellIndex(knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an index with a bucket per edge and a padded copy of the edges
        # peaks at 24 MB on these knots
        assert peak <= 2 * 2 ** 20
