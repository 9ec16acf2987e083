"""Parameterized curves.

A curve is stored as a polyline refinement: parameter knots t_0 < ... < t_m
and the matching vertices in R^n, with linear interpolation between
consecutive vertices. The von Koch family uses the standard 4-adic
parameterization (the sub-interval [i/4^L, (i+1)/4^L] maps onto the i-th
edge of the level-L generator), which keeps the cumulative-mass chart
exactly linear in t at the curve's own order.
"""

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CurveDomainError, GeometryError, ResourceError

MAX_KOCH_LEVEL = 12

#: Self-similarity dimension of the von Koch curve, log 4 / log 3.
KOCH_DIMENSION = math.log(4.0) / math.log(3.0)

_COS60 = 0.5
_SIN60 = math.sqrt(3.0) / 2.0

#: Elements per block of every streamed loop: ``_koch_step``'s edges,
#: ``FractalCurve.chords``, ``_CellIndex``'s bucket count, the sampler's
#: draws and points, and ``cli.write_csv``'s rows. A block's float64 arrays
#: and Python lists take 64 KiB, under glibc's 128 KiB mmap threshold (so
#: the heap reuses them instead of mapping fresh pages) and inside L2.
_BLOCK = 1 << 13

#: (point, edge) pairs per block of ``FractalCurve._project``: each
#: temporary is one block, small enough to stay in cache.
_PROJECT_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True, eq=False)
class FractalCurve:
    """Polyline representation of a curve w: [a1, b1] -> R^n.

    Immutable after construction; safe to share across workers. The curve
    is its knots, vertices and ``alpha``, the calculus order attached to it
    (the ideal object's dimension for the Koch family, 1 for lines).
    The vertices are stored once, coordinate-major, in the read-only
    C-contiguous (n, m+1) array ``_cols``; ``vertices`` is its (m+1, n)
    transpose view. Only the curve's methods read it, one coordinate at a
    time over its rows: ``point``, its inverse ``parameter_of`` (by
    nearest-segment projection), ``chords`` and ``polyline_length``.
    Construction checks strict knot increase and repeated consecutive
    vertices by comparing each entry with its neighbour, so it allocates
    no difference arrays, only boolean masks. Two cached properties live
    and die with the curve: the knots' cell index ``_knot_index`` and the
    edge directions and squared lengths ``_edges``.
    """

    knots: np.ndarray              # (m+1,) strictly increasing
    vertices: np.ndarray           # (m+1, n)
    alpha: float

    def __post_init__(self):
        knots = np.ascontiguousarray(np.asarray(self.knots, dtype=float))
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim == 1:
            verts = verts[:, None]
        if knots.ndim != 1 or verts.ndim != 2 or len(knots) != len(verts) \
                or len(knots) < 2:
            raise CurveDomainError("knots and vertices must align, length >= 2")
        if not (np.isfinite(knots).all() and np.isfinite(verts).all()):
            raise CurveDomainError("knots and vertex coordinates must be finite")
        # for finite x and y, y > x exactly when y - x > 0, and y == x
        # exactly when y - x == 0, signed zeros and subnormals included
        if not np.all(knots[1:] > knots[:-1]):
            raise CurveDomainError("parameter knots must be strictly increasing")
        # one transposing copy of a row-major input; none of a cols.T view
        cols = np.ascontiguousarray(verts.T)
        repeated = cols[0, 1:] == cols[0, :-1]
        for col in cols[1:]:
            repeated &= col[1:] == col[:-1]
        if repeated.any():
            raise CurveDomainError("repeated consecutive vertices break injectivity")
        if not (0.0 < self.alpha <= len(cols) + 1e-12):
            raise CurveDomainError(f"alpha must lie in (0, n], got {self.alpha}")
        knots.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "vertices", cols.T)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def ndim(self) -> int:
        return len(self._cols)

    @property
    def edge_count(self) -> int:
        return len(self.knots) - 1

    def polyline_length(self) -> float:
        return float(_chord_lengths(self._cols).sum())

    def check_domain(self, t):
        """Raise CurveDomainError unless every t lies in [a, b] up to
        1e-12 max(|a|, |b|, b - a); a nan fails, as min and max carry it."""
        a, b = self.domain
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * max(abs(a), abs(b), b - a)
        if t.size and not (a - slack <= t.min() and t.max() <= b + slack):
            raise CurveDomainError(
                f"parameter outside curve domain [{a}, {b}]"
            )

    def point(self, t):
        """Evaluate w(t). Scalar t gives a (n,) point, an array of shape
        (m,) gives the (m, n) array of points, the transpose view of a
        C-contiguous (n, m) array. The parameters need no order: each
        finds its knot cell through ``_knot_index``."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self.check_domain(t)
        pts = self._knot_index.interpolate(self._cols, np.clip(t, *self.domain)).T
        return pts[0] if scalar else pts

    @cached_property
    def _knot_index(self):
        """Cell index of the knots, built on the first ``point``."""
        return _CellIndex(self.knots)

    @cached_property
    def _edges(self):
        """Coordinate-major (n, m) edge directions and their (m,) squared
        lengths, built on the first nearest-segment projection."""
        d = np.diff(self._cols, axis=1)
        return d, _squared_norms(d)

    def chords(self, t):
        """Chords between the curve points at consecutive parameters ``t``, in
        blocks that overlap by one point; each is the same double as in one pass."""
        out = np.empty(len(t) - 1)
        for lo in range(0, len(out), _BLOCK):
            # point() gives the (m, n) transpose of a coordinate-major array
            cols = self.point(t[lo:lo + _BLOCK + 1]).T
            out[lo:lo + _BLOCK] = _chord_lengths(cols)
        return out

    def parameter_of(self, points):
        """Parameters of an (m, n) block of curve points, the inverse of
        ``point``, by nearest-segment projection onto the polyline; a
        point farther than 1e-9 times the block's largest |coordinate| (at
        least 1e-9) from the curve raises GeometryError, since the
        projection rounds in ulps of the coordinates."""
        points = np.asarray(points, dtype=float)
        n = self.ndim
        if points.ndim != 2 or points.shape[1] != n:
            raise GeometryError(
                f"points must form an (m, {n}) array for a curve in R^{n}, "
                f"got shape {points.shape}"
            )
        t, dist = self._project(points)
        # a nan point fails: its distance is nan
        if len(dist) and not dist.max() <= (tol := 1e-9 * max(1.0, np.abs(points).max())):
            raise GeometryError(
                f"points up to {dist.max():.3e} away from the curve (tolerance {tol:.3g})"
            )
        return t

    def _project(self, pts):
        """Nearest-segment projection of an (m, n) block of points onto the
        polyline; returns (parameters, distances). Every point is checked
        against every edge, one coordinate at a time, in blocks of about
        ``_PROJECT_BLOCK_PAIRS`` (point, edge) pairs: each pair gets the IEEE
        operations of the row-major sums over n, in the same order. The edge
        directions and squared lengths come from ``_edges``."""
        cols = self._cols
        d, len2 = self._edges
        t_out = np.empty(len(pts))
        dist_out = np.empty(len(pts))
        chunk = max(1, _PROJECT_BLOCK_PAIRS // len(len2))
        for start in range(0, len(pts), chunk):
            block = pts[start:start + chunk].T[:, :, None]     # (n, b, 1)
            # numpy's reduce over a short axis starts from +0.0, so the dot
            # product does too: a sum of -0.0 terms is +0.0
            dot = np.zeros((len(block[0]), len(len2)))
            for theta, p, dk in zip(block, cols, d):
                dot += (theta - p[:-1]) * dk
            proj = np.clip(dot / len2, 0.0, 1.0)
            # offset of each point from its closest point p + proj * d
            dist2 = _squared_norms([theta - (p[:-1] + proj * dk)
                                    for theta, p, dk in zip(block, cols, d)])
            best = dist2.argmin(axis=1)
            rows = np.arange(len(best))
            t0 = self.knots[best]
            t1 = self.knots[best + 1]
            t_out[start:start + chunk] = t0 + proj[rows, best] * (t1 - t0)
            dist_out[start:start + chunk] = np.sqrt(dist2[rows, best])
        return t_out, dist_out


def _squared_norms(rows):
    """Squared norm of every column of a coordinate-major (n, k) array,
    with r0*r0 + r1*r1 (+ r2*r2) summed one coordinate at a time. The
    squares are never -0.0, so this is bit-identical to the row-major
    ``(v * v).sum(axis=1)`` over the (k, n) transpose."""
    sq = rows[0] * rows[0]
    for row in rows[1:]:
        sq += row * row
    return sq


def _chord_lengths(cols):
    """Chord lengths between consecutive points of a coordinate-major
    (n, m+1) array."""
    return np.sqrt(_squared_norms(np.diff(cols, axis=1)))


#: Most buckets a ``_CellIndex`` holds: the index costs O(this) memory
#: whatever the edge count.
_MAX_BUCKETS = 1 << 16


class _CellIndex:
    """``np.searchsorted(edges, x, side="right")`` for unsorted queries
    into sorted edges, in a fixed number of vectorised steps.

    With n = len(edges) - 1 and k = min(n, ``_MAX_BUCKETS``), every value
    v goes to bucket ``floor((v - edges[0]) * k / span)`` clipped to
    [0, k] (nan to k), a monotone map: edges in a lower bucket than a
    query are below it, edges in a higher one above it. A query's answer
    therefore lies between the number of edges in the buckets below its
    own and the number up to its own; ``len(steps)`` halvings of that
    range, ceil(log2(widest bucket + 1)) of them, find it. Evenly spread
    edges take one step up to 4^8 edges, and Koch-10's knots take five.
    A zero or non-finite span falls back to scale 1, which keeps the map
    monotone.
    """

    def __init__(self, edges):
        edges = np.asarray(edges, dtype=float)
        k = min(len(edges) - 1, _MAX_BUCKETS)
        span = float(edges[-1] - edges[0])
        scale = k / span if span > 0.0 else 0.0
        self._edges = edges
        self._e0 = float(edges[0])
        self._scale = scale if 0.0 < scale < math.inf else 1.0
        self._top = float(k)
        counts = np.zeros(k + 1, dtype=np.intp)
        for lo in range(0, len(edges), _BLOCK):
            counts += np.bincount(self._bucket(edges[lo:lo + _BLOCK]),
                                  minlength=k + 1)
        width = int(counts.max())
        self._ends = np.cumsum(counts, out=counts)
        self._steps = [1 << i for i in reversed(range(width.bit_length()))]

    def _bucket(self, x):
        v = x - self._e0
        v *= self._scale
        np.fmin(v, self._top, out=v)
        np.fmax(v, 0.0, out=v)
        return v.astype(np.intp)

    def search(self, x):
        """Index array equal to ``np.searchsorted(edges, x, side="right")``
        for a 1-D float array ``x``."""
        # start at the end of the query's bucket and step down past every
        # edge above x; a step below index 0 reads edges[0], so it is taken
        # only by queries below every edge, whose answer the clamp makes 0
        pos = self._ends.take(self._bucket(x))
        above = np.empty(pos.shape, dtype=bool)
        for h in self._steps:
            np.less(x, self._edges.take(pos - h, mode="clip"), out=above)
            np.subtract(pos, h, out=pos, where=above)
        return np.maximum(pos, 0, out=pos)

    def interpolate(self, rows, x):
        """Piecewise-linear values of every row of the (k, len(edges))
        array ``rows`` at the queries ``x`` in [edges[0], edges[-1]],
        which are overwritten. Each query takes w0 + frac * (w1 - w0) on
        its cell, with frac = (x - x0) / (x1 - x0); a flat cell maps to
        its right end. Returns a C-contiguous (k, len(x)) array."""
        idx = self.search(x)
        idx -= 1
        np.clip(idx, 0, len(self._edges) - 2, out=idx)
        nxt = idx + 1
        x0 = self._edges.take(idx)
        dx = self._edges.take(nxt)
        dx -= x0
        flat = dx <= 0.0
        dx[flat] = 1.0
        frac = x
        frac -= x0
        frac /= dx
        frac[flat] = 1.0
        out = np.empty((len(rows), len(idx)))
        # gathered per query and row and combined in place
        for row, o in zip(rows, out):
            w0 = row.take(idx)
            row.take(nxt, out=o)
            o -= w0
            o *= frac
            o += w0
        return out


def build_koch(level: int) -> FractalCurve:
    """Unit-base von Koch curve on [0, 1] at the given recursion level.

    Level L has 4^L + 1 vertices and every edge has length 3^(-L).
    """
    _check_koch_level(level)
    # coordinate-major: cols[0] holds x, cols[1] holds y
    cols = np.array([[0.0, 1.0], [0.0, 0.0]])
    for _ in range(level):
        cols = _koch_step(cols)
    knots = np.linspace(0.0, 1.0, cols.shape[1])
    return FractalCurve(knots, cols.T, KOCH_DIMENSION)


def _check_koch_level(level):
    """Refuse a Koch level outside [0, ``MAX_KOCH_LEVEL``]."""
    if level < 0:
        raise CurveDomainError("level must be a non-negative integer")
    if level > MAX_KOCH_LEVEL:
        raise ResourceError(
            f"koch level {level} exceeds the in-memory cap {MAX_KOCH_LEVEL}"
        )


def _koch_step(cols):
    """One generator step on a coordinate-major (2, m+1) polyline: each
    edge p -> q becomes p, s1, tip, s2 with d = (q - p) / 3, s1 = p + d,
    tip = s1 + rot60(d) and s2 = p + 2d, written into strided slices of
    the (2, 4m+1) result, ``_BLOCK`` edges at a time."""
    m = cols.shape[1] - 1
    new = np.empty((2, 4 * m + 1))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        (x, y), (nx, ny) = cols[:, lo:hi + 1], new[:, 4 * lo:4 * hi]
        px, py = x[:-1], y[:-1]
        dx = x[1:] - px
        dx /= 3.0
        dy = y[1:] - py
        dy /= 3.0
        nx[0::4], ny[0::4] = px, py
        s1x = np.add(px, dx, out=nx[1::4])
        s1y = np.add(py, dy, out=ny[1::4])
        # apex: rotate the middle-third direction by +60 degrees
        np.add(s1x, dx * _COS60 - dy * _SIN60, out=nx[2::4])
        np.add(s1y, dx * _SIN60 + dy * _COS60, out=ny[2::4])
        dx *= 2.0
        dy *= 2.0
        np.add(px, dx, out=nx[3::4])
        np.add(py, dy, out=ny[3::4])
    new[:, -1] = cols[:, -1]
    return new


def build_line(a: float, b: float) -> FractalCurve:
    """Straight segment w(t) = t on the real axis, order alpha = 1."""
    if not a < b:
        raise CurveDomainError(f"line needs a < b, got [{a}, {b}]")
    knots = np.array([a, b], dtype=float)
    return FractalCurve(knots, knots.copy()[:, None], 1.0)


def build_polyline(knots, vertices, alpha: float) -> FractalCurve:
    """Custom polyline from explicit parameter knots and vertices."""
    return FractalCurve(np.asarray(knots), np.asarray(vertices), alpha)


def load_polyline_csv(path, alpha: float) -> FractalCurve:
    """Load a polyline from a CSV with header row ``t,x[,y,...]``.

    Lines starting with ``#`` are dropped and blank lines skipped; a
    ragged row or a field that is not a number raises ValueError."""
    with open(path, newline="") as fh:
        lines = [row for row in fh if not row.startswith("#")]
    header = next(csv.reader(lines[:1]), None)
    if not header or header[0].strip().lower() != "t":
        raise CurveDomainError("polyline CSV must start with header 't,x[,y,...]'")
    with warnings.catch_warnings():
        # no data rows: rejected below by the column count
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, quotechar='"',
                          ndmin=2)
    if data.shape[1] < 2:
        raise CurveDomainError("polyline CSV needs a t column plus coordinates")
    return build_polyline(data[:, 0], data[:, 1:], alpha)

