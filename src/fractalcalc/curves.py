"""Parameterized curves and subdivisions of their parameter interval.

A curve is stored as a polyline refinement: parameter knots t_0 < ... < t_m
and the matching vertices in R^n, with linear interpolation between
consecutive vertices. The von Koch family uses the standard 4-adic
parameterization (the sub-interval [i/4^L, (i+1)/4^L] maps onto the i-th
edge of the level-L generator), which keeps the cumulative-mass chart
exactly linear in t at the curve's own order.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CurveDomainError, ResourceError

MAX_KOCH_LEVEL = 12

#: Self-similarity dimension of the von Koch curve, log 4 / log 3.
KOCH_DIMENSION = math.log(4.0) / math.log(3.0)

_COS60 = 0.5
_SIN60 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True, eq=False)
class FractalCurve:
    """Polyline representation of a curve w: [a1, b1] -> R^n.

    Immutable after construction; safe to share across workers.
    ``alpha`` is the calculus order attached to the curve (the ideal
    object's dimension for the Koch family, 1 for straight segments).
    ``_ladder`` is a private cache that ``staircase.coarse_mass`` fills
    with the knot-spacing facts and the chord arrays of the ladder rungs
    of the most recent segment, and that ``_points_at`` fills with the
    knots' cell index; it lives and dies with the curve.
    """

    kind: str                      # "koch" | "line" | "polyline"
    knots: np.ndarray              # (m+1,) strictly increasing
    vertices: np.ndarray           # (m+1, n)
    alpha: float
    level: int = 0

    def __post_init__(self):
        knots = np.ascontiguousarray(np.asarray(self.knots, dtype=float))
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        if verts.ndim == 1:
            verts = verts[:, None]
        if knots.ndim != 1 or len(knots) != len(verts) or len(knots) < 2:
            raise CurveDomainError("knots and vertices must align, length >= 2")
        if not np.all(np.diff(knots) > 0.0):
            raise CurveDomainError("parameter knots must be strictly increasing")
        if np.any(np.all(np.diff(verts, axis=0) == 0.0, axis=1)):
            raise CurveDomainError("repeated consecutive vertices break injectivity")
        if not (0.0 < self.alpha <= verts.shape[1] + 1e-12):
            raise CurveDomainError(f"alpha must lie in (0, n], got {self.alpha}")
        knots.setflags(write=False)
        verts.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_ladder", {})

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def ndim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def edge_count(self) -> int:
        return len(self.knots) - 1

    def polyline_length(self) -> float:
        seg = np.diff(self.vertices, axis=0)
        return float(np.sqrt((seg * seg).sum(axis=1)).sum())

    def check_domain(self, t, tol: float = 1e-12):
        a, b = self.domain
        t = np.asarray(t, dtype=float)
        if np.any(t < a - tol) or np.any(t > b + tol):
            raise CurveDomainError(
                f"parameter outside curve domain [{a}, {b}]"
            )

    def point(self, t):
        """Evaluate w(t). Scalar t gives a (n,) point, an array of shape
        (m,) gives the (m, n) array of points."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self.check_domain(t)
        a, b = self.domain
        tc = np.clip(t, a, b)
        # public queries are mostly sorted grids, on which numpy's hinted
        # search beats the cell index
        pts = self._interpolate(tc, np.searchsorted(self.knots, tc, side="right"))
        return pts[0] if scalar else pts

    def _points_at(self, t):
        """``point(t)`` for a 1-D array of parameters in any order, each
        finding its knot cell through the knots' cell index (built on
        first use). There is no domain check: ``t`` must lie in the
        domain up to rounding, as ``t_from_mass`` gives it."""
        if "cell_index" not in self._ladder:
            self._ladder["cell_index"] = _CellIndex(self.knots)
        tc = np.clip(t, *self.domain)
        return self._interpolate(tc, self._ladder["cell_index"].search(tc))

    def _interpolate(self, tc, idx):
        """Points at the clipped parameters ``tc``, given
        ``idx = searchsorted(knots, tc, side="right")``; overwrites both."""
        # gathered per query and combined in place: w(t0) + frac * (w(t1) - w(t0))
        idx -= 1
        np.clip(idx, 0, self.edge_count - 1, out=idx)
        t0 = self.knots[idx]
        frac = tc
        frac -= t0
        frac /= self.knots[idx + 1] - t0
        v0 = self.vertices[idx]
        pts = self.vertices[idx + 1]
        pts -= v0
        pts *= frac[:, None]
        pts += v0
        return pts


class _CellIndex:
    """``np.searchsorted(edges, x, side="right")`` for unsorted queries
    into sorted edges, in a fixed number of vectorised steps.

    With n = len(edges) - 1, every value v goes to bucket
    ``floor((v - edges[0]) * n / span)`` clipped to [0, n] (nan to n), a
    monotone map: edges in a lower bucket than a query are below it, edges
    in a higher one above it. A query's answer therefore lies between the
    number of edges in the buckets below its own and the number up to its
    own; ``len(steps)`` halvings of that range, ceil(log2(widest bucket +
    1)) of them, find it. Evenly spread edges take one step. A zero or
    non-finite span falls back to scale 1, which keeps the map monotone.
    """

    def __init__(self, edges):
        edges = np.asarray(edges, dtype=float)
        n = len(edges) - 1
        span = float(edges[-1] - edges[0])
        scale = n / span if span > 0.0 else 0.0
        self._e0 = float(edges[0])
        self._scale = scale if 0.0 < scale < math.inf else 1.0
        self._top = float(n)
        first = np.searchsorted(self._bucket(edges), np.arange(n + 2))
        self._ends = first[1:]
        width = int(np.diff(first).max())
        self._steps = [1 << i for i in reversed(range(width.bit_length()))]
        # edges[pos - h] is views[i][pos] for h = steps[i]; -inf below index 0
        pad = self._steps[0]
        padded = np.concatenate((np.full(pad, -np.inf), edges))
        self._views = [padded[pad - h:] for h in self._steps]

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
        # edge above x
        pos = self._ends.take(self._bucket(x))
        above = np.empty(pos.shape, dtype=bool)
        for view, h in zip(self._views, self._steps):
            np.less(x, view.take(pos), out=above)
            np.subtract(pos, h, out=pos, where=above)
        return pos


def build_koch(level: int) -> FractalCurve:
    """Unit-base von Koch curve on [0, 1] at the given recursion level.

    Level L has 4^L + 1 vertices and every edge has length 3^(-L).
    """
    if level < 0:
        raise CurveDomainError("level must be a non-negative integer")
    if level > MAX_KOCH_LEVEL:
        raise ResourceError(
            f"koch level {level} exceeds the in-memory cap {MAX_KOCH_LEVEL}"
        )
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for _ in range(level):
        p = pts[:-1]
        d = (pts[1:] - p) / 3.0
        s1 = p + d
        s2 = p + 2.0 * d
        # apex: rotate the middle-third direction by +60 degrees
        tip = s1 + np.column_stack(
            (d[:, 0] * _COS60 - d[:, 1] * _SIN60,
             d[:, 0] * _SIN60 + d[:, 1] * _COS60)
        )
        new = np.empty((4 * len(p) + 1, 2))
        new[0:-1:4] = p
        new[1::4] = s1
        new[2::4] = tip
        new[3::4] = s2
        new[-1] = pts[-1]
        pts = new
    knots = np.linspace(0.0, 1.0, len(pts))
    return FractalCurve("koch", knots, pts, KOCH_DIMENSION, level)


def build_line(a: float, b: float) -> FractalCurve:
    """Straight segment w(t) = t on the real axis, order alpha = 1."""
    if not a < b:
        raise CurveDomainError(f"line needs a < b, got [{a}, {b}]")
    knots = np.array([a, b], dtype=float)
    return FractalCurve("line", knots, knots.copy()[:, None], 1.0, 0)


def build_polyline(knots, vertices, alpha: float) -> FractalCurve:
    """Custom polyline from explicit parameter knots and vertices."""
    return FractalCurve("polyline", np.asarray(knots), np.asarray(vertices), alpha)


def load_polyline_csv(path, alpha: float) -> FractalCurve:
    """Load a polyline from a CSV with header row ``t,x[,y,...]``."""
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader)
        if not header or header[0].strip().lower() != "t":
            raise CurveDomainError("polyline CSV must start with header 't,x[,y,...]'")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] < 2:
        raise CurveDomainError("polyline CSV needs a t column plus coordinates")
    return build_polyline(data[:, 0], data[:, 1:], alpha)


@dataclass(frozen=True, eq=False)
class Subdivision:
    """Finite set of parameter points a = t_0 < t_1 < ... < t_k = b."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or len(pts) < 2:
            raise CurveDomainError("a subdivision needs at least two points")
        if not np.all(np.diff(pts) > 0.0):
            raise CurveDomainError("subdivision points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.diff(self.points).max())

    @property
    def components(self) -> int:
        return len(self.points) - 1

    def refines(self, other: "Subdivision", tol: float = 1e-12) -> bool:
        """True when every point of ``other`` appears in this subdivision."""
        idx = np.searchsorted(self.points, other.points)
        idx = np.clip(idx, 0, len(self.points) - 1)
        near = np.minimum(
            np.abs(self.points[idx] - other.points),
            np.abs(self.points[np.maximum(idx - 1, 0)] - other.points),
        )
        return bool(np.all(near <= tol))


def make_subdivision(a: float, b: float, k: int) -> Subdivision:
    """Uniform subdivision of [a, b] with k components (mesh (b-a)/k)."""
    if not a < b:
        raise CurveDomainError(f"subdivision needs a < b, got [{a}, {b}]")
    if k < 1:
        raise CurveDomainError("component count must be >= 1")
    return Subdivision(np.linspace(a, b, k + 1))
