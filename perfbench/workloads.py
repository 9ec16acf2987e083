"""Workload definitions: per-pass inputs drawn from the workload seed.

Nothing here imports fractalcalc. run.py calls ``plan_pass`` to get a
pass's op list (CLI argument lists and library-call descriptors) and
writes any polyline CSV the ops read. Sizes are fixed per workload; only
shapes, seeds, rates and truncation orders are drawn. ``smoke`` shrinks
every size so the whole harness can be exercised in seconds.
"""

import math
import os

import numpy as np

#: Why each workload exists; printed by ``run.py --list`` and kept in
#: sync with README.md and BENCHMARK.json.
WHY = {
    "geometry": "CLI session of Koch and polyline mass ladders, staircases "
                "and cdf tables; no curve reused, no distributions work",
    "probability": "library session of moment quadrature, sampling and point "
                   "queries against tables built once per pass",
    "stochastic": "correlation, mean-square diagnostics, ms integrals and the "
                  "oscillator on straight segments",
}

#: Passes are run in whole blocks. Stochastic blocks hold four passes so
#: that exactly one sde order per block is drawn from the overflowing
#: range 49..60 (a stratified draw over 10..60), which keeps the share of
#: known-defect inputs fixed from run to run.
BLOCK = {"geometry": 1, "probability": 1, "stochastic": 4}

#: Wall seconds of one block, set-up and output checks included, on the
#: 2-core x86_64 host the benchmark was written on. A run holds a fixed
#: number of blocks sized from these, not as many as fit in the time, so
#: the same seed always attempts the same ops and fails the same ones.
BLOCK_SECONDS = {"geometry": 3.0, "probability": 8.2, "stochastic": 6.2}


def pass_count(workload, seconds, trace):
    """Passes in a run of about ``seconds``: whole blocks, at least one.
    A traced run runs each pass twice, so it holds half as many."""
    block_s = BLOCK_SECONDS[workload] * (2 if trace else 1)
    return BLOCK[workload] * max(1, round(seconds / block_s))

_WORKLOAD_ID = {"geometry": 1, "probability": 2, "stochastic": 3}


def pass_rng(workload, seed, index):
    return np.random.default_rng([int(seed), _WORKLOAD_ID[workload], int(index)])


def koch_vertices(level):
    """Vertices of the unit-base von Koch curve at ``level`` (4^level
    edges, apex on the left of the direction of travel)."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    c, s = 0.5, math.sqrt(3.0) / 2.0
    for _ in range(level):
        p = pts[:-1]
        d = (pts[1:] - p) / 3.0
        tip = p + d + np.column_stack((d[:, 0] * c - d[:, 1] * s,
                                       d[:, 0] * s + d[:, 1] * c))
        new = np.empty((4 * len(p) + 1, 2))
        new[0:-1:4] = p
        new[1::4] = p + d
        new[2::4] = tip
        new[3::4] = p + 2.0 * d
        new[-1] = pts[-1]
        pts = new
    return pts


def random_walk(rng, edges, dim, knot_sigma):
    """Gaussian-step walk with lognormal(0, knot_sigma) knot spacing on
    [0, 1]; returns (knots, vertices)."""
    verts = np.vstack([np.zeros(dim), np.cumsum(rng.normal(size=(edges, dim)), axis=0)])
    knots = np.concatenate([[0.0], np.cumsum(rng.lognormal(0.0, knot_sigma, edges))])
    knots /= knots[-1]
    return knots, verts


def write_polyline_csv(path, knots, verts):
    dim = verts.shape[1]
    cols = ["x", "y"] if dim == 2 else [f"x{i}" for i in range(dim)]
    rows = np.column_stack([knots, verts])
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cli(op_id, cmd, args, out, **check):
    argv = [cmd, *[str(a) for a in args], "--out", out]
    return {"id": op_id, "kind": "cli", "cmd": cmd, "argv": argv, "out": out,
            "check": check}


def _lib(op_id, call, **params):
    return {"id": op_id, "kind": "lib", "call": call, **params}


def plan_pass(workload, seed, index, pass_dir, smoke=False):
    """Return the op list of pass ``index``; writes its input files into
    ``pass_dir``."""
    rng = pass_rng(workload, seed, index)
    return _PLANNERS[workload](rng, seed, index, pass_dir, smoke)


def _plan_geometry(rng, seed, index, d, smoke):
    lvl = (4, 4, 3, 5) if smoke else (10, 9, 8, 6)
    edges = (64, 128) if smoke else (1024, 4096)
    ops = []
    lam = float(rng.uniform(0.5, 2.0))
    ops.append(_cli("koch-dimension", "dimension", ["--level", lvl[0]],
                    f"{d}/koch-dimension.csv", koch=True))
    ops.append(_cli("koch-staircase", "staircase",
                    ["--level", lvl[1], "--grid", 4 ** (lvl[1] - 1)],
                    f"{d}/koch-staircase.csv", koch=True))
    ops.append(_cli("koch-cdf", "cdf",
                    ["--level", lvl[2], "--grid", 4 ** (lvl[2] - 2), "--lam", lam],
                    f"{d}/koch-cdf.csv", koch=True))
    # each polyline op gets its own curve
    walk3 = random_walk(rng, edges[1], 3, 0.5)
    write_polyline_csv(f"{d}/walk3.csv", *walk3)
    ops.append(_cli("walk3-staircase", "staircase",
                    ["--curve", f"{d}/walk3.csv", "--alpha", "auto"],
                    f"{d}/walk3-staircase.csv", polyline=f"{d}/walk3.csv"))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    kv = koch_vertices(lvl[3]) @ rot.T + rng.uniform(-5.0, 5.0, 2)
    write_polyline_csv(f"{d}/koch-shape.csv", np.linspace(0.0, 1.0, len(kv)), kv)
    ops.append(_cli("kochshape-dimension", "dimension",
                    ["--curve", f"{d}/koch-shape.csv", "--alpha", "auto"],
                    f"{d}/kochshape-dimension.csv", koch=True))
    walk2 = random_walk(rng, edges[0], 2, 0.5)
    write_polyline_csv(f"{d}/walk2.csv", *walk2)
    ops.append(_cli("walk2-cdf", "cdf",
                    ["--curve", f"{d}/walk2.csv", "--alpha", "auto", "--lam", lam],
                    f"{d}/walk2-cdf.csv"))
    # Known-defect input (robustness rule): a zero-cell grid must exit 2
    # or 3 with a message; at the seed it prints a one-row table.
    small = random_walk(rng, 64, 2, 0.5)
    write_polyline_csv(f"{d}/walk-small.csv", *small)
    ops.append(_cli("degenerate-staircase", "staircase",
                    ["--curve", f"{d}/walk-small.csv", "--alpha", "auto",
                     "--grid", 0],
                    f"{d}/degenerate-staircase.csv", degenerate=True))
    return ops


# Retrace repro: the curve runs out along the x axis and comes back to
# within 1e-10 of its start.
RETRACE = {"knots": [0.0, 1.0, 2.0], "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-10]]}

#: Knot spacing of the probability walk. At lognormal sigma 3 the
#: parameter speed varies by orders of magnitude along the walk, and the
#: midpoint-tag defect (quadrature tags straddling edge kinks) shows on
#: nearly every seeded walk.
PROBABILITY_KNOT_SIGMA = 3.0


def _plan_probability(rng, seed, index, d, smoke):
    k_small, k_big = (3, 4) if smoke else (5, 6)
    walk_edges = 32 if smoke else 256
    count = 20000 if smoke else 10 ** 6
    cli_count = 2000 if smoke else 50000
    n_cdf, n_deriv = (10, 5) if smoke else (200, 100)
    ref_count = 20000 if smoke else 10 ** 6
    sample_seed = int(rng.integers(1, 2 ** 31))
    knots, verts = random_walk(rng, walk_edges, 2, PROBABILITY_KNOT_SIGMA)
    tables = {
        "koch-small": {"koch": k_small},
        "koch-big": {"koch": k_big},
        "walk": {"knots": knots.tolist(), "vertices": verts.tolist()},
        "retrace": RETRACE,
    }
    ops = []
    for name, curve in tables.items():
        # memoryless rate as a multiple of the table's total mass, so the
        # truncated share is comparable across shapes
        ops.append(_lib(f"build-{name}", "build", table=name, curve=curve,
                        lam_per_mass=float(rng.uniform(0.5, 3.0))))
    for name in ("koch-small", "walk", "retrace"):
        m = int(rng.integers(1, 3))
        ops.append(_lib(f"{name}-uniform-mean", "moment", table=name,
                        law="uniform", what="mean", ref_seed=sample_seed, ref_count=ref_count))
        ops.append(_lib(f"{name}-uniform-variance", "moment", table=name,
                        law="uniform", what="variance", ref_seed=sample_seed,
                        ref_count=ref_count))
        ops.append(_lib(f"{name}-memoryless-mean", "moment", table=name,
                        law="memoryless", what="mean", ref_seed=sample_seed,
                        ref_count=ref_count))
        ops.append(_lib(f"{name}-memoryless-moment_of_j", "moment", table=name,
                        law="memoryless", what="moment_of_j", m=m, ref_seed=sample_seed,
                        ref_count=ref_count))
    ops.append(_lib("koch-big-sample", "sample", table="koch-big",
                    law="memoryless", seed=sample_seed, count=count))
    lam = float(rng.uniform(0.5, 2.0))
    ops.append(_cli("sample-cli", "sample",
                    ["--level", k_big, "--count", cli_count, "--lam", lam,
                     "--seed", int(rng.integers(0, 2 ** 31))],
                    f"{d}/sample.csv", lam=lam))
    kv = koch_vertices(k_big)
    for i, t0 in enumerate(rng.uniform(0.0, 1.0, n_cdf)):
        ops.append(_lib(f"cdf-{i}", "cdf", table="koch-big", law="memoryless",
                        t=float(t0), theta=koch_point(kv, t0).tolist()))
    for i, t0 in enumerate(rng.uniform(0.0, 1.0, n_deriv)):
        ops.append(_lib(f"derivative-{i}", "derivative", table="koch-big",
                        t=float(t0), theta=koch_point(kv, t0).tolist(),
                        level=k_big, h_fraction=1e-4))
    return ops


def koch_point(kv, t):
    """Point of the polyline ``kv`` with uniform knots at parameter t."""
    m = len(kv) - 1
    i = min(int(t * m), m - 1)
    frac = t * m - i
    return kv[i] + frac * (kv[i + 1] - kv[i])


def _stochastic_order(rng, seed, index):
    """sde truncation order: one pass per block of four draws from the
    overflowing range 49..60, the other three from 10..48."""
    block_rng = np.random.default_rng([int(seed), _WORKLOAD_ID["stochastic"],
                                       index // 4, 1])
    if index % 4 == int(block_rng.integers(0, 4)):
        return int(rng.integers(49, 61))
    return int(rng.integers(10, 49))


def _plan_stochastic(rng, seed, index, d, smoke):
    scale = 10 if smoke else 1
    line_b = float(rng.uniform(1.0, 2.0))
    line = ["--curve", "line", "--line-b", line_b]
    order = _stochastic_order(rng, seed, index)
    ops = [
        _cli("correlation", "correlation",
             [*line, "--points", 100 // scale, "--n", 8000 // scale,
              "--fixture", "brownian-like", "--seed", int(rng.integers(0, 2 ** 31))],
             f"{d}/correlation.csv"),
        _cli("msdiag", "msdiag",
             [*line, "--n", 20000 // scale, "--seed", int(rng.integers(0, 2 ** 31))],
             f"{d}/msdiag.csv"),
        _cli("sde", "sde",
             [*line, "--mu", 2, "--nu", 1, "--grid", 128 // scale,
              "--n", 50000 // scale, "--order", order,
              "--seed", int(rng.integers(0, 2 ** 31))],
             f"{d}/sde.csv", order=order),
    ]
    lib_seed = int(rng.integers(0, 2 ** 31))
    ops.append(_lib("ms_integral", "ms_integral", b=line_b, u=float(rng.uniform(0, 1)),
                    n=2000 // scale, seed=lib_seed))
    ops.append(_lib("improper_ms_integral", "improper_ms_integral",
                    ladder=[2.0, 4.0, 8.0], n=2000 // scale, seed=lib_seed + 1))
    ops.append(_lib("ms_derivative_check", "ms_derivative_check",
                    tau=float(rng.uniform(0.1, 0.9)), n=10000 // scale, seed=lib_seed + 2))
    ops.append(_lib("solve_series", "solve_series", order=40,
                    mu=int(rng.integers(1, 4)), nu=int(rng.integers(1, 4)),
                    ex0=float(rng.uniform(0.5, 2.0)), j_max=line_b))
    return ops


_PLANNERS = {
    "geometry": _plan_geometry,
    "probability": _plan_probability,
    "stochastic": _plan_stochastic,
}


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
