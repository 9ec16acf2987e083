"""The Monte Carlo kernels that split their work across threads return the
same bits at any worker count."""

import sys

import numpy as np
import pytest

from fractalcalc import _threads
from fractalcalc import rng as frng
from fractalcalc.oscillator import (
    BetaSquaredAmplitude,
    FixedSquaredAmplitude,
    deterministic_initial_data,
    mc_solution_moments,
)
from fractalcalc.processes import brownian_like, cosine_phase, estimate_correlation_grid
from test_oscillator import ZeroMixedBeta, correlated_initial_data


def at_worker_counts(monkeypatch, compute):
    """``compute()`` with 1, 2 and 3 workers and every size split, with a
    short switch interval so the threads interleave; also the most tasks
    any one split handed out at each count."""
    tasks = []

    def counted_run(batch, run=_threads.run):
        tasks[-1] = max(tasks[-1], len(batch))
        run(batch)

    monkeypatch.setattr(_threads, "MIN_SPLIT", 1)
    monkeypatch.setattr(_threads, "run", counted_run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = []
        for count in (1, 2, 3):
            monkeypatch.setattr(_threads, "cpus", lambda count=count: count)
            tasks.append(0)
            out.append(compute())
    finally:
        sys.setswitchinterval(interval)
    return out, tasks


def as_bytes(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


@pytest.mark.parametrize("points", [1, 2, 3, 129])
@pytest.mark.parametrize("a2, initial", [
    (BetaSquaredAmplitude(2.0, 1.0), correlated_initial_data),
    (ZeroMixedBeta(), correlated_initial_data),
    (FixedSquaredAmplitude(0.0), deterministic_initial_data(1.0, 2.0)),
], ids=["beta", "zero-mixed", "fixed-zero"])
def test_ensemble_moments(monkeypatch, a2, initial, points):
    j = np.linspace(0.0, 2.5, points)

    def compute():
        mc = mc_solution_moments(a2, initial, 1500, 11, j)
        return as_bytes(mc.mean, mc.mean_stderr)

    (one, two, three), tasks = at_worker_counts(monkeypatch, compute)
    assert one == two == three
    # groups are at least two columns wide
    assert tasks == [1, min(2, max(1, points // 2)), min(3, max(1, points // 2))]


@pytest.mark.parametrize("points", [1, 2, 17, 100])
def test_correlation_grid(monkeypatch, points):
    j = np.linspace(0.0, 1.5, points)

    def compute():
        grid = estimate_correlation_grid(brownian_like(), j, 8192, 4)
        return as_bytes(grid.r, grid.stderr)

    (one, two, three), tasks = at_worker_counts(monkeypatch, compute)
    assert one == two == three
    assert tasks == [1, min(2, points), min(3, points)]


def test_cosine_phase_draw(monkeypatch):
    j = np.linspace(0.0, 3.0, 37)

    def compute():
        return as_bytes(cosine_phase().draw_paths(frng.stream(6), j, 1001))

    (one, two, three), tasks = at_worker_counts(monkeypatch, compute)
    assert one == two == three
    assert tasks == [1, 2, 3]
