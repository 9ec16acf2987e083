"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them inline)."""

import math
import time

import numpy as np

import conftest

from fractalcalc import (
    KOCH_DIMENSION,
    BetaSquaredAmplitude,
    DistributionOnCurve,
    MomentSpec,
    build_koch,
    build_line,
    build_staircase,
    falpha_derivative,
    falpha_integral,
    linear_amplitude,
    ms_continuity_check,
    ms_derivative_check,
    ms_integral_precheck,
    sampling_cdf,
    second_generalized_derivative,
    solve_series,
    white_noise,
)
from ks import ks_distance
from emitted import read_csv
from fractalcalc.cli import main
from fractalcalc.oscillator import (
    deterministic_initial_data,
    mc_solution_moments,
    mean_coefficients,
    second_moment_coefficients,
)
from fractalcalc.processes import FractalProcess
from constant import constant_process
from fractalcalc import rng as frng


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, detail


def test_criterion_01_gamma_dimension_runtime(tmp_path):
    out = tmp_path / "dim.csv"
    start = time.perf_counter()
    code = main(["dimension", "--level", "6", "--out", str(out)])
    elapsed = time.perf_counter() - start
    meta, _, _ = read_csv(out)
    value = float(meta["dimension"])
    ok = code == 0 and abs(value - 1.26186) <= 0.02 and elapsed < 30.0
    report(1, ok, f"dimension {value:.5f} (target 1.26186 +/- 0.02) in {elapsed:.2f}s")


def test_criterion_02_staircase_linearity():
    table = build_staircase(build_koch(6), alpha=KOCH_DIMENSION)
    total = float(table.s[-1])
    worst = 0.0
    for level in range(1, 7):
        t = np.arange(4 ** level + 1) / 4.0 ** level
        worst = max(worst, float(np.abs(table.value(t) - t * total).max()) / total)
    ok = worst < 1e-6
    report(2, ok, f"max relative staircase deviation at 4-adic points {worst:.3e} < 1e-6")


def test_criterion_03_classical_degeneration():
    table = build_staircase(build_line(0, 1), alpha=1.0)
    points = np.linspace(0.05, 0.95, 20)
    deriv_err = max(
        abs(falpha_derivative(lambda p: p[0] ** 2, table, np.array([t]), h=1e-4)
            - 2.0 * t)
        for t in points
    )
    integral = falpha_integral(lambda pts: np.atleast_2d(pts)[:, 0], table, 0, 1)
    int_err = abs(integral - 0.5)
    ok = deriv_err < 1e-6 and int_err < 1e-9
    report(3, ok, f"derivative error {deriv_err:.2e} < 1e-6, integral error {int_err:.2e} < 1e-9")


def test_criterion_04_memoryless_cdf_curve(tmp_path):
    out = tmp_path / "cdf.csv"
    code = main(["cdf", "--level", "6", "--lam", "1.0", "--out", str(out)])
    _, header, rows = read_csv(out)
    j = np.array([r[header.index("J")] for r in rows])
    f = np.array([r[header.index("F_X")] for r in rows])
    analytic_ok = (
        code == 0
        and f[0] == 0.0
        and np.all(np.diff(f) >= 0.0)
        and np.abs(f - (1.0 - np.exp(-j))).max() <= 1e-12
    )
    table = build_staircase(build_koch(6))
    dist = DistributionOnCurve.memoryless(table, 1.0)
    sample = dist.sample(99, 10 ** 5)
    band = 1.36 / math.sqrt(10 ** 5)
    ks = ks_distance(sample.j, sampling_cdf(dist))
    ok = analytic_ok and ks < band
    report(4, ok, f"cdf grid analytic to 1e-12, KS {ks:.4f} < band {band:.4f}")


def test_criterion_05_series_opening_coefficients():
    spec = MomentSpec(1.0, 1.0, 1.0, 1.0, 1.0, BetaSquaredAmplitude(2.0, 1.0))
    mean_open = mean_coefficients(spec, 20)[:4]
    second_open = second_moment_coefficients(spec, 20)[:3]
    mean_err = np.abs(mean_open - np.array([1.0, 1.0, -1.0 / 3.0, -1.0 / 9.0])).max()
    second_err = np.abs(second_open - np.array([1.0, 2.0, 1.0])).max()
    ok = mean_err <= 1e-12 and second_err <= 1e-12
    report(5, ok, f"mean opens (1,1,-1/3,-1/9) err {mean_err:.1e}, "
                  f"second opens (1,2,1) err {second_err:.1e}")


def test_criterion_06_oscillator_cosine(tmp_path):
    out = tmp_path / "sde.csv"
    code = main([
        "sde", "--curve", "line", "--line-b", "2", "--a2", "4",
        "--ex0", "1", "--ex1", "0", "--order", "20", "--grid", "128",
        "--n", "100", "--out", str(out),
    ])
    _, header, rows = read_csv(out)
    j = np.array([r[header.index("J")] for r in rows])
    mean = np.array([r[header.index("mean")] for r in rows])
    sup_err = float(np.abs(mean - np.cos(2.0 * j)).max())
    ok = code == 0 and j[-1] >= 2.0 - 1e-12 and sup_err < 1e-8
    report(6, ok, f"sup |mean - cos(2J)| = {sup_err:.2e} < 1e-8 on J in [0,2]")


def test_criterion_07_monte_carlo_coherence():
    start = time.perf_counter()
    spec = MomentSpec(1.0, 1.0, 1.0, 1.0, 1.0, BetaSquaredAmplitude(2.0, 1.0))
    j = np.linspace(0.0, 1.0, 21)
    mc = mc_solution_moments(
        BetaSquaredAmplitude(2.0, 1.0), deterministic_initial_data(1.0, 1.0),
        10 ** 5, 7, j,
    )
    series = solve_series(spec, 20).mean(j)
    gaps = np.abs(mc.mean - series)
    within = np.all(gaps <= 3.0 * mc.mean_stderr + 1e-12)
    elapsed = time.perf_counter() - start
    ok = bool(within) and elapsed < 60.0
    report(7, ok, f"series within 3 stderr at all 21 points "
                  f"(worst gap {gaps.max():.2e}) in {elapsed:.2f}s")


def test_criterion_08_mean_square_diagnostics():
    lin = linear_amplitude(2.0)
    gsd = second_generalized_derivative(lin.correlation, 0.0)
    exact = all(abs(v - 2.0) <= 1e-12 for v in gsd.values)
    wn = ms_continuity_check(white_noise(), 0.3, n=10000)
    implication_ok = True
    from fractalcalc.processes import BUILTIN_FIXTURES
    for name, maker in BUILTIN_FIXTURES.items():
        proc = maker() if name in ("cosine-phase", "brownian-like") else maker(1.0)
        chk = ms_derivative_check(proc, 0.25, n=6000)
        if chk.differentiable and not chk.continuity.continuous:
            implication_ok = False
    ok = exact and not wn.continuous and implication_ok
    report(8, ok, "linear-amplitude ladder exactly sigma^2, white noise "
                  "not continuous, no differentiable-without-continuous fixture")


def test_criterion_09_integral_existence_coherence():
    table = build_staircase(build_line(0, 1))

    def amp_draw(gen, jv, n):
        a = gen.normal(0.0, 1.0, n)
        return np.repeat(a[:, None], len(jv), axis=1)

    amplitude = FractalProcess(
        "amplitude", amp_draw,
        lambda j1, j2: np.ones(np.broadcast(np.asarray(j1), np.asarray(j2)).shape),
    )

    def affine_draw(gen, jv, n):
        a = gen.normal(0.0, 1.0, n)
        return a[:, None] * np.asarray(jv)[None, :] + 1.0

    affine = FractalProcess(
        "affine", affine_draw,
        lambda j1, j2: np.asarray(j1) * np.asarray(j2) + 1.0,
    )
    fixtures = [
        (constant_process(1.0), lambda j, u: np.ones_like(j)),
        (amplitude, lambda j, u: np.ones_like(j)),
        (affine, lambda j, u: np.ones_like(j)),
    ]
    agreements = []
    for proc, weight in fixtures:
        pre = ms_integral_precheck(proc, weight, table, 0, 1, n=4000, seed=6)
        sums = []
        for k in (64, 128, 256):
            t = np.linspace(0, 1, k + 1)
            s = np.asarray(table.value(t))
            mids = np.asarray(table.value(0.5 * (t[:-1] + t[1:])))
            coeff = np.asarray(weight(mids, 0.0)) * np.diff(s)
            paths = proc.draw_paths(frng.stream(6, 1), mids, 4000)
            sums.append(paths @ coeff)
        gaps = [float(np.mean((sums[i + 1] - sums[i]) ** 2)) for i in range(2)]
        empirical = gaps[1] <= max(0.75 * gaps[0], 1e-9)
        agreements.append(pre.exists == empirical)
    ok = all(agreements)
    report(9, ok, f"pre-check verdicts agree with empirical Cauchy behavior: {agreements}")


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["dimension", "--level", "4"],
        ["staircase", "--level", "4"],
        ["cdf", "--level", "4", "--grid", "64"],
        ["sample", "--family", "uniform", "--level", "4", "--count", "200",
         "--seed", "3"],
        ["correlation", "--curve", "line", "--points", "3", "--n", "500"],
        ["msdiag", "--n", "2000"],
        ["sde", "--curve", "line", "--mu", "2", "--nu", "1", "--grid", "16",
         "--n", "500"],
    ]
    identical = []
    for i, args in enumerate(commands):
        a = tmp_path / f"{i}a.csv"
        b = tmp_path / f"{i}b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        identical.append(a.read_bytes() == b.read_bytes())
    ok = all(identical)
    report(10, ok, f"byte-identical reruns per command: {identical}")
