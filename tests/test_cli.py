import hashlib
import math
import os
import pathlib
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest

from fractalcalc import KOCH_DIMENSION, build_koch
from fractalcalc import _floatcells, cli
from fractalcalc._floatcells import CELL_BYTES, FloatCells, _E_MAX, _E_MIN
from fractalcalc.cli import main
from fractalcalc.curves import _BLOCK
from fractalcalc.processes import (BUILTIN_FIXTURES, FractalProcess, brownian_like,
                                   ms_derivative_check)
from fractalcalc.staircase import gamma_dimension
from conftest import simd_pin, traced_peak
from emitted import read_csv


SAMPLE_FAULTS = """
import os
import resource
from fractalcalc.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(["sample", "--level", "6", "--count", "50000", "--out", os.devnull])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

RANDOM_LOADED = """
import os
import sys
import fractalcalc, fractalcalc.cli
loaded = ["import", "numpy.random" in sys.modules]
for args in ["dimension --level 3", "staircase --level 3 --grid 64",
             "cdf --level 3 --grid 16", "sample --level 3 --count 10"]:
    assert fractalcalc.cli.main([*args.split(), "--out", os.devnull]) == 0
    loaded += [args.split()[0], "numpy.random" in sys.modules]
print(*loaded)
"""


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def column(header, rows, name):
    idx = header.index(name)
    return np.array([row[idx] for row in rows])


class TestDimensionCommand:
    def test_koch_level6(self, tmp_path):
        code, out = run(tmp_path, "dim.csv", "dimension", "--level", "6")
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["alpha", "delta", "mass"]
        assert abs(float(meta["dimension"]) - KOCH_DIMENSION) <= 0.02
        assert len(rows) > 0

    def test_line_is_one(self, tmp_path):
        code, out = run(tmp_path, "dim.csv", "dimension", "--curve", "line")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert float(meta["dimension"]) == pytest.approx(1.0, abs=1e-2)

    def test_level0_koch_is_one(self, tmp_path):
        code, out = run(tmp_path, "dim.csv", "dimension", "--level", "0")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert float(meta["dimension"]) == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("command", ["dimension", "staircase"])
    def test_echoes_the_parsed_alpha(self, tmp_path, command):
        code, out = run(tmp_path, "a.csv", command, "--level", "3", "--alpha", "1.50")
        assert code == 0
        assert read_csv(out)[0]["alpha"] == "1.5"

    def test_tol_wider_than_bracket_exits_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "dim.csv", "dimension", "--level", "3", "--tol", "5")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: tol=5.0 exceeds")

    @pytest.mark.parametrize("relabel", [lambda t: t, lambda t: t + 0.3, lambda t: 5.0 * t],
                             ids=["t", "t+0.3", "5t"])
    def test_polyline_dimension_ignores_units_of_t(self, tmp_path, relabel):
        # the Koch-5 shape printed 1, 1.21484375 before the lattice was
        # taken over the curve's domain
        code, out = run(tmp_path, "dim.csv", "dimension",
                        "--curve", str(_koch5_csv(tmp_path, relabel)))
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["dimension"] == "1.26171875"

    @pytest.mark.parametrize("scale", [1e-10, 1e-8, 1e6, 1e10])
    def test_polyline_dimension_ignores_units_of_x(self, tmp_path, scale):
        # the Koch-5 shape printed 1.15234375 at 1e-8 and exited 3 at 1e-10
        # while the mass verdicts compared against absolute thresholds
        code, out = run(tmp_path, "dim.csv", "dimension",
                        "--curve", str(_koch5_csv(tmp_path, lambda t: t, scale)))
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["dimension"] == "1.26171875"

    def test_auto_alpha_on_relabelled_knots_is_koch(self, tmp_path):
        path = _koch5_csv(tmp_path, lambda t: 5.0 * t)
        code, out = run(tmp_path, "s.csv", "staircase", "--curve", str(path), "--alpha", "auto")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert float(meta["alpha"]) == KOCH_DIMENSION


def _koch5_csv(tmp_path, relabel, scale=1.0):
    koch = build_koch(5)
    path = tmp_path / "koch5.csv"
    rows = [",".join(map(repr, map(float, (t, x, y))))
            for t, (x, y) in zip(relabel(koch.knots), scale * koch.vertices)]
    path.write_text("t,x,y\n" + "\n".join(rows) + "\n")
    return path


class TestCdfCommand:
    def test_monotone_and_analytic(self, tmp_path):
        code, out = run(tmp_path, "cdf.csv", "cdf", "--level", "5", "--lam", "1.0")
        assert code == 0
        meta, header, rows = read_csv(out)
        j = column(header, rows, "J")
        f = column(header, rows, "F_X")
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= 0.0)
        np.testing.assert_allclose(f, 1.0 - np.exp(-j), atol=1e-12)
        assert float(meta["f_max"]) < 1.0

    def test_rate_monotonicity(self, tmp_path):
        _, out1 = run(tmp_path, "a.csv", "cdf", "--level", "4", "--lam", "1.0")
        _, out2 = run(tmp_path, "b.csv", "cdf", "--level", "4", "--lam", "2.0")
        _, h1, r1 = read_csv(out1)
        _, h2, r2 = read_csv(out2)
        f1 = column(h1, r1, "F_X")
        f2 = column(h2, r2, "F_X")
        assert np.all(f2[1:] > f1[1:])

    def test_bad_rate_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "c.csv", "cdf", "--lam", "-1.0")
        assert code == 2


class TestStaircaseCommand:
    def test_line_identity(self, tmp_path):
        code, out = run(tmp_path, "st.csv", "staircase", "--curve", "line")
        assert code == 0
        _, header, rows = read_csv(out)
        t = column(header, rows, "t")
        s = column(header, rows, "S")
        np.testing.assert_allclose(s, t, atol=1e-12)

    def test_koch_quarter_ratio(self, tmp_path):
        code, out = run(tmp_path, "st.csv", "staircase", "--level", "6")
        assert code == 0
        _, header, rows = read_csv(out)
        t = column(header, rows, "t")
        s = column(header, rows, "S")
        quarter = s[np.argmin(np.abs(t - 0.25))]
        assert quarter / s[-1] == pytest.approx(0.25, abs=1e-6)

    def test_sign_change_at_interior_origin(self, tmp_path):
        code, out = run(tmp_path, "st.csv", "staircase", "--curve", "line",
                        "--p0", "0.5")
        assert code == 0
        _, header, rows = read_csv(out)
        s = column(header, rows, "S")
        assert s[0] < 0.0 < s[-1]


class TestSampleCommand:
    def test_uniform_sample_metadata(self, tmp_path):
        code, out = run(tmp_path, "s.csv", "sample", "--family", "uniform",
                        "--level", "4", "--count", "50", "--seed", "5")
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["seed"] == "5"
        assert int(meta["count"]) == 50
        assert len(rows) == 50
        assert header[:2] == ["t", "J"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_family_exits_2_with_message(self, tmp_path, capsys, source):
        args = ["--family", "bogus"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("family = bogus\n")
            args = ["--config", str(cfg)]
        code, out = run(tmp_path, "s.csv", "sample", "--level", "2", *args)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: unknown family")

    def test_memoryless_reports_truncation(self, tmp_path):
        code, out = run(tmp_path, "s.csv", "sample", "--family", "memoryless",
                        "--level", "4", "--count", "10")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert 0.0 < float(meta["truncated_mass"]) < 1.0


class TestCorrelationCommand:
    def test_grid_output(self, tmp_path):
        code, out = run(tmp_path, "c.csv", "correlation", "--curve", "line",
                        "--points", "3", "--n", "500")
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["J1", "J2", "R", "stderr"]
        assert len(rows) == 9
        r = {(row[0], row[1]): row[2] for row in rows}
        for (a, b), v in r.items():
            assert v == r[(b, a)]

    def test_negative_sigma2_exits_2_naming_it(self, tmp_path, capsys):
        code, out = run(tmp_path, "c.csv", "correlation", "--curve", "line",
                        "--sigma2", "-1")
        assert code == 2
        assert not out.exists()
        assert "sigma2 must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correlation", "msdiag"])
    def test_negative_sigma2_for_white_noise_names_the_option(self, tmp_path, capsys,
                                                              command):
        code, out = run(tmp_path, "w.csv", command, "--curve", "line",
                        "--fixture", "white-noise", "--sigma2", "-1")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: sigma2 must be non-negative, got -1.0\n"

    @pytest.mark.parametrize("command, fixture", [
        ("correlation", "brownian-like"), ("correlation", "cosine-phase"),
        ("msdiag", "brownian-like"), ("msdiag", "cosine-phase")])
    def test_sigma2_for_a_fixture_without_one_exits_2(self, tmp_path, capsys,
                                                      command, fixture):
        args = [command, "--curve", "line", "--fixture", fixture, "--n", "200"]
        code, out = run(tmp_path, "f.csv", *args, "--sigma2", "4")
        assert code == 2
        assert not out.exists()
        assert f"fixture '{fixture}' has no variance parameter" in capsys.readouterr().err
        # the default sigma2, given or not, prints the same rows
        bodies = []
        for extra in ([], ["--sigma2", "1"]):
            code, out = run(tmp_path, "d.csv", *args, *extra)
            assert code == 0
            bodies.append([ln for ln in out.read_text().splitlines() if ln[0] != "#"])
        assert bodies[0] == bodies[1]

    def test_sigma2_under_all_reaches_the_fixtures_that_take_it(self, tmp_path):
        args = ["msdiag", "--curve", "line", "--n", "200"]
        values = {}
        for sigma2 in ("1", "2"):
            code, out = run(tmp_path, f"m{sigma2}.csv", *args, "--sigma2", sigma2)
            assert code == 0
            values[sigma2] = {row[0]: float(row[3]) for row in read_csv(out)[2]}
        assert values["2"]["linear-amplitude"] == pytest.approx(2.0 * values["1"]["linear-amplitude"])
        assert values["2"]["cosine-phase"] == values["1"]["cosine-phase"]


class TestMsdiagCommand:
    def test_verdict_table(self, tmp_path):
        code, out = run(tmp_path, "m.csv", "msdiag", "--sigma2", "2.0",
                        "--n", "4000")
        assert code == 0
        _, header, rows = read_csv(out)
        verdicts = {row[0]: (row[1], row[2], row[3]) for row in rows}
        assert verdicts["linear-amplitude"][0] == "true"
        assert verdicts["linear-amplitude"][1] == "true"
        assert float(verdicts["linear-amplitude"][2]) == pytest.approx(2.0)
        assert verdicts["white-noise"][0] == "false"
        assert verdicts["white-noise"][1] == "false"
        assert verdicts["cosine-phase"] [0] == "true"
        assert verdicts["cosine-phase"][1] == "true"
        assert verdicts["brownian-like"][0] == "true"
        assert verdicts["brownian-like"][1] == "false"

    @pytest.mark.parametrize("sigma2", ["1", "1e-10", "1e-14"])
    def test_white_noise_verdicts_ignore_sigma2(self, tmp_path, sigma2):
        code, out = run(tmp_path, "m.csv", "msdiag", "--curve", "line", "--fixture",
                        "white-noise", "--tau", "0.3", "--sigma2", sigma2)
        assert code == 0
        _, _, rows = read_csv(out)
        (row,) = rows
        assert row[:3] == ["white-noise", "false", "false"] and math.isnan(row[3])

    def test_verdicts_far_along_a_long_line(self, tmp_path):
        code, out = run(tmp_path, "m.csv", "msdiag", "--curve", "line", "--line-b", "10000",
                        "--tau", "6405.920704482398")
        assert code == 0
        _, _, rows = read_csv(out)
        assert {row[0]: row[1:3] for row in rows} == {
            "brownian-like": ["true", "false"], "cosine-phase": ["true", "true"],
            "linear-amplitude": ["undecided", "undecided"], "white-noise": ["false", "false"]}

    @pytest.mark.parametrize("tau, fixture", [
        *[(tau, "linear-amplitude") for tau in ("1e3", "1e4", "1e6", "1e9")],
        *[(tau, "all") for tau in ("1e15", "1e16", "1e17")],
    ])
    def test_no_resolved_rung_reads_undecided(self, tmp_path, tau, fixture):
        # the four R terms cancel at tau^2, so fewer than three rungs of
        # D = eps^2 clear their rounding; from 1e15 on, tau + eps rounds to
        # tau at the small offsets, and D = 0 there is no constant process
        code, out = run(tmp_path, "m.csv", "msdiag", "--curve", "line", "--line-b",
                        str(2.0 * float(tau)), "--tau", tau, "--fixture", fixture)
        assert code == 0
        names = sorted(BUILTIN_FIXTURES) if fixture == "all" else [fixture]
        assert out.read_text().splitlines()[-len(names):] == [
            f"{name},undecided,undecided,nan" for name in names]
        if fixture == "all":
            drawn = FractalProcess("drawn", brownian_like().draw_paths)
            check = ms_derivative_check(drawn, float(tau), n=1000)
            assert (check.continuity.continuous, check.differentiable) == (None, None)

    def test_unknown_fixture_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "m.csv", "msdiag", "--fixture", "bogus")
        assert code == 2

    def test_tau_within_reach_of_the_end_names_the_reach(self, tmp_path, capsys):
        code, _ = run(tmp_path, "m.csv", "msdiag", "--curve", "line", "--tau", "0.95")
        assert code == 2
        assert "reach tau + 0.1" in capsys.readouterr().err


class TestSdeCommand:
    def test_fixed_amplitude_tracks_cosine(self, tmp_path):
        code, out = run(
            tmp_path, "sde.csv", "sde", "--curve", "line", "--line-b", "2",
            "--a2", "4", "--ex0", "1", "--ex1", "0", "--grid", "64",
            "--n", "200",
        )
        assert code == 0
        _, header, rows = read_csv(out)
        j = column(header, rows, "J")
        mean = column(header, rows, "mean")
        np.testing.assert_allclose(mean, np.cos(2.0 * j), atol=1e-8)
        assert mean[0] == 1.0
        # first zero of the mean sits near J = pi / 4
        sign_flip = np.flatnonzero(np.sign(mean[:-1]) != np.sign(mean[1:]))[0]
        assert abs(j[sign_flip] - math.pi / 4.0) < 0.05

    def test_deterministic_recipe_prints_the_ensemble_second_moment(self, tmp_path):
        # fixed A^2 = 4 and fixed data: X = cos(2J) on every path
        code, out = run(
            tmp_path, "sde.csv", "sde", "--curve", "line", "--line-b", "2",
            "--a2", "4", "--ex0", "1", "--ex1", "0",
        )
        assert code == 0
        _, header, rows = read_csv(out)
        j = column(header, rows, "J")
        np.testing.assert_allclose(column(header, rows, "variance"), 0.0, atol=1e-8)
        np.testing.assert_allclose(column(header, rows, "second_moment"),
                                   np.cos(2.0 * j) ** 2, atol=1e-8)

    def test_reference_coefficient_openings(self, tmp_path):
        code, out = run(
            tmp_path, "sde.csv", "sde", "--curve", "line", "--mu", "2",
            "--nu", "1", "--ex0", "1", "--ex1", "1", "--ex0sq", "1",
            "--ex1sq", "1", "--ex01", "1", "--grid", "16", "--n", "100",
        )
        assert code == 0
        _, header, rows = read_csv(out)
        j = column(header, rows, "J")
        mean = column(header, rows, "mean")
        second = column(header, rows, "second_moment")
        opening = 1.0 + j - j ** 2 / 3.0 - j ** 3 / 9.0
        small = j <= 0.25
        assert np.abs(mean[small] - opening[small]).max() < 2e-4
        # the squared series opens 1 + 2J + (1 - E[A^2]) J^2, E[A^2] = 2/3,
        # up to its own cubic term; the paper's (1, 2, 1) is criterion 5's
        gap = np.abs(second[small] - (1.0 + 2.0 * j[small] + j[small] ** 2 / 3.0))
        assert np.all(gap <= 1.5 * j[small] ** 3 + 1e-12)

    def test_seed_changes_mc_only(self, tmp_path):
        args = ["sde", "--curve", "line", "--mu", "2", "--nu", "1",
                "--grid", "8", "--n", "400"]
        _, out1 = run(tmp_path, "s1.csv", *args, "--seed", "1")
        _, out2 = run(tmp_path, "s2.csv", *args, "--seed", "2")
        _, h1, r1 = read_csv(out1)
        _, h2, r2 = read_csv(out2)
        np.testing.assert_array_equal(column(h1, r1, "mean"),
                                      column(h2, r2, "mean"))
        assert not np.array_equal(column(h1, r1, "mc_mean")[1:],
                                  column(h2, r2, "mc_mean")[1:])
        diff = np.abs(column(h1, r1, "mc_mean") - column(h2, r2, "mc_mean"))
        band = 4.0 * (column(h1, r1, "mc_stderr") + column(h2, r2, "mc_stderr"))
        assert np.all(diff[1:] <= band[1:])

    def test_missing_amplitude_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", "sde", "--curve", "line")
        assert code == 2

    def test_high_order_stays_finite(self, tmp_path):
        code, out = run(tmp_path, "sde.csv", "sde", "--curve", "line", "--mu", "2",
                        "--nu", "1", "--order", "60", "--grid", "16", "--n", "100")
        assert code == 0
        _, header, rows = read_csv(out)
        for name in ("mean", "second_moment", "variance"):
            assert np.all(np.isfinite(column(header, rows, name)))


class TestDegenerateInputs:
    @pytest.mark.parametrize("args", [
        ["staircase", "--grid", "0"],
        ["cdf", "--grid", "0"],
        ["sde", "--curve", "line", "--a2", "1", "--grid", "0"],
        ["correlation", "--curve", "line", "--points", "0"],
        ["correlation", "--curve", "line", "--n", "1"],
        ["sde", "--curve", "line", "--a2", "1", "--order", "85"],
        ["sde", "--curve", "line", "--a2", "1", "--order", "-1"],
        ["sde", "--mu", "2", "--nu", "1", "--ex0", "1", "--ex1", "1", "--ex0sq", "1",
         "--ex1sq", "1", "--ex01", "0.5"],
        ["msdiag", "--curve", "line", "--tau", "5", "--n", "200"],
        ["msdiag", "--curve", "line", "--tau", "-0.5", "--n", "200"],
        ["msdiag", "--curve", "line", "--tau", "1", "--n", "200"],
        ["msdiag", "--curve", "line", "--tau", "0.95", "--n", "200"],
        # Koch built below its configured level: the refusal prints no note
        ["staircase", "--level", "7", "--alpha", "1.2", "--grid", "0"],
        ["cdf", "--level", "9", "--alpha", "1.2", "--grid", "0"],
        ["cdf", "--curve", "spiral"],
        ["sde", "--curve", "line", "--mu", "2", "--nu", "1", "--a2", "1"],
        # each value is parsed by its type, whether or not the command reads it
        ["dimension", "--level", "3", "--alpha", "-1"],
        ["dimension", "--level", "3", "--alpha", "0"],
        # the text after --config is the file's
        ["cdf", "--config", "grid 4\n"],
        ["staircase", "--curve", "line", "--config", "# a line reads no level\n\nlevel = abc\n"],
        ["cdf", "--config", "grid =\n"],
    ], ids=["staircase-grid-0", "cdf-grid-0", "sde-grid-0", "correlation-points-0",
            "correlation-n-1", "sde-order-85", "sde-order-negative",
            "sde-impossible-moments", "msdiag-tau-past-curve", "msdiag-tau-before-curve",
            "msdiag-tau-at-curve-end", "msdiag-reach-past-curve",
            "staircase-level-7-grid-0", "cdf-level-9-grid-0", "unknown-curve",
            "sde-mu-nu-and-a2", "dimension-alpha-negative", "dimension-alpha-0",
            "config-line-without-equals", "config-level-abc-on-a-line", "config-grid-empty"])
    def test_exits_2_with_message(self, tmp_path, capsys, args):
        if "--config" in args:
            at = args.index("--config") + 1
            (tmp_path / "run.cfg").write_text(args[at])
            args = [*args[:at], str(tmp_path / "run.cfg"), *args[at + 1:]]
        code, out = run(tmp_path, "d.csv", *args)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("args", [
        ["dimension", "--level", "3", "--tol", "nan"],
        ["msdiag", "--curve", "line", "--tau", "nan"],
        ["staircase", "--alpha", "nan"],
        ["staircase", "--alpha", "inf"],
        ["cdf", "--lam", "nan"],
        ["sample", "--lam", "nan"],
        ["correlation", "--sigma2", "nan"],
        ["sde", "--a2", "nan"],
    ], ids=lambda args: "-".join(args).replace("--", ""))
    def test_exits_2_with_message(self, tmp_path, capsys, args):
        code, out = run(tmp_path, "n.csv", *args)
        assert code == 2
        assert not out.exists()
        assert "must be a finite number" in capsys.readouterr().err

    def test_config_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve = line\nlam = inf\n")
        code, out = run(tmp_path, "n.csv", "cdf", "--config", str(cfg))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: lam must be a finite number, got inf\n"


def bit_sweep():
    """10**6 seeded float64 bit patterns: random sign and mantissa, the
    exponent field spanning the formatter's table and a margin past each
    end (1e-101 to 1e101), then 2**16 patterns random in every bit."""
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    low, high = (np.frexp(np.array([1e-101, 1e101]))[1] + 1022).tolist()
    field = rng.integers(low, high + 1, 10 ** 6).astype(np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (field << np.uint64(52))
    wild = rng.integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64)
    return np.concatenate([bits, wild]).view(np.float64)


def half_way_ties():
    """Exact dyadic ties: n * 2**-j for odd n < 2**53 whose decimal digits
    n * 5**j are 18 ending in 5, so that 17 digits fall half-way."""
    rng = np.random.default_rng(33)
    ties = []
    for j in range(1, 26):
        low, high = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        if low <= high:
            ties += [math.ldexp(n | 1, -j) for n in rng.integers(low, high + 1, 40).tolist()
                     if len(str((n | 1) * 5 ** j)) == 18]
    return ties


def float_edges():
    """The named edge sets, each with its negation."""
    tiny = math.ulp(0.0)
    smallest, largest = sys.float_info.min, sys.float_info.max
    specials = [0.0, math.nan, math.inf, tiny, 2 * tiny, math.nextafter(smallest, 0),
                smallest, math.nextafter(smallest, 1), largest]
    # 10**k and its neighbours for every k of the table and one past each
    # end; they hold the carry q -> 10**17 (1e-14 and 1e98 print as 1e-14
    # and 1e+98, though the doubles lie below), left to Python, and the
    # q = 10**16 and 10**17 edges
    powers = [w for v in (float(f"1e{k}") for k in range(_E_MIN - 1, _E_MAX + 2))
              for w in (math.nextafter(v, 0), v, math.nextafter(v, math.inf))]
    rng = np.random.default_rng(34)
    integers = [2.0 ** p for p in range(54)] + [10.0 ** p - 1 for p in range(17)] + \
        rng.integers(0, 2 ** 53 + 1, 2 ** 12).astype(float).tolist()
    edges = specials + powers + half_way_ties() + integers
    return np.array(edges + [-v for v in edges])


def first_mismatches(values, text):
    """Cells of ``text`` (a one-column CSV of ``values``) other than
    ``format(v, ".17g")``, as (value, cell) pairs."""
    cells = text.split("\n")[1:-1]
    assert len(cells) == len(values)
    return [(v, c) for v, c in zip(values.tolist(), cells) if c != format(v, ".17g")][:5]


class TestWriteCsv:
    def test_cells_match_per_value_formatting(self):
        floats = np.array([0.1, -0.0, 1e-310, np.inf, -np.inf, np.nan, 2.0 / 3.0])
        other = np.array([3, -7, 0, 12, 5, 9, 100])
        flags = np.array([True, False, True, True, False, False, True])
        text = cli.write_csv("", {"k": 1}, {"x": floats, "n": other, "ok": flags})
        rows = [f"{format(x, '.17g')},{n},{'true' if ok else 'false'}"
                for x, n, ok in zip(floats.tolist(), other.tolist(), flags.tolist())]
        assert text == "# k=1\nx,n,ok\n" + "\n".join(rows) + "\n"

    def test_row_blocks_match_one_template(self):
        # 40,000 rows span five formatting blocks, the last one partial
        rng = np.random.default_rng(5)
        floats = rng.normal(size=40_000) * 10.0 ** rng.integers(-300, 300, 40_000)
        floats[::997] = -0.0
        names = np.array([f"r{i}" for i in range(40_000)])
        flags = rng.random(40_000) < 0.5
        text = cli.write_csv("", {"k": 1}, {"x": floats, "name": names, "ok": flags},
                             ["end"])
        rows = list(zip(floats.tolist(), names.tolist(),
                        ["true" if f else "false" for f in flags.tolist()]))
        body = "\n".join(["%.17g,%s,%s"] * len(rows)) % tuple(v for r in rows for v in r)
        assert text == "# k=1\nx,name,ok\n" + body + "\n# end\n"
        # all floats: cells the kernel writes and cells Python formats
        # (-0.0, nan, inf and magnitudes past 1e100) cross every block edge
        floats[5::13] = np.nan
        floats[7::17] = np.inf
        table = {"x": floats, "y": -floats[::-1], "z": rng.random(40_000)}
        text = cli.write_csv("", {"k": 1}, table, ["end"])
        rows = list(zip(*(col.tolist() for col in table.values())))
        body = "\n".join(["%.17g,%.17g,%.17g"] * len(rows)) % tuple(v for r in rows for v in r)
        assert text == "# k=1\nx,y,z\n" + body + "\n# end\n"

    def test_float_cells_are_python_formatting(self):
        # every cell, written by the kernel or left to Python, is
        # format(x, ".17g"); numpy's log10 differs between SIMD dispatch
        # classes, so test_dispatch_class reruns this with X86_V4 off
        sweep = bit_sweep()
        values = np.concatenate([sweep, float_edges()])
        text = cli.write_csv(os.devnull, {}, {"x": values})
        want = "x\n" + ("%.17g\n" * len(values)) % tuple(values.tolist())
        assert text == want, first_mismatches(values, text)
        # the kernel writes nearly every cell of its table's range itself;
        # it breaks a tie where its q is exact (E from -6 to 16, so
        # |x| >= 1e-6 for a tie) and leaves the other ties to Python
        cells, out = FloatCells(_BLOCK), np.empty((_BLOCK, CELL_BYTES), np.uint8)
        inside = sweep[(np.abs(sweep) >= 1e-99) & (np.abs(sweep) < 1e100)]
        python = sum(cells.write(inside[lo:lo + _BLOCK], out[:len(inside[lo:lo + _BLOCK])])
                     for lo in range(0, len(inside), _BLOCK))
        assert len(inside) > 900_000 and python <= len(inside) // 10_000
        ties = np.array(half_way_ties())
        exact, inexact = ties[ties >= 1e-6], ties[ties < 1e-6]
        assert len(exact) > 500 and cells.write(exact, out[:len(exact)]) == 0
        assert len(inexact) > 10 and cells.write(inexact, out[:len(inexact)]) == len(inexact)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_a_misjudged_exponent_goes_to_python(self, monkeypatch, shift):
        # log10 is read only as a guess: with the guess shifted one down or
        # one up, the cells are left to Python (but those just below a power
        # of ten, where the shifted guess is right) and print the same bytes
        real = np.log10
        monkeypatch.setattr(_floatcells, "np", types.SimpleNamespace(
            **{**vars(np), "log10": lambda x, out: np.add(real(x, out=out), shift, out=out)}))
        values = np.concatenate([bit_sweep()[:2 ** 13], float_edges()])
        values = values[(np.abs(values) >= 1e-98) & (np.abs(values) < 1e98)]
        out = np.empty((len(values), CELL_BYTES), np.uint8)
        assert FloatCells(len(values)).write(values, out) > 0.95 * len(values)
        text = cli.write_csv(os.devnull, {}, {"x": values})
        assert text == "x\n" + ("%.17g\n" * len(values)) % tuple(values.tolist())

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
    def test_sample_table_stays_off_mmap(self):
        # the float cells' work rows and byte rows are allocated once per
        # call, none over 64 KiB a block, and each piece is written as it
        # is made; the command took ~2,200 minor faults on x86_64 with
        # glibc 2.36 (numpy.random's import included), ~3,800 with the
        # whole text joined and encoded, ~4,700 with one "%" template per
        # block
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(cli.__file__).parent.parent), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", SAMPLE_FAULTS], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 5000

    @pytest.mark.parametrize("args", ["cdf --level 3 --grid 16 --lam 1.3",
                                      "msdiag --curve line --n 2000"],
                             ids=["cdf", "msdiag"])
    def test_pinned_tables_match_in_small_blocks(self, monkeypatch, capsys, args):
        # the pinned tables fit one block; in blocks of 3 rows they span
        # several, the last one partial, and print the same bytes
        assert main(args.split()) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "_BLOCK", 3)
        assert main(args.split()) == 0
        assert capsys.readouterr().out == whole

    def test_table_text_is_held_once(self, tmp_path):
        # each piece goes to the file as it is made, and the returned text
        # is the table's one copy: 5.7 MiB for this 3.8 MiB table, against
        # 13.3 MiB with the pieces joined and then encoded whole
        rng = np.random.default_rng(1)
        table = {name: rng.normal(size=50_000) for name in "abcd"}
        out = tmp_path / "t.csv"
        texts = []
        peak = traced_peak(lambda: texts.append(cli.write_csv(out, {"k": 1}, table)))
        assert out.read_text() == texts[0]
        assert peak <= len(texts[0]) + 2.5 * 2 ** 20

    def test_a_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        real = FloatCells.write

        def fail_in_second_block(path):
            # the sizes of the file as the first and the second block start
            sizes = []

            def write(self, values, cells):
                sizes.append(path.stat().st_size)
                if len(sizes) == 2:
                    raise RuntimeError("second block")
                return real(self, values, cells)

            monkeypatch.setattr(FloatCells, "write", write)
            with pytest.raises(RuntimeError, match="second block"):
                cli.write_csv(path, {"k": 1}, {"x": np.linspace(0.0, 1.0, 3 * _BLOCK)})
            return sizes

        out = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            cli.write_csv(out, {}, {"t": [0.5, 1.0], "J": [0.25]})
        assert not out.exists()
        # the first block was in the file when the second one failed
        assert fail_in_second_block(out)[1] > 0 and not out.exists()
        # a link is not removed, whatever it names
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert fail_in_second_block(link)[1] > 0 and link.is_symlink()

    def test_no_rows_writes_the_header_only(self):
        assert cli.write_csv("", {}, {"t": np.array([])}, ["end"]) == "t\n# end\n"

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            cli.write_csv("", {}, {"t": [0.5, 1.0], "J": [0.25]})


class TestImports:
    def test_numpy_random_loads_at_the_first_draw(self):
        # numpy loads numpy.random lazily; only a command that draws needs it
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", RANDOM_LOADED], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == [
            "import", "False", "dimension", "False", "staircase", "False",
            "cdf", "False", "sample", "True"]


class TestCsvBytes:
    # sha256 prefixes of the stdout CSVs; any change to a printed byte moves them
    @pytest.mark.parametrize("args, digest", [
        ("dimension --level 4", "d9fbf82b772dd2f6"),
        ("staircase --curve line --line-b 2 --p0 0.5 --grid 10", "dcdaaca34d5ec961"),
        ("cdf --level 3 --grid 16 --lam 1.3", "47f8256c98fc4f16"),
        ("sample --level 3 --count 200 --seed 9", "3356c5e0cbf7c9ac"),
        ("correlation --curve line --points 6 --n 500 --fixture brownian-like --seed 3",
         "e018323d1db2ea25"),
        ("msdiag --curve line --n 2000", "8e9069ab2cca0086"),
        ("sde --curve line --a2 4 --grid 8 --n 200", "9fc1d21d2c6188f0"),
        # X1 = 1: the Monte Carlo takes the sine term
        ("sde --curve line --mu 2 --nu 1 --ex1 1 --grid 8 --n 200", "724a9ad21c427640"),
        # alpha = auto on straight curves: the dimension estimate gives 1
        ("staircase --level 0", "0061c3e098a7ab70"),
        ("cdf --level 0 --grid 8", "aed3422aa1751cb6"),
        ("staircase --curve line --line-a 0.5 --line-b 3 --grid 5", "c3f5816c9fcb9c9a"),
    ], ids=lambda v: v.split()[0] if " " in v else None)
    def test_digest(self, capsys, args, digest):
        assert main(args.split()) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == simd_pin(digest)


class TestCurveResolution:
    @pytest.mark.parametrize("command", ["dimension", "staircase", "cdf"])
    def test_auto_alpha_estimates_dimension_once(self, tmp_path, monkeypatch, command):
        koch = build_koch(3)
        path = tmp_path / "koch3.csv"
        path.write_text("t,x,y\n" + "".join(
            f"{t!r},{x!r},{y!r}\n"
            for t, (x, y) in zip(koch.knots.tolist(), koch.vertices.tolist())))
        calls = []
        real = cli.gamma_dimension

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "gamma_dimension", counting)
        code, _ = run(tmp_path, "o.csv", command, "--curve", str(path), "--alpha", "auto")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("level", range(11))
    def test_koch_estimate_is_its_own_order_from_level_3(self, level):
        # the shortcut in _resolve_curve stands for this estimate: every rung
        # of the default ladder lies on Koch's lattice from level 3 on
        curve = build_koch(level)
        value = gamma_dimension(curve).value
        on_lattice = cli._default_levels(4 ** level) <= level
        assert on_lattice == (level >= 3)
        assert value == (1.26171875 if on_lattice else 1.0)
        assert cli._snap_alpha(value) == (curve.alpha if on_lattice else 1.0)
        assert curve.alpha == KOCH_DIMENSION

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 9])
    @pytest.mark.parametrize("args", [
        "staircase", "cdf --grid 16", "sample --count 20",
        "correlation --points 3 --n 100",
        "msdiag --fixture linear-amplitude --n 200", "sde --a2 4 --grid 8 --n 100",
    ])
    def test_auto_koch_estimates_only_below_level_3(self, monkeypatch, capsys, args,
                                                    level):
        calls = []
        real = cli.gamma_dimension

        def counting(curve, *rest, **kwargs):
            calls.append(curve.edge_count)
            return real(curve, *rest, **kwargs)

        monkeypatch.setattr(cli, "gamma_dimension", counting)
        assert main([*args.split(), "--level", str(level)]) == 0
        assert len(calls) == (0 if level >= 3 else 1)
        assert f"alpha={1 if level < 3 else KOCH_DIMENSION!r}\n" in capsys.readouterr().out


def run_koch(monkeypatch, capsys, args, build=None):
    """(stdout, stderr, levels built) of ``main(args)``; ``build`` replaces
    the level that the command builds."""
    built = []

    def spy(level):
        built.append(level)
        return build_koch(level if build is None else build)

    monkeypatch.setattr(cli, "build_koch", spy)
    assert main(args) == 0
    out, err = capsys.readouterr()
    return out, err, built


class TestKochLevelRead:
    """Koch is built at the level the command's output reads; every
    printed byte is the one a build at the configured level gives."""

    @pytest.mark.parametrize("level", range(11))
    @pytest.mark.parametrize("args", [
        "dimension", "staircase", "staircase --grid 65536", "cdf",
        "correlation --points 3 --n 100", "msdiag --fixture linear-amplitude --n 200",
        "sde --a2 4 --grid 8 --n 100",
    ])
    def test_bytes_match_the_configured_level(self, monkeypatch, capsys, args, level):
        argv = [*args.split(), "--level", str(level)]
        out, _, built = run_koch(monkeypatch, capsys, argv)
        full, _, _ = run_koch(monkeypatch, capsys, argv, build=level)
        assert out == full
        # the ladder's lattice is 4^-min(L, 8) and the default table grid's 4^-min(L, 6)
        finest = 8 if args in ("dimension", "staircase --grid 65536") else 6
        assert built == [min(level, finest)]

    @pytest.mark.parametrize("args, built", [
        ("dimension --level 10", 8),
        ("dimension --level 10 --alpha 1.5", 8),
        ("staircase --level 9", 6),
        ("staircase --level 9 --grid 65536", 8),
        ("staircase --level 9 --grid 262144", 9),
        ("staircase --level 9 --alpha 1.2", 6),
        ("staircase --level 5 --alpha 1.2", 5),
        # --grid below 4^L, between two powers of 4, and above 4^L
        ("staircase --level 7 --alpha 1.2 --grid 16", 2),
        ("staircase --level 7 --alpha 1.2 --grid 100", 3),
        ("staircase --level 3 --alpha 1.2 --grid 65536", 3),
        # under auto, Koch's order from the configured level, whatever is built
        ("staircase --level 7 --grid 16", 2),
        ("staircase --level 3 --grid 4", 1),
        # an origin on the grid's lattice, and off it
        ("staircase --level 7 --alpha 1.2 --grid 16 --p0 0.25", 2),
        ("staircase --level 7 --alpha 1.2 --grid 16 --p0 0.3", 7),
        ("staircase --level 9 --grid 65536 --p0 0.25", 8),
        ("staircase --level 9 --grid 65536 --p0 0.3", 9),
        ("cdf --level 10 --alpha 1.2 --grid 64", 6),
        ("cdf --level 9 --grid 64", 6),
        ("sde --level 9 --a2 4 --grid 8 --n 100", 6),
        ("sde --level 9 --alpha 1.2 --a2 4 --grid 8 --n 100", 6),
        ("correlation --level 9 --alpha 1.2 --points 3 --n 100", 6),
        ("msdiag --level 9 --alpha 1.2 --fixture linear-amplitude --n 200", 6),
        # sample reads the curve at any t
        ("sample --level 9 --count 20", 9),
    ])
    def test_builds_the_level_read(self, monkeypatch, capsys, args, built):
        argv = args.split()
        level = int(argv[argv.index("--level") + 1])
        out, err, levels = run_koch(monkeypatch, capsys, argv)
        full, _, _ = run_koch(monkeypatch, capsys, argv, build=level)
        assert levels == [built]
        assert out == full
        note = f"note: koch level {level} reads as level {built} for {argv[0]}\n"
        assert err == (note if built < level else "")

    def test_note_stays_off_stdout_and_the_csv(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "d.csv"
        argv = ["dimension", "--level", "10", "--out", str(out)]
        stdout, err, _ = run_koch(monkeypatch, capsys, argv)
        text = out.read_text()
        # the second run rewrites the CSV from Koch-10 itself
        full_stdout, _, _ = run_koch(monkeypatch, capsys, argv, build=10)
        assert err == "note: koch level 10 reads as level 8 for dimension\n"
        assert stdout == full_stdout and stdout.startswith("dimension=")
        assert text == out.read_text() and "note" not in text

    @pytest.mark.parametrize("command", ["dimension", "staircase", "cdf", "sample"])
    @pytest.mark.parametrize("level, message", [
        ("13", "koch level 13 exceeds the in-memory cap 12"),
        ("-1", "level must be a non-negative integer"),
    ])
    def test_level_is_checked_before_the_rule(self, tmp_path, monkeypatch, capsys,
                                              command, level, message):
        built = []
        monkeypatch.setattr(cli, "build_koch", built.append)
        code, out = run(tmp_path, "k.csv", command, "--level", level)
        assert code == 2
        assert not out.exists() and built == []
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_koch10_dimension_peaks_at_koch8_scale(self, tmp_path):
        # Koch-8's vertices and knots take 1.5 MiB and the whole command about
        # 4 MiB; built at level 9 it peaks at 8.4 MiB, at level 10 near 26 MiB
        args = ["dimension", "--level", "10", "--out", str(tmp_path / "d.csv")]
        assert traced_peak(lambda: main(args)) <= 5 * 2 ** 20


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve = line\nlam = 2.0\ngrid = 16\n")
        code, out = run(tmp_path, "o.csv", "cdf", "--config", str(cfg),
                        "--lam", "3.0")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert float(meta["lam"]) == 3.0
        assert meta["curve"] == "line"

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _ = run(tmp_path, "o.csv", "cdf", "--config", str(cfg))
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["cdf", "--level", "4", "--grid", "32"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_hash_tracks_parameters(self, tmp_path):
        _, out1 = run(tmp_path, "h1.csv", "cdf", "--grid", "16", "--level", "3")
        _, out2 = run(tmp_path, "h2.csv", "cdf", "--grid", "32", "--level", "3")
        m1, _, _ = read_csv(out1)
        m2, _, _ = read_csv(out2)
        assert m1["config_sha256"] != m2["config_sha256"]

    def test_round_trip_floats(self, tmp_path):
        _, out = run(tmp_path, "rt.csv", "staircase", "--level", "5")
        from fractalcalc import build_koch, build_staircase

        table = build_staircase(build_koch(5))
        _, header, rows = read_csv(out)
        s = column(header, rows, "S")
        np.testing.assert_array_equal(s, table.s)

    def test_stdout_when_no_out(self, capsys):
        assert main(["cdf", "--level", "2", "--grid", "4"]) == 0
        captured = capsys.readouterr()
        assert "t,J,F_X" in captured.out


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flags_are_the_config_keys(self, command):
        args = cli.build_parser(command).parse_args([command])
        flags = set(vars(args)) - {"config", "out", "command"}
        assert flags == set(cli._effective_config(args)) - {"command", "config_sha256"}

    @pytest.mark.parametrize("command, digest", [
        ("dimension", "90be0c3479bd9556"),
        ("staircase", "267a59b660159f0b"),
        ("cdf", "3b19ee8e363c0676"),
        ("sample", "e8307b30fa73892c"),
        ("correlation", "423dda26096c85da"),
        ("msdiag", "e664626e40fcd103"),
        ("sde", "7f3e4cc5692a08db"),
    ])
    def test_default_config_hash(self, command, digest):
        args = cli.build_parser(command).parse_args([command])
        assert cli._effective_config(args)["config_sha256"] == digest

    @pytest.mark.parametrize("args, digest", [
        (["cdf", "--level", "2", "--grid", "4"], "21456e0555c878cf"),
        (["sde", "--curve", "line", "--a2", "4", "--grid", "4", "--n", "100"],
         "0f46ace090809089"),
        (["msdiag", "--fixture", "cosine-phase", "--n", "2000"], "68026202d62881f6"),
    ], ids=["cdf", "sde", "msdiag"])
    def test_config_hash_of_a_run(self, tmp_path, args, digest):
        code, out = run(tmp_path, "o.csv", *args)
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["config_sha256"] == digest

    def test_help_lists_each_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["sde", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for fragment in ("--line-b LINE_B line domain end (default 1)",
                         "--order ORDER truncation order N (default 20)",
                         "--ex0sq EX0SQ E[X0^2]; unset: E[X0]^2"):
            assert fragment in text

    def test_only_the_invoked_command_gets_options(self):
        parser = cli.build_parser("sde")
        assert set(vars(parser.parse_args(["cdf"]))) == {"command"}
        assert {"order", "ex0", "config", "out"} <= set(vars(parser.parse_args(["sde"])))
        with pytest.raises(SystemExit):
            parser.parse_args(["cdf", "--grid", "4"])

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for command, (summary, _) in cli._COMMAND_OPTIONS.items():
            assert f"{command} {summary}" in text


def readme_recipes():
    """The ``fractalcalc ...`` lines of README's command-line usage block."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fractalcalc ")]


@pytest.mark.parametrize("recipe", readme_recipes(), ids=lambda r: r[r.index("--out") + 1])
def test_readme_recipe_runs(tmp_path, recipe):
    at = recipe.index("--out") + 1
    out = tmp_path / recipe[at]
    assert main([*recipe[:at], str(out), *recipe[at + 1:]]) == 0
    _, header, rows = read_csv(out)
    assert header and len(rows) >= 1


# numpy 2.4's np.unique and np.union1d import numpy.ma on their first
# call, 9-12 ms and 1.2 MB for every process that builds a staircase; and
# np.polynomial.polynomial.polyval imports numpy.polynomial, about 6 ms
NUMPY_MA_SCRIPT = """
import sys
from fractalcalc import build_koch, build_staircase, falpha_integral
from fractalcalc.cli import main
for args in ["staircase --level 3 --grid 16", "correlation --curve line --n 200",
             "sde --curve line --mu 2 --nu 1 --grid 8 --n 200"]:
    assert main([*args.split(), "--out", sys.argv[1]]) == 0
falpha_integral(lambda p: 1.0, build_staircase(build_koch(3)), 0.1, 0.9)
print("numpy.ma" in sys.modules, "numpy.polynomial" in sys.modules)
"""


def test_numpy_ma_is_not_imported(tmp_path):
    path = [str(pathlib.Path(cli.__file__).parent.parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT, str(tmp_path / "o.csv")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"False False\n"
