"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every output check rejects a planted wrong output, that
self-time arithmetic is right on a synthetic span tree, that every metric
name is well formed and matches BENCHMARK.json, that inputs repeat for a
seed, and that each workload runs end to end at tiny sizes, traced and
untraced. Exits 1 and lists what failed.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

import checks
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def expect(cond, what):
    if not cond:
        FAILURES.append(what)


def csv(meta, header, rows, trailing=()):
    lines = [f"# {k}={v}" for k, v in meta.items()] + [",".join(header)]
    lines += [",".join(repr(float(v)) if not isinstance(v, str) else v for v in row)
              for row in rows]
    lines += [f"# {c}" for c in trailing]
    return "\n".join(lines) + "\n"


def cli_case(cmd, good, bad, check=None, polyline=None):
    op = {"cmd": cmd, "check": check or {}}
    ok = checks.check_cli(op, 0, good, polyline=polyline)[0]
    rejected = not checks.check_cli(op, 0, bad, polyline=polyline)[0]
    expect(ok, f"{cmd}: valid output rejected")
    expect(rejected, f"{cmd}: planted wrong output accepted")


def test_cli_checks():
    kd, g = checks.KOCH_DIMENSION, math.gamma(checks.KOCH_DIMENSION + 1.0)
    dim = lambda v: csv({"alpha": "auto"}, ["alpha", "delta", "mass"],
                        [(1.0, 0.25, 1.0)], [f"dimension={v!r}"])
    cli_case("dimension", dim(kd), dim(1.5), {"koch": True})

    t = np.linspace(0.0, 1.0, 5)
    s = t / g
    bad = s.copy()
    bad[2] += 1e-3
    stair = lambda s: csv({"alpha": repr(kd)}, ["t", "S"], zip(t, s))
    cli_case("staircase", stair(s), stair(bad), {"koch": True})

    knots, verts = np.array([0.0, 0.5, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    s1 = np.concatenate([[0.0], np.cumsum(np.full(4, 0.5))])
    poly = lambda s: csv({"alpha": "1"}, ["t", "S"], zip(t, s))
    cli_case("staircase", poly(s1), poly(1.01 * s1), polyline=(knots, verts))

    lam = 1.5
    f = 1.0 - np.exp(-lam * s)
    fbad = f.copy()
    fbad[3] += 1e-9
    cdf = lambda f: csv({"alpha": repr(kd), "lam": lam}, ["t", "J", "F_X"], zip(t, s, f))
    cli_case("cdf", cdf(f), cdf(fbad), {"koch": True})

    rng = np.random.default_rng(0)
    n, jmax = 4000, 0.9
    cap = 1.0 - math.exp(-jmax)
    j = -np.log1p(-rng.random(n) * cap)
    smp = lambda j: csv({"lam": 1.0, "truncated_mass": repr(1.0 - cap), "count": n},
                        ["t", "J", "x", "y"],
                        ((jv / jmax, jv, 0.0, 0.0) for jv in j))
    cli_case("sample", smp(j), smp(rng.random(n) * jmax))

    jv = np.linspace(0.0, 1.0, 5)
    pairs = [(a, b) for a in jv for b in jv]
    se = [0.0 if min(a, b) == 0.0 else 0.01 for a, b in pairs]
    r = [min(a, b) + 0.5 * e for (a, b), e in zip(pairs, se)]
    rbad = list(r)
    rbad[7] += 0.5
    corr = lambda r: csv({}, ["J1", "J2", "R", "stderr"],
                         ((a, b, x, e) for (a, b), x, e in zip(pairs, r, se)))
    cli_case("correlation", corr(r), corr(rbad))

    rows = [(name, "true" if c else "false", "true" if d else "false", "nan")
            for name, (c, d) in sorted(checks.MSDIAG_VERDICTS.items())]
    wrong = [row if row[0] != "white-noise" else (row[0], "true", "false", "nan")
             for row in rows]
    head = ["fixture", "continuous", "differentiable", "second_derivative"]
    cli_case("msdiag", csv({}, head, rows), csv({}, head, wrong))

    jj = np.linspace(0.0, 1.0, 9)
    mean, sd = np.cos(jj), np.full(9, 0.01)
    sde = lambda mc: csv({}, ["t", "J", "mean", "second_moment", "variance", "mc_mean",
                              "mc_stderr"], zip(jj, jj, mean, mean, mean, mc, sd))
    cli_case("sde", sde(mean + 0.5 * sd), sde(mean + 10.0 * sd))

    degenerate = {"cmd": "staircase", "check": {"degenerate": True}}
    expect(checks.check_cli(degenerate, 2, "")[0], "degenerate: exit 2 rejected")
    expect(checks.check_cli(degenerate, 0, stair(s))[2] == "degenerate-grid-exit-0",
           "degenerate: exit 0 not attributed")
    overflow = checks.check_cli({"cmd": "sde", "check": {"order": 55}}, None, "",
                                "OverflowError")
    expect(not overflow[0] and overflow[2] == "sde-order-overflow",
           "sde: overflow at order 55 not attributed")
    other = checks.check_cli({"cmd": "sde", "check": {"order": 20}}, None, "",
                             "OverflowError")
    expect(not other[0] and other[2] is None, "sde: overflow at order 20 attributed")
    expect(not checks.check_cli({"cmd": "cdf", "check": {}}, 3, "")[0],
           "exit code 3 accepted")


def test_library_checks():
    cases = [
        ("table", checks.check_table(0.1, 1.0), checks.check_table(-0.1, 1.0)),
        ("moment", checks.check_moment([1.0, 2.0], [1.05, 2.0], [0.1, 0.1]),
         checks.check_moment([1.8, 2.0], [1.0, 2.0], [0.1, 0.1])),
        ("ks", checks.check_ks(1e-3, 10 ** 6), checks.check_ks(1e-2, 10 ** 6)),
        ("close", checks.check_close(0.5, 0.5 + 1e-13, 0.0, 1e-12, "cdf"),
         checks.check_close(0.5, 0.5 + 1e-9, 0.0, 1e-12, "cdf")),
        ("ms_integral", checks.check_ms_integral(0.01, 0.01, True),
         checks.check_ms_integral(0.1, 0.01, True)),
        ("ms_integral precheck", checks.check_ms_integral(0.0, 0.01, True),
         checks.check_ms_integral(0.0, 0.01, False)),
        ("verdict", checks.check_verdict(True, True), checks.check_verdict(False, True)),
    ]
    jj = np.linspace(0.1, 2.0, 7)
    ref = checks.beta_cos_mean(1.0, 1, 1, jj)
    exact = 2.0 * (np.cos(jj) + jj * np.sin(jj) - 1.0) / jj ** 2
    expect(np.abs(ref - exact).max() < 1e-12, "beta_cos_mean off the closed form")
    cases.append(("series", checks.check_series(exact, ref),
                  checks.check_series(exact + 1e-6, ref)))
    for name, good, bad in cases:
        expect(good[0], f"{name}: valid output rejected")
        expect(not bad[0], f"{name}: planted wrong output accepted")
    expect(checks.z_threshold(1) >= 4.0 and checks.KS_BAND >= 2.23,
           "bands looser than 4 SE and 2.23/sqrt(n)")
    expect(checks.z_threshold(129) > 4.9, "z band not widened for a grid")


def test_self_time():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 3],
        ["e", 12.0, 13.0, None],
    ]
    self_s, incl_s, top = tracing.span_times(spans)
    want_self = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 3.0, "e": 1.0}
    want_incl = {"a": 10.0, "b": 3.0, "c": 2.0, "d": 4.0, "e": 1.0}
    for name in want_self:
        expect(abs(self_s[name] - want_self[name]) < 1e-12, f"self time of {name}")
        expect(abs(incl_s[name] - want_incl[name]) < 1e-12, f"inclusive time of {name}")
    expect(abs(top - 11.0) < 1e-12, "top-level coverage")
    expect(abs(tracing._covered([(0, 2), (1, 3), (5, 6), (-1, 0.5)], 0, 5.5) - 3.5) < 1e-12,
           "union of overlapping intervals")
    layers = tracing.pass_layer_metrics(
        [["cli.dimension", 0.0, 0.5, None], ["staircase.coarse_mass", 0.1, 0.3, 0]],
        {"calculus.integrand_calls": 4, "calculus.integrand_blocks": 1}, 1.0)
    expect(abs(layers["cli.dimension.ms"] - 500.0) < 1e-9, "cli spans are inclusive")
    expect(abs(layers["staircase.coarse_mass.ms"] - 200.0) < 1e-9, "self time in ms")
    expect(abs(layers["trace.unattributed_share"] - 0.5) < 1e-12, "unattributed share")
    expect(layers["calculus.vectorized_ratio"] == 0.25, "vectorized ratio")


def test_metric_names():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        expect(NAME.match(name), f"bad metric or workload name {name!r}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(UNIT.match(m["unit"]), f"bad unit {m['unit']!r}")
    expect(len(set(names)) == len(names), "duplicate names in BENCHMARK.json")
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.LAYER_METRICS,
           "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WHY),
           "BENCHMARK.json workloads differ from workloads.WHY")


def test_inputs_repeat():
    with tempfile.TemporaryDirectory(dir=run.STATE) as d1, \
            tempfile.TemporaryDirectory(dir=run.STATE) as d2:
        for name in workloads.WHY:
            a = workloads.plan_pass(name, 5, 3, d1, smoke=True)
            b = workloads.plan_pass(name, 5, 3, d2, smoke=True)
            expect(json.dumps(a).replace(d1, "") == json.dumps(b).replace(d2, ""),
                   f"{name}: inputs differ for one seed")
        for f in os.listdir(d1):
            with open(os.path.join(d1, f)) as x, open(os.path.join(d2, f)) as y:
                expect(x.read() == y.read(), f"input file {f} differs for one seed")
    for seed in range(5):
        orders = [workloads.plan_pass("stochastic", seed, i, run.STATE, smoke=True)[2]
                  ["check"]["order"] for i in range(8)]
        for b in range(2):
            expect(sum(o >= 49 for o in orders[4 * b: 4 * b + 4]) == 1,
                   f"sde orders {orders} not stratified")


def test_smoke_runs():
    layers_expected = {
        "geometry": ["cli.dimension.ms", "staircase.gamma_dimension.calls",
                     "staircase.coarse_mass.calls", "cli.write_csv.rows"],
        "probability": ["distributions.moment.ms", "calculus.integrand_calls",
                        "staircase.projection_pairs", "distributions.draws"],
        "stochastic": ["processes.grid_pairs", "oscillator.mc_path_values",
                       "rng.stream.calls", "cli.sde.ms"],
    }
    for name in workloads.WHY:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{name} trace={trace}: no result line\n{proc.stderr[-500:]}")
                continue
            expect(proc.returncode == 0 and result["correct"],
                   f"{name} trace={trace}: exit {proc.returncode}, result {result}")
            want = tracing.LAYER_METRICS if trace else run.END_TO_END
            expect(sorted(result["metrics"]) == sorted(n for n, _ in want),
                   f"{name} trace={trace}: metric set")
            if trace:
                for metric in layers_expected[name]:
                    expect(result["metrics"][metric]["value"] > 0,
                           f"{name}: {metric} not recorded (a binding left unwrapped?)")


def main():
    os.makedirs(run.STATE, exist_ok=True)
    for test in (test_cli_checks, test_library_checks, test_self_time, test_metric_names,
                 test_inputs_repeat, test_smoke_runs):
        before = len(FAILURES)
        test()
        print(f"{test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for failure in FAILURES:
        print(f"  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
