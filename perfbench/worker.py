"""Benchmark worker: runs one pass of ops in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The module first imports fractalcalc and fractalcalc.cli and stamps the
time, so run.py can time set-up from launch to the moment they
return; the harness modules are imported after the stamp. A host-speed
probe runs just before the first op and just after the last. Ops run one
at a time, each after the previous returned. CLI ops go through
``fractalcalc.cli.main``; library ops are direct calls. Peak resident
memory is read after the last op; the output checks run after that, with
tracing paused, so neither their time nor their memory is charged to the
pass.
"""

import math
import sys
import time

import numpy as np

import fractalcalc as fc
import fractalcalc.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402  (harness imports stay out of the set-up time)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import koch_point, koch_vertices  # noqa: E402


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Host-speed probe runs before the first op and after the last one.
PROBE_REPS = 2


def probe():
    """Seconds of a fixed mix of interpreter and numpy work that calls no
    package code. On a shared host every op and the probe slow down
    together, so run.py rescales the pass by the probe's time."""
    t0 = now()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    x = np.linspace(1.0, 2.0, 100000)
    for _ in range(50):
        x = np.sqrt(x * 1.5 + 0.25)
    np.sort(x[::-1] * np.cos(x))
    return now() - t0


def op_kind(op_id):
    head, _, tail = op_id.rpartition("-")
    return head if tail.isdigit() else op_id


def scalar_integrand(p):
    """Integrand that accepts one point only (math.sin rejects arrays)."""
    return math.sin(3.0 * p[0]) + p[1] * p[1]


def cosine_weight(j, u):
    return np.cos(j - u)


def decaying_weight(j, u):
    return np.exp(-j) * np.cos(j - u)


def estimated_cosine_phase():
    """Cosine-phase paths without the analytic correlation, so every
    correlation the library needs is estimated by Monte Carlo."""
    return fc.FractalProcess("cosine-phase-estimated", fc.cosine_phase().draw_paths, None)


def koch_derivative_reference(op):
    """Difference quotient of ``scalar_integrand`` on the unit Koch curve
    of the op's table, where S(t) = t * mass exactly."""
    mass = checks.koch_mass()
    kv = koch_vertices(op["level"])
    h = op["h_fraction"] * mass
    j0 = op["t"] * mass
    j_hi, j_lo = min(j0 + h, mass), max(j0 - h, 0.0)
    f_hi = scalar_integrand(koch_point(kv, j_hi / mass))
    f_lo = scalar_integrand(koch_point(kv, j_lo / mass))
    return (f_hi - f_lo) / (j_hi - j_lo)


class Pass:
    """Tables and laws of one pass, the library ops on them, and the
    checks of their observations."""

    def __init__(self):
        self.tables, self.laws = {}, {}
        self._refs = {}

    # -- library ops; each returns the observation its check needs ---------

    def build(self, op):
        curve = op["curve"]
        if "koch" in curve:
            c = fc.build_koch(curve["koch"])
        else:
            c = fc.build_polyline(curve["knots"], curve["vertices"], 1.0)
        table = fc.build_staircase(c)
        lam = op["lam_per_mass"] / table.total_mass
        self.tables[op["table"]] = table
        self.laws[op["table"]] = {
            "uniform": fc.DistributionOnCurve.uniform(table),
            "memoryless": fc.DistributionOnCurve.memoryless(table, lam),
        }
        return float(np.diff(table.s).min()), table.total_mass

    def moment(self, op):
        law = self.laws[op["table"]][op["law"]]
        if op["what"] == "moment_of_j":
            return [float(law.moment_of_j(op["m"]))]
        return [float(v) for v in getattr(law, op["what"])()]

    def sample(self, op):
        law = self.laws[op["table"]][op["law"]]
        return law.sample(op["seed"], op["count"]).j

    def cdf(self, op):
        return self.laws[op["table"]][op["law"]].cdf(np.array(op["theta"]))

    def derivative(self, op):
        table = self.tables[op["table"]]
        return fc.falpha_derivative(scalar_integrand, table, np.array(op["theta"]),
                                    h=op["h_fraction"] * table.total_mass)

    def ms_integral(self, op):
        table = fc.build_staircase(fc.build_line(0.0, op["b"]))
        res = fc.ms_integral(estimated_cosine_phase(), cosine_weight, table, 0.0,
                             op["b"], op["u"], n=op["n"], seed=op["seed"])
        return res.y, res.stderr, bool(res.precheck.exists)

    def improper_ms_integral(self, op):
        ladder = op["ladder"]
        table = fc.build_staircase(fc.build_line(0.0, ladder[-1]))
        res = fc.improper_ms_integral(estimated_cosine_phase(), decaying_weight, table,
                                      0.0, ladder, n=op["n"], seed=op["seed"])
        return res.y, res.stderrs[-1]

    def ms_derivative_check(self, op):
        res = fc.ms_derivative_check(estimated_cosine_phase(), op["tau"],
                                     n=op["n"], seed=op["seed"])
        return bool(res.differentiable), bool(res.continuity.continuous)

    def solve_series(self, op):
        spec = fc.MomentSpec(op["ex0"], 0.0, op["ex0"] ** 2, 0.0, 0.0,
                             fc.BetaSquaredAmplitude(op["mu"], op["nu"]))
        sol = fc.solve_series(spec, op["order"])
        return sol.mean(np.linspace(0.0, op["j_max"], 33))

    # -- checks, run after the pass ------------------------------------------

    def reference(self, table, law, seed, count):
        """Same-seed sample statistics, cached per (table, law)."""
        key = (table, law, seed, count)
        if key not in self._refs:
            dist = self.laws[table][law]
            smp = dist.sample(seed, count)
            scale = 1.0 - dist.truncated_mass
            n = len(smp.t)
            x = smp.points
            var = x.var(axis=0, ddof=1)
            m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
            self._refs[key] = {
                "mean": (scale * x.mean(axis=0), scale * x.std(axis=0, ddof=1) / np.sqrt(n)),
                "variance": (var, np.sqrt(np.maximum(m4 - var ** 2, 0.0) / n)),
                "j": smp.j, "scale": scale, "n": n,
            }
        return self._refs[key]

    def check(self, op, obs):
        call = op["call"]
        if call == "build":
            return checks.check_table(*obs)
        if call == "moment":
            ref = self.reference(op["table"], op["law"], op["ref_seed"], op["ref_count"])
            if op["what"] == "moment_of_j":
                jm = ref["j"] ** op["m"]
                target = (ref["scale"] * jm.mean(),
                          ref["scale"] * jm.std(ddof=1) / np.sqrt(ref["n"]))
            else:
                target = ref[op["what"]]
            # tables whose edges the default quadrature panels straddle
            defect = "kink-tags" if op["table"] in ("walk", "koch-small") else None
            return checks.check_moment(obs, *target, defect=defect)
        if call == "sample":
            j = np.sort(obs)
            cdf = fc.sampling_cdf(self.laws[op["table"]][op["law"]])
            return checks.check_ks(checks.ks_sorted(j, cdf(j)), len(j))
        if call == "cdf":
            lam = self.laws[op["table"]][op["law"]].lam
            expected = 1.0 - np.exp(-lam * op["t"] * checks.koch_mass())
            return checks.check_close(obs, expected, 0.0, 1e-12, "cdf")
        if call == "derivative":
            return checks.check_close(obs, koch_derivative_reference(op), 1e-6, 1e-9,
                                      "derivative")
        if call in ("ms_integral", "improper_ms_integral"):
            return checks.check_ms_integral(*obs)
        if call == "ms_derivative_check":
            return checks.check_verdict(*obs)
        if call == "solve_series":
            jgrid = np.linspace(0.0, op["j_max"], 33)
            ref = checks.beta_cos_mean(op["ex0"], op["mu"], op["nu"], jgrid)
            return checks.check_series(obs, ref)
        raise KeyError(call)


def check_cli_op(op, rec, exit_code):
    text = checks.csv_text(op["out"]) if os.path.exists(op["out"]) else ""
    status = f"exit={exit_code}" if rec["error"] is None else f"raised={rec['error']}"
    rec["digest"] = hashlib.sha256((status + "\n" + text).encode()).hexdigest()
    poly = op["check"].get("polyline")
    return checks.check_cli(op, exit_code if rec["error"] is None else None, text,
                            rec["error"], checks.read_polyline(poly) if poly else None)


def run(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(now)
        tracing.install(tracer)
    state = Pass()
    done = []
    probe_s = [probe() for _ in range(PROBE_REPS)]
    for op in spec["ops"]:
        rec = {"id": op["id"], "kind": op_kind(op["id"]), "error": None}
        t0 = now()
        try:
            if op["kind"] == "cli":
                obs = cli.main(op["argv"])
            else:
                obs = getattr(state, op["call"])(op)
        except SystemExit as exc:  # argparse rejected the arguments
            obs = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op's failure is recorded; the pass goes on
            obs = None
            rec["error"] = type(exc).__name__
            rec["traceback"] = traceback.format_exc(limit=3)
        rec["s"] = now() - t0
        done.append((op, rec, obs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.paused = True
    probe_s += [probe() for _ in range(PROBE_REPS)]

    for op, rec, obs in done:
        if op["kind"] == "cli":
            ok, detail, defect = check_cli_op(op, rec, obs)
        elif rec["error"] is not None:
            ok, detail, defect = False, f"raised {rec['error']}", None
        else:
            try:
                ok, detail, defect = state.check(op, obs)
            except Exception as exc:  # a check that cannot run fails its op
                ok, detail, defect = False, f"check raised {type(exc).__name__}: {exc}", None
        rec.update(ok=bool(ok), detail=detail, defect=defect)

    result = {"ready": READY, "peak_rss_mb": peak_rss_mb, "probe_s": probe_s,
              "ops": [rec for _, rec, _ in done]}
    if tracer:
        pass_s = sum(rec["s"] for _, rec, _ in done)
        result["layers"] = tracing.pass_layer_metrics(tracer.spans, tracer.counts, pass_s)
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2])
