"""Layer spans and counters recorded from outside the package.

``install`` wraps the public functions and methods listed in ``TARGETS``
and rebinds every module-level name and dict entry of the ``fractalcalc``
modules that refers to the original, because modules import names
directly (``cli.gamma_dimension``, ``cli._COMMANDS``, ...). Spans keep
name, start, end and parent in memory; the worker ships them back when
its pass ends. Counters come from call arguments and return values.
"""

import functools
import sys
from collections import defaultdict

import numpy as np

CLI_COMMANDS = ("dimension", "staircase", "cdf", "sample", "correlation",
                "msdiag", "sde")

#: Per-layer metrics of a traced pass: (name, unit). A name ending in
#: ``.ms`` is self time, except ``cli.<command>.ms``, which is inclusive.
LAYER_METRICS = [
    ("curves.build_koch.ms", "ms"),
    ("curves.load_polyline_csv.ms", "ms"),
    ("curves.point.ms", "ms"),
    ("curves.point.params", "count"),
    ("staircase.gamma_dimension.calls", "count"),
    ("staircase.bisection_steps", "count"),
    ("staircase.coarse_mass.ms", "ms"),
    ("staircase.coarse_mass.calls", "count"),
    ("staircase.build_staircase.ms", "ms"),
    ("staircase.table_cells", "count"),
    ("staircase.value.ms", "ms"),
    ("staircase.t_from_mass.ms", "ms"),
    ("staircase.j_of_many.ms", "ms"),
    ("staircase.projection_pairs", "count"),
    ("staircase.plateau_hits", "count"),
    ("calculus.falpha_integral.ms", "ms"),
    ("calculus.falpha_derivative.ms", "ms"),
    ("calculus.integrand_calls", "count"),
    ("calculus.vectorized_ratio", "ratio"),
    ("distributions.moment.ms", "ms"),
    ("distributions.sample.ms", "ms"),
    ("distributions.draws", "count"),
    ("distributions.cdf_pdf.ms", "ms"),
    ("processes.estimate_correlation_grid.ms", "ms"),
    ("processes.grid_pairs", "count"),
    ("processes.ms_derivative_check.ms", "ms"),
    ("processes.ms_integral.ms", "ms"),
    ("processes.ms_integral_precheck.ms", "ms"),
    ("oscillator.solve_series.ms", "ms"),
    ("oscillator.mc_solution_moments.ms", "ms"),
    ("oscillator.mc_path_values", "count"),
    ("rng.stream.calls", "count"),
    ("rng.stream.ms", "ms"),
    *[(f"cli.{c}.ms", "ms") for c in CLI_COMMANDS],
    ("cli.write_csv.ms", "ms"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
]

_INCLUSIVE = {f"cli.{c}" for c in CLI_COMMANDS}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent]."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.paused = False
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()


# -- counters, from arguments and return values ------------------------------


def _count_point(counts, args, kwargs, result, state):
    counts["curves.point.params"] += np.size(args[1] if len(args) > 1 else kwargs["t"])


def _count_dimension(counts, args, kwargs, result, state):
    counts["staircase.gamma_dimension.calls"] += 1
    counts["staircase.bisection_steps"] += len(result.trace)


def _count_coarse(counts, args, kwargs, result, state):
    counts["staircase.coarse_mass.calls"] += 1


def _count_table(counts, args, kwargs, result, state):
    counts["staircase.table_cells"] += len(result.t) - 1


def _plateau_before(args, kwargs):
    return args[0].plateau_hits


def _count_plateau(counts, args, kwargs, result, state):
    counts["staircase.plateau_hits"] += args[0].plateau_hits - state


def _count_projection_one(counts, args, kwargs, result, state):
    counts["staircase.projection_pairs"] += args[0].curve.edge_count


def _count_projection_many(counts, args, kwargs, result, state):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    counts["staircase.projection_pairs"] += len(thetas) * args[0].curve.edge_count


def _count_draws(counts, args, kwargs, result, state):
    counts["distributions.draws"] += len(result.t)


def _count_grid(counts, args, kwargs, result, state):
    counts["processes.grid_pairs"] += len(result.j_values) ** 2


def _count_paths(counts, args, kwargs, result, state):
    counts["oscillator.mc_path_values"] += result.n * len(result.mean)


def _count_stream(counts, args, kwargs, result, state):
    counts["rng.stream.calls"] += 1


def _count_csv(counts, args, kwargs, result, state):
    rows = sum(1 for line in result.splitlines() if not line.startswith("#"))
    counts["cli.write_csv.rows"] += max(rows - 1, 0)
    counts["cli.write_csv.bytes"] += len(result.encode())


#: (module, attribute path, span name, counter, pre-call state)
TARGETS = [
    ("curves", "build_koch", "curves.build_koch", None, None),
    ("curves", "load_polyline_csv", "curves.load_polyline_csv", None, None),
    ("curves", "FractalCurve.point", "curves.point", _count_point, None),
    ("staircase", "gamma_dimension", "staircase.gamma_dimension", _count_dimension, None),
    ("staircase", "coarse_mass", "staircase.coarse_mass", _count_coarse, None),
    ("staircase", "build_staircase", "staircase.build_staircase", _count_table, None),
    ("staircase", "StaircaseTable.value", "staircase.value", None, None),
    ("staircase", "StaircaseTable.t_from_mass", "staircase.t_from_mass",
     _count_plateau, _plateau_before),
    ("staircase", "StaircaseTable.j_of_theta", "staircase.j_of_many",
     _count_projection_one, None),
    ("staircase", "StaircaseTable.j_of_many", "staircase.j_of_many",
     _count_projection_many, None),
    ("calculus", "falpha_integral", "calculus.falpha_integral", None, None),
    ("calculus", "falpha_derivative", "calculus.falpha_derivative", None, None),
    *[("distributions", f"DistributionOnCurve.{m}", "distributions.moment", None, None)
      for m in ("moment", "mean", "variance", "moment_of_j")],
    ("distributions", "DistributionOnCurve.sample", "distributions.sample", _count_draws, None),
    ("distributions", "DistributionOnCurve.cdf", "distributions.cdf_pdf", None, None),
    ("distributions", "DistributionOnCurve.pdf", "distributions.cdf_pdf", None, None),
    ("processes", "estimate_correlation_grid", "processes.estimate_correlation_grid",
     _count_grid, None),
    ("processes", "ms_derivative_check", "processes.ms_derivative_check", None, None),
    ("processes", "ms_integral", "processes.ms_integral", None, None),
    ("processes", "improper_ms_integral", "processes.ms_integral", None, None),
    ("processes", "ms_integral_precheck", "processes.ms_integral_precheck", None, None),
    ("oscillator", "solve_series", "oscillator.solve_series", None, None),
    ("oscillator", "mc_solution_moments", "oscillator.mc_solution_moments", _count_paths, None),
    ("rng", "stream", "rng.stream", _count_stream, None),
    *[("cli", f"cmd_{c}", f"cli.{c}", None, None) for c in CLI_COMMANDS],
    ("cli", "write_csv", "cli.write_csv", _count_csv, None),
]

_INTEGRAND_TAKERS = {"calculus.falpha_integral", "calculus.falpha_derivative"}


def _counting_integrand(tracer, f):
    """Wrap an integrand to count calls and the calls given a block."""

    def integrand(points):
        if not tracer.paused:
            tracer.counts["calculus.integrand_calls"] += 1
            if np.ndim(points) == 2 and len(points) > 1:
                tracer.counts["calculus.integrand_blocks"] += 1
        return f(points)

    return integrand


def _wrap(tracer, fn, name, count, pre):
    takes_integrand = name in _INTEGRAND_TAKERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        if takes_integrand:
            args = (_counting_integrand(tracer, args[0]), *args[1:])
        state = pre(args, kwargs) if pre else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if count:
            count(tracer.counts, args, kwargs, result, state)
        return result

    return wrapper


def install(tracer, package="fractalcalc"):
    """Wrap every target and rebind each reference to it in the loaded
    package modules; returns the number of bindings replaced."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    replaced = 0
    for mod_name, path, name, count, pre in TARGETS:
        owner = sys.modules[f"{package}.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, count, pre)
        if outer:  # a method: the class holds the only binding
            setattr(owner, attr, wrapper)
            replaced += 1
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            replaced += 1
    return replaced


# -- span arithmetic -------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_times(spans):
    """Per span name: (self seconds, inclusive seconds), and the seconds
    covered by top-level spans. Self time is a span's duration minus the
    part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s, incl_s = defaultdict(float), defaultdict(float)
    top = []
    for i, (name, start, end, parent) in enumerate(spans):
        incl_s[name] += end - start
        self_s[name] += (end - start) - _covered(children.get(i, ()), start, end)
        if parent is None:
            top.append((start, end))
    return self_s, incl_s, _covered(top, float("-inf"), float("inf"))


def pass_layer_metrics(spans, counts, pass_s):
    """Per-layer metrics of one traced pass, all but ``trace.overhead_s``,
    which run.py derives from the untraced twin of the pass."""
    self_s, incl_s, top = span_times(spans)
    out = {}
    for name, _unit in LAYER_METRICS:
        if name.endswith(".ms"):
            span = name[:-3]
            out[name] = 1000.0 * (incl_s if span in _INCLUSIVE else self_s).get(span, 0.0)
        else:
            out[name] = float(counts.get(name, 0.0))
    calls = counts.get("calculus.integrand_calls", 0.0)
    out["calculus.vectorized_ratio"] = (
        counts.get("calculus.integrand_blocks", 0.0) / calls if calls else 0.0)
    out["trace.unattributed_share"] = max(pass_s - top, 0.0) / pass_s if pass_s > 0 else 0.0
    del out["trace.overhead_s"]
    return out
