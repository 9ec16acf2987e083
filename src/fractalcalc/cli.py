"""Command-line front end: reproducible CSV emission for the library.

Every command resolves a flat key=value configuration (file keys
overridden by flags), stamps the output with a metadata header carrying
the command, the sha256 of the effective configuration, the seed and the
curve, and writes comma-separated rows with LF endings and 17-significant
-digit floats. Identical configurations produce byte-identical files.

Exit codes: 0 success, 2 user/config error, 3 numerical-estimation
failure.
"""

import argparse
import hashlib
import itertools
import math
import sys

import numpy as np

from . import __version__
from .curves import (
    KOCH_DIMENSION,
    _BLOCK,
    _check_koch_level,
    build_koch,
    build_line,
    load_polyline_csv,
)
from .distributions import DistributionOnCurve
from .errors import (
    CurveDomainError,
    FractalCalcError,
    GeometryError,
    ResourceError,
)
from .oscillator import (
    BetaSquaredAmplitude,
    FixedSquaredAmplitude,
    MomentSpec,
    deterministic_initial_data,
    mc_solution_moments,
    solve_series,
)
from .processes import (
    BUILTIN_FIXTURES,
    DEFAULT_EPS_LADDER,
    estimate_correlation_grid,
    ms_derivative_check,
)
from .staircase import (
    _default_levels,
    _snapped_level,
    build_staircase,
    gamma_dimension,
)

_USAGE_ERRORS = (CurveDomainError, ResourceError, GeometryError, ValueError,
                 KeyError, OSError)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={_fmt(cfg[k])}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CurveDomainError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _koch_level_read(cfg, level):
    """The finest Koch level, at most ``level``, whose vertices the
    command's output reads. ``sample`` reads the curve at any t. The others
    read it only on the mass ladder's lattice (``dimension``, and the others
    under ``alpha = auto``) and on the staircase's snapped 4^g grid, plus
    the staircase origin ``p0``. ``_koch_step`` keeps every vertex of a
    level in the next, so a coarser build gives those points bit for bit."""
    command = cfg["command"]
    if command == "sample":
        return level
    read = 0
    if command == "dimension" or cfg["alpha"] == "auto":
        read = _default_levels(4 ** level)
    if command != "dimension":
        # only staircase sets its table's grid and origin; the grid of the
        # other commands is their output grid, read off the table
        own = command == "staircase"
        g = _snapped_level(level, int(cfg["grid"]) if own and cfg["grid"] else None)
        if own and cfg["p0"] and not (float(cfg["p0"]) * 4 ** g).is_integer():
            return level  # an origin off the grid's lattice
        read = max(read, g)
    return min(read, level)


def _load_curve(cfg):
    """The configured curve. Under ``alpha = auto`` a polyline is loaded
    with order 1; commands pass the order ``_resolve_curve`` resolves.
    Koch is built at the level the output reads (``_koch_level_read``),
    and a note on stderr says so when that is below the configured one."""
    kind = cfg["curve"]
    if kind == "koch":
        level = int(cfg["level"])
        _check_koch_level(level)
        read = _koch_level_read(cfg, level)
        if read < level:
            print(f"note: koch level {level} reads as level {read} for "
                  f"{cfg['command']}", file=sys.stderr)
        return build_koch(read)
    if kind == "line":
        return build_line(float(cfg["line_a"]), float(cfg["line_b"]))
    if str(kind).endswith(".csv"):
        alpha = cfg["alpha"]
        return load_polyline_csv(kind, 1.0 if alpha == "auto" else float(alpha))
    raise CurveDomainError(f"unknown curve kind {kind!r} (koch, line, or *.csv)")


def _snap_alpha(estimate: float) -> float:
    for known in (1.0, KOCH_DIMENSION):
        if abs(estimate - known) <= 0.02:
            return known
    return estimate


def _resolve_curve(cfg):
    """The configured curve and its order alpha. ``auto`` runs the
    dimension estimate once; it gives 1 on straight curves."""
    curve = _load_curve(cfg)
    raw = cfg["alpha"]
    if raw != "auto":
        alpha = float(raw)
        if alpha <= 0.0:
            raise CurveDomainError("alpha must be positive")
        return curve, alpha
    return curve, _snap_alpha(gamma_dimension(curve).value)


def write_csv(out_path, meta: dict, columns: dict, trailing_comments=()):
    """Write ``meta`` as comment lines, then ``columns`` (header name: 1-D
    values, all of one length) as rows, formatted ``_BLOCK`` rows at a time
    so that only one block's cells are Python objects; returns the text."""
    cols = [np.asarray(col) for col in columns.values()]
    n = len(cols[0]) if cols else 0
    if any(len(col) != n for col in cols):
        raise ValueError("CSV columns must all have one length")
    floats = [col.dtype.kind == "f" for col in cols]
    # each block is one % template: "%.17g" per float cell, "%s" over
    # _fmt for the rest, formatted in one call
    row_spec = ",".join("%.17g" if f else "%s" for f in floats)
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for lo in range(0, n, _BLOCK):
        cells = [col[lo:lo + _BLOCK].tolist() for col in cols]
        cells = [c if f else [_fmt(v) for v in c] for c, f in zip(cells, floats)]
        template = "\n".join([row_spec] * len(cells[0]))
        lines.append(template % tuple(itertools.chain.from_iterable(zip(*cells))))
    lines.extend(f"# {c}" for c in trailing_comments)
    lines.append("")  # the final newline, without a copy of the text
    text = "\n".join(lines)
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# -- options -----------------------------------------------------------------
# Each option is declared once, as key: (flag type, default, help). The key
# is the config-file key and, with "-" for "_", the flag; the default is the
# string a config file would give, and an empty one means unset.

_SHARED_OPTIONS = {
    "curve": (str, "koch", "koch | line | <polyline.csv>"),
    "level": (int, "6", "koch recursion level"),
    "alpha": (str, "auto", "auto or a positive real"),
    "seed": (int, "0", "stream seed"),
    "line_a": (float, "0", "line domain start"),
    "line_b": (float, "1", "line domain end"),
}

_COMMAND_OPTIONS = {
    "dimension": ("dimension estimate with mass ladders", {
        "tol": (float, "0.01", "bisection tolerance"),
    }),
    "staircase": ("cumulative mass table t,S", {
        "p0": (float, "", "staircase origin; unset: the domain start"),
        "grid": (int, "", "grid cell count; unset: build_staircase's default"),
    }),
    "cdf": ("memoryless cdf curve t,J,F_X", {
        "lam": (float, "1.0", "rate of the exponential law"),
        "grid": (int, "256", "grid cell count"),
    }),
    "sample": ("draw points on the curve", {
        "family": (str, "memoryless", "uniform | memoryless"),
        "lam": (float, "1.0", "memoryless rate"),
        "count": (int, "1000", "number of draws"),
    }),
    "correlation": ("correlation grid J1,J2,R,stderr", {
        "fixture": (str, "linear-amplitude", "process fixture name"),
        "sigma2": (float, "1.0", "variance of linear-amplitude and white-noise"),
        "points": (int, "5", "grid points per axis"),
        "n": (int, "4000", "realizations"),
    }),
    "msdiag": ("mean-square diagnostics verdict table", {
        "fixture": (str, "all", "fixture name or 'all'"),
        "sigma2": (float, "1.0", "variance of linear-amplitude and white-noise"),
        "tau": (float, "0.0", "index point in mass coordinate"),
        "n": (int, "10000", "realizations"),
    }),
    "sde": ("oscillator series and ensemble moments", {
        "mu": (float, "", "Beta mu for A^2; give mu and nu, or a2"),
        "nu": (float, "", "Beta nu for A^2"),
        "a2": (float, "", "deterministic A^2"),
        "ex0": (float, "1", "E[X0]"),
        "ex1": (float, "0", "E[X1]"),
        "ex0sq": (float, "", "E[X0^2]; unset: E[X0]^2"),
        "ex1sq": (float, "", "E[X1^2]; unset: E[X1]^2"),
        "ex01": (float, "", "E[X0 X1]; unset: E[X0] E[X1]"),
        "order": (int, "20", "truncation order N"),
        "grid": (int, "64", "grid cell count"),
        "n": (int, "10000", "Monte Carlo realizations"),
    }),
}


def _effective_config(args) -> dict:
    options = {**_SHARED_OPTIONS, **_COMMAND_OPTIONS[args.command][1]}
    cfg = {key: default for key, (_, default, _) in options.items()}
    if args.config:
        file_cfg = load_config_file(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise CurveDomainError(
                f"unknown config keys for {args.command}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)
    for key in cfg:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = str(flag)
    for key, (kind, _, _) in options.items():
        if (kind is float or key == "alpha") and cfg[key] not in ("", "auto") \
                and not math.isfinite(float(cfg[key])):
            raise CurveDomainError(f"{key} must be a finite number, got {cfg[key]}")
    cfg["command"] = args.command
    return cfg


def _emit(out, cfg, alpha, extra, columns, *trailing):
    """Write a command's CSV, its header the stamp every command shares and
    then the command's ``extra`` keys; returns the exit code 0."""
    meta = {
        "command": cfg["command"],
        "version": __version__,
        "config_sha256": _config_hash(cfg),
        "seed": int(cfg["seed"]),
        "curve": cfg["curve"],
        "level": int(cfg["level"]) if cfg["curve"] == "koch" else 0,
        "alpha": alpha,
        **extra,
    }
    write_csv(out, meta, columns, trailing)
    return 0


def _output_grid(cfg, curve):
    """Parameters of the output rows: ``grid`` uniform cells over the
    curve's domain."""
    cells = int(cfg["grid"])
    if cells < 1:
        raise CurveDomainError(f"grid needs at least one cell, got {cells}")
    return np.linspace(*curve.domain, cells + 1)


# -- commands ----------------------------------------------------------------


def cmd_dimension(cfg, out):
    curve = _load_curve(cfg)
    tol = float(cfg["tol"])
    result = gamma_dimension(curve, tol=tol)
    code = _emit(out, cfg, cfg["alpha"], {"tol": tol}, {
        "alpha": [alpha for alpha, est in result.trace for _ in est.masses],
        "delta": [d for _, est in result.trace for d in est.deltas],
        "mass": [m for _, est in result.trace for m in est.masses],
    }, f"dimension={_fmt(result.value)}")
    if out:
        print(f"dimension={_fmt(result.value)}")
    return code


def cmd_staircase(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    a, b = curve.domain
    p0 = float(cfg["p0"]) if cfg["p0"] else a
    grid = int(cfg["grid"]) if cfg["grid"] else None
    table = build_staircase(curve, alpha, p0, grid)
    return _emit(out, cfg, alpha, {"p0": p0}, {"t": table.t, "S": table.s})


def cmd_cdf(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    lam = float(cfg["lam"])
    t = _output_grid(cfg, curve)
    table = build_staircase(curve, alpha)
    dist = DistributionOnCurve.memoryless(table, lam)
    j = table.value(t)
    f = dist.cdf_at_j(j)
    return _emit(out, cfg, alpha, {
        "lam": lam, "j_range": f"[{_fmt(float(j[0]))},{_fmt(float(j[-1]))}]",
        "f_max": float(f[-1])}, {"t": t, "J": j, "F_X": f})


def cmd_sample(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    table = build_staircase(curve, alpha)
    family = cfg["family"]
    dist = DistributionOnCurve(table, family, lam=float(cfg["lam"]))
    count = int(cfg["count"])
    sample = dist.sample(int(cfg["seed"]), count)
    law = {"lam": dist.lam, "truncated_mass": dist.truncated_mass} \
        if family == "memoryless" else {}
    coords = [f"x{i}" for i in range(curve.ndim)] if curve.ndim > 2 else \
        ["x", "y"][: curve.ndim]
    return _emit(out, cfg, alpha, {
        "family": family, **law, "count": count, "plateau_hits": sample.plateau_hits,
    }, {"t": sample.t, "J": sample.j, **dict(zip(coords, sample.points.T))})


def cmd_correlation(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    table = build_staircase(curve, alpha)
    proc = _make_fixture(cfg["fixture"], cfg)
    lo, hi = table.mass_bounds
    j_values = np.linspace(max(lo, 0.0), hi, int(cfg["points"]))
    grid = estimate_correlation_grid(proc, j_values, int(cfg["n"]), int(cfg["seed"]))
    m = len(grid.j_values)
    return _emit(out, cfg, alpha, {"fixture": cfg["fixture"], "n": grid.n},
                 {"J1": np.repeat(grid.j_values, m), "J2": np.tile(grid.j_values, m),
                  "R": grid.r.ravel(), "stderr": grid.stderr.ravel()})


def _make_fixture(name, cfg):
    """The named builtin process, with the configured sigma2 if it takes one.
    A sigma2 other than 1 for one named fixture that takes none is refused;
    ``--fixture all`` gives it to the fixtures that take it."""
    if name not in BUILTIN_FIXTURES:
        raise CurveDomainError(
            f"unknown fixture {name!r}; pick from {sorted(BUILTIN_FIXTURES)}"
        )
    sigma2 = float(cfg["sigma2"])
    if name in ("linear-amplitude", "white-noise"):
        if not sigma2 >= 0.0:
            raise CurveDomainError(f"sigma2 must be non-negative, got {sigma2}")
        return BUILTIN_FIXTURES[name](sigma2)
    if sigma2 != 1.0 and cfg["fixture"] != "all":
        raise CurveDomainError(f"fixture {name!r} has no variance parameter, got sigma2 "
                               f"{sigma2}; it applies to linear-amplitude and white-noise")
    return BUILTIN_FIXTURES[name]()


def cmd_msdiag(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    names = sorted(BUILTIN_FIXTURES) if cfg["fixture"] == "all" else [cfg["fixture"]]
    procs = [_make_fixture(name, cfg) for name in names]
    tau = float(cfg["tau"])
    lo, hi = build_staircase(curve, alpha).mass_bounds
    # the diagnostics read the process up to tau plus the ladder's largest offset
    reach = DEFAULT_EPS_LADDER[0]
    if not (lo <= tau and tau + reach <= hi):
        raise CurveDomainError(
            f"tau {tau} and its reach tau + {reach} must lie in the curve's "
            f"mass range [{lo}, {hi}]")
    n = int(cfg["n"])
    seed = int(cfg["seed"])
    checks = [ms_derivative_check(proc, tau, n=n, seed=seed) for proc in procs]
    return _emit(out, cfg, alpha, {"tau": tau, "n": n}, {
        "fixture": names,
        "continuous": [c.continuity.continuous for c in checks],
        "differentiable": [c.differentiable for c in checks],
        "second_derivative": [c.value for c in checks],
    })


def _a2_provider(cfg):
    has_beta = cfg["mu"] != "" and cfg["nu"] != ""
    has_fixed = cfg["a2"] != ""
    if has_beta and has_fixed:
        raise CurveDomainError("give either mu/nu or a2, not both")
    if has_fixed:
        return FixedSquaredAmplitude(float(cfg["a2"]))
    if has_beta:
        return BetaSquaredAmplitude(float(cfg["mu"]), float(cfg["nu"]))
    raise CurveDomainError("sde needs the squared amplitude: mu/nu or a2")


def cmd_sde(cfg, out):
    curve, alpha = _resolve_curve(cfg)
    table = build_staircase(curve, alpha)
    a2 = _a2_provider(cfg)
    ex0 = float(cfg["ex0"])
    ex1 = float(cfg["ex1"])
    ex0sq = float(cfg["ex0sq"]) if cfg["ex0sq"] else ex0 ** 2
    ex1sq = float(cfg["ex1sq"]) if cfg["ex1sq"] else ex1 ** 2
    ex01 = float(cfg["ex01"]) if cfg["ex01"] else ex0 * ex1
    spec = MomentSpec(ex0, ex1, ex0sq, ex1sq, ex01, a2)
    order = int(cfg["order"])
    solution = solve_series(spec, order)
    t = _output_grid(cfg, curve)
    j = np.asarray(table.value(t), dtype=float)
    series = {"mean": solution.mean(j), "second_moment": solution.second_moment(j),
              "variance": solution.variance(j)}
    mc = mc_solution_moments(
        a2, deterministic_initial_data(ex0, ex1), int(cfg["n"]),
        int(cfg["seed"]), j,
    )
    return _emit(out, cfg, alpha, {
        "a2": a2.describe(),
        "ex0": ex0, "ex1": ex1, "ex0sq": ex0sq, "ex1sq": ex1sq, "ex01": ex01,
        "order": order, "n": mc.n,
    }, {"t": t, "J": j, **series, "mc_mean": mc.mean, "mc_stderr": mc.mean_stderr})


_COMMANDS = {
    "dimension": cmd_dimension,
    "staircase": cmd_staircase,
    "cdf": cmd_cdf,
    "sample": cmd_sample,
    "correlation": cmd_correlation,
    "msdiag": cmd_msdiag,
    "sde": cmd_sde,
}


def build_parser(command) -> argparse.ArgumentParser:
    """The parser: every command with its summary, and the options of
    ``command`` alone (None or an unknown name gets none). A call parses
    one command, and each option costs argparse a help formatter."""
    parser = argparse.ArgumentParser(
        prog="fractalcalc",
        description="Mass, calculus, and mean-square statistics on fractal curves",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, own) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(name, help=summary)
        if name != command:
            continue
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", help="output CSV path (default stdout)")
        for key, (kind, default, text) in {**_SHARED_OPTIONS, **own}.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           help=f"{text} (default {default})" if default else text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options take no value: the first non-option names the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        cfg = _effective_config(args)
        return _COMMANDS[args.command](cfg, args.out)
    except (FractalCalcError, *_USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 3


if __name__ == "__main__":
    sys.exit(main())
