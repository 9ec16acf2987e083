"""The library's settable surface, pinned.

A setting is a parameter with a default. Each module's count of them,
the names ``fractalcalc`` exports and the fields of a curve are pinned
here, so a change that adds a setting, a public name or a field has to
edit this file and say why. Every public name also needs a reader
outside the tests.
"""

import ast
import dataclasses
import re
from pathlib import Path

import fractalcalc
from fractalcalc import FractalCurve

PACKAGE = Path(fractalcalc.__file__).resolve().parent

#: Parameters with a default, per module; modules without one are left out.
SETTINGS = {
    "calculus": 1,
    "cli": 2,
    "distributions": 2,
    "oscillator": 4,
    "processes": 16,
    "rng": 1,
    "staircase": 4,
}

EXPORTS = [
    "BetaSquaredAmplitude", "DistributionOnCurve", "FixedSquaredAmplitude",
    "FractalCurve", "FractalProcess", "KOCH_DIMENSION", "MomentSpec",
    "SeriesSolution", "StaircaseTable", "__version__", "beta_raw_moment",
    "brownian_like", "build_koch", "build_line", "build_polyline", "build_staircase",
    "closed_form_sample", "coarse_mass", "cosine_phase",
    "estimate_correlation_grid", "falpha_derivative", "falpha_integral",
    "gamma_dimension", "improper_ms_integral",
    "linear_amplitude", "load_polyline_csv", "mass_function",
    "mc_solution_moments", "ms_continuity_check", "ms_derivative_check",
    "ms_integral", "ms_integral_precheck",
    "sampling_cdf", "second_generalized_derivative",
    "sigma_alpha", "solve_series", "white_noise",
]


def settings_in(path):
    """Parameters with a default across every function and lambda in ``path``."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_settings_per_module():
    counts = {p.stem: settings_in(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == SETTINGS
    assert sum(SETTINGS.values()) == 30


def test_exports():
    assert sorted(fractalcalc.__all__) == EXPORTS


def test_curve_fields():
    # a curve is its data: nothing records how it was built
    assert [f.name for f in dataclasses.fields(FractalCurve)] == ["knots", "vertices", "alpha"]


def test_every_export_has_a_reader():
    # a reader is library or benchmark code that loads the name, or README
    # naming it in backticks; tests do not count
    root = PACKAGE.parent.parent
    loaded = set()
    for path in [*PACKAGE.glob("*.py"), *(root / "perfbench").glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    documented = set(re.findall(r"`([A-Za-z_]\w*)[`(]", (root / "README.md").read_text()))
    unread = set(fractalcalc.__all__) - {"__version__"} - loaded - documented
    assert not unread
