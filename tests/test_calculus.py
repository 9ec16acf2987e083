import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalcalc import (
    build_koch,
    build_line,
    build_staircase,
    falpha_derivative,
    falpha_integral,
)
from fractalcalc.errors import CurveDomainError, EvaluationError, ResolutionError
from walks import lognormal_walk


@pytest.fixture(scope="module")
def line_table():
    return build_staircase(build_line(0, 1))


@pytest.fixture(scope="module")
def koch_table():
    return build_staircase(build_koch(6))


class TestDerivative:
    def test_constant_is_zero(self, koch_table):
        curve = koch_table.curve
        for t in (0.2, 0.5, 0.8):
            val = falpha_derivative(lambda p: 3.25, koch_table, curve.point(t))
            assert val == pytest.approx(0.0, abs=1e-9)

    def test_line_classical_oracle(self, line_table):
        # d/dt t^2 = 2t, checked against the closed form
        for t in (0.3, 0.5, 0.7):
            val = falpha_derivative(
                lambda p: p[0] ** 2, line_table, np.array([t]), h=1e-4
            )
            assert val == pytest.approx(2.0 * t, abs=1e-6)

    def test_conjugacy_oracle_on_koch(self, koch_table):
        # f = J^2 differentiates to 2 J in the mass coordinate
        curve = koch_table.curve

        def f(p):
            return koch_table.j_of_theta(p) ** 2

        h = 1e-4
        for t in (0.25, 0.5, 0.8125):
            theta = curve.point(t)
            expected = 2.0 * koch_table.j_of_theta(theta)
            assert falpha_derivative(f, koch_table, theta, h=h) == pytest.approx(
                expected, abs=10 * h * h + 1e-9
            )

    def test_one_sided_at_endpoint(self, line_table):
        val = falpha_derivative(lambda p: p[0] ** 2, line_table, np.array([0.0]), h=1e-5)
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_step_below_resolution_rejected(self, line_table):
        with pytest.raises(ResolutionError):
            falpha_derivative(lambda p: p[0], line_table, np.array([0.5]), h=1e-16)


class TestIntegral:
    def test_constant_telescopes_exactly(self, koch_table):
        val = falpha_integral(lambda p: 1.0, koch_table, 0.25, 0.75)
        expected = koch_table.value(0.75) - koch_table.value(0.25)
        assert val == pytest.approx(expected, abs=1e-14)

    def test_line_classical_oracle(self, line_table):
        val = falpha_integral(lambda pts: np.atleast_2d(pts)[:, 0], line_table, 0, 1)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_j_against_j_on_koch(self, koch_table):
        def f(pts):
            return np.asarray(koch_table.j_of_many(np.atleast_2d(pts)))

        val = falpha_integral(f, koch_table, 0, 1)
        assert val == pytest.approx(koch_table.s[-1] ** 2 / 2.0, abs=1e-6)

    def test_linearity(self, line_table):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=2)

        def f(pts):
            return np.cos(3.0 * np.atleast_2d(pts)[:, 0])

        def g(pts):
            return np.atleast_2d(pts)[:, 0] ** 3

        def combo(pts):
            return a * f(pts) + b * g(pts)

        lhs = falpha_integral(combo, line_table, 0, 1)
        rhs = a * falpha_integral(f, line_table, 0, 1) + b * falpha_integral(
            g, line_table, 0, 1
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_additivity(self, line_table):
        def f(pts):
            return np.atleast_2d(pts)[:, 0] ** 2

        whole = falpha_integral(f, line_table, 0, 1)
        split = falpha_integral(f, line_table, 0, 0.375) + falpha_integral(
            f, line_table, 0.375, 1
        )
        assert whole == pytest.approx(split, abs=1e-9)

    def test_fundamental_theorem_roundtrip(self, koch_table):
        def f(pts):
            return np.asarray(koch_table.j_of_many(np.atleast_2d(pts)))

        def antiderivative(p):
            t = float(koch_table.curve.parameter_of(np.reshape(p, (1, -1)))[0])
            return falpha_integral(f, koch_table, 1e-12, t)

        h = 1e-3
        curve = koch_table.curve
        for t in (0.25, 0.5):
            theta = curve.point(t)
            expected = koch_table.j_of_theta(theta)
            val = falpha_derivative(antiderivative, koch_table, theta, h=h)
            assert val == pytest.approx(expected, abs=50 * h)

    def test_classical_degeneration_both_ops(self, line_table):
        # alpha = 1 on the segment reproduces the ordinary calculus pair
        d = falpha_derivative(lambda p: p[0] ** 2, line_table, np.array([0.5]), h=1e-4)
        assert d == pytest.approx(1.0, abs=1e-6)
        i = falpha_integral(lambda pts: np.atleast_2d(pts)[:, 0], line_table, 0, 1)
        assert i == pytest.approx(0.5, abs=1e-9)

    def test_nonfinite_integrand_rejected(self, line_table):
        def bad(pts):
            pts = np.atleast_2d(pts)
            with np.errstate(invalid="ignore"):
                return np.sqrt(pts[:, 0] - 0.5)

        with pytest.raises(EvaluationError):
            falpha_integral(bad, line_table, 0, 1)

    def test_wrong_shape_integrand_rejected(self, koch_table):
        # one row per tag point is the contract; the whole block is not
        with pytest.raises(EvaluationError):
            falpha_integral(lambda pts: np.atleast_2d(pts), koch_table, 0, 1)

    def test_bad_bounds_rejected(self, line_table):
        with pytest.raises(CurveDomainError):
            falpha_integral(lambda p: 1.0, line_table, 0.7, 0.2)

    def test_koch5_nonlinear_integrand(self):
        # pins the rule on an integrand it does not integrate exactly
        table = build_staircase(build_koch(5))
        val = falpha_integral(lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2, table, 0, 1)
        assert val == pytest.approx(0.65160075596926, abs=1e-12)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), edges=st.integers(8, 256),
       dim=st.sampled_from([2, 3]), a=st.floats(0.0, 0.4), b=st.floats(0.6, 1.0),
       coef=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_affine_integrand_is_exact_on_walks(seed, edges, dim, a, b, coef):
    # the point and J are affine in t between knots, so an affine integrand
    # integrates to its cell-midpoint value times each cell's mass
    table = build_staircase(lognormal_walk(seed, edges, dim))
    c = np.asarray(coef)

    def f(pts):
        return c[0] + pts @ c[1:dim + 1]

    t = np.union1d(table.t, table.curve.knots)
    t = np.concatenate(([a], t[(t > a) & (t < b)], [b]))
    p, dj = table.curve.point(t), np.diff(table.value(t))
    mid = f(0.5 * (p[:-1] + p[1:]))
    assert abs(falpha_integral(f, table, a, b) - mid @ dj) <= 1e-12 * (np.abs(mid) @ dj)
