"""Built-in problems: metadata, analytic gradients, and input validation."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertiq import as_point, builtin_problem, make_quadratic
from inertiq.problems import Problem, rows_form
from problem_helpers import shifted_quadratic


def central_diff(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


class TestSineWell:
    def test_metadata(self):
        p = builtin_problem("example51")
        assert p.dimension == 1
        assert p.gamma == 0.5
        assert p.lipschitz == 6.0
        assert p.kappa == pytest.approx(1.0 / 12.0)
        np.testing.assert_array_equal(p.minimizer, [0.0])
        assert p.min_value == 0.0

    def test_eval_at_minimizer(self):
        p = builtin_problem("example51")
        x = np.array([0.0])
        value, grad = p.func(x), p.grad(x)
        assert value == 0.0
        np.testing.assert_array_equal(grad, [0.0])

    def test_eval_at_three(self):
        # independent scalar evaluation of x^2 + 2 sin^2 x and 2x + 2 sin 2x
        p = builtin_problem("example51")
        x = np.array([3.0])
        value, grad = p.func(x), p.grad(x)
        assert value == pytest.approx(9.0 + 2.0 * math.sin(3.0) ** 2, abs=1e-14)
        assert value == pytest.approx(9.039829, abs=1e-6)
        assert grad[0] == pytest.approx(6.0 + 2.0 * math.sin(6.0), abs=1e-14)
        assert grad[0] == pytest.approx(5.441169, abs=1e-6)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_nan_at_infinity(self, t):
        # math.sin(inf) raises; NaN lets the solvers report a Divergence
        p = builtin_problem("example51")
        value, slope = p.float_form
        assert math.isnan(value(t)) and math.isnan(slope(t))
        assert math.isnan(p.func(np.array([t])))
        assert np.isnan(p.grad(np.array([t]))).all()

    def test_gradient_matches_finite_differences(self):
        p = builtin_problem("example51")
        rng = np.random.default_rng(11)
        xs = rng.uniform(-10.0, 10.0, size=(10_000, 1))
        for x in xs:
            fd = central_diff(p.func, x)
            np.testing.assert_allclose(p.grad(x), fd, atol=1e-5)

    def test_global_lower_bound(self):
        p = builtin_problem("example51")
        rng = np.random.default_rng(12)
        for x in rng.uniform(-10.0, 10.0, size=(2000, 1)):
            assert p.func(x) >= p.min_value

    @settings(max_examples=500, database=None, derandomize=True)
    @given(t=st.floats(min_value=-1e300, max_value=1e300)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]))
    def test_float_form_equals_array_form(self, t):
        # The solvers call the float form at d = 1 instead of func and grad.
        p = builtin_problem("example51")
        value, slope = p.float_form
        x = np.array([t])
        assert struct.pack("<d", value(t)) == struct.pack("<d", p.func(x))
        assert struct.pack("<d", slope(t)) == p.grad(x).tobytes()


class TestArctanBasin:
    def test_metadata(self):
        p = builtin_problem("example52")
        assert p.dimension == 2
        assert p.gamma == 0.2
        # L is a library choice pinned so the benchmark step 0.125 equals 1/L
        assert p.lipschitz == 8.0
        assert p.kappa == pytest.approx(0.025)
        np.testing.assert_array_equal(p.minimizer, [0.0, 0.0])
        assert p.min_value == pytest.approx(-math.atan(5.0))
        assert p.min_value == pytest.approx(-1.373401, abs=1e-6)

    def test_eval_at_minimizer(self):
        p = builtin_problem("example52")
        x = np.array([0.0, 0.0])
        value, grad = p.func(x), p.grad(x)
        assert value == pytest.approx(-math.atan(5.0), abs=1e-15)
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        p = builtin_problem("example52")
        rng = np.random.default_rng(13)
        xs = rng.uniform(-5.0, 5.0, size=(10_000, 2))
        for x in xs:
            fd = central_diff(p.func, x)
            np.testing.assert_allclose(p.grad(x), fd, atol=1e-5)

    def test_global_lower_bound(self):
        p = builtin_problem("example52")
        rng = np.random.default_rng(14)
        for x in rng.uniform(-5.0, 5.0, size=(2000, 2)):
            assert p.func(x) >= p.min_value


class TestQuadratic:
    def test_identity(self):
        p = builtin_problem("quadratic(2,[1,1])")
        assert p.gamma == 1.0 and p.lipschitz == 1.0 and p.kappa == 1.0
        np.testing.assert_array_equal(p.minimizer, [0.0, 0.0])
        x = np.array([3.0, 4.0])
        value, grad = p.func(x), p.grad(x)
        assert value == pytest.approx(12.5)
        np.testing.assert_array_equal(grad, x)

    def test_spectrum_metadata(self):
        p = make_quadratic([2.0, 0.5, 10.0])
        assert p.gamma == 0.5
        assert p.lipschitz == 10.0
        assert p.kappa == pytest.approx(0.05)  # defaults to gamma / L

    def test_spectrum_is_copied(self):
        spectrum = np.geomspace(0.1, 1.0, 2**16)
        p = make_quadratic(spectrum)
        assert spectrum.flags.writeable
        x = np.ones(2**16)
        before = p.grad(x).tobytes()
        spectrum[:] = 7.0
        assert p.grad(x).tobytes() == before
        assert (p.gamma, p.lipschitz) == (0.1, 1.0)

    def test_list_and_array_agree(self):
        values = [0.1, 0.5, 1.0, 2.0, 4.0]
        x = np.array([3.0, -2.0, 0.5, 1e-3, 7.0])
        a, b = make_quadratic(values), make_quadratic(np.array(values))
        assert struct.pack("2d", a.gamma, a.lipschitz) == struct.pack("2d", b.gamma, b.lipschitz)
        assert a.grad(x).tobytes() == b.grad(x).tobytes()

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(ValueError):
            make_quadratic([1.0, 0.0])

    def test_parse_errors(self):
        with pytest.raises(ValueError, match=r"quadratic\(3, \.\.\.\) needs 3 eigenvalues, got 2"):
            builtin_problem("quadratic(3,[1,1])")
        with pytest.raises(ValueError, match="unknown problem 'nosuch'"):
            builtin_problem("nosuch")


class TestValidation:
    def test_nonfinite_input(self):
        p = builtin_problem("example51")
        with pytest.raises(ValueError, match="point contains NaN/Inf"):
            as_point([float("nan")], p.dimension)
        with pytest.raises(ValueError, match="point contains NaN/Inf"):
            as_point([np.inf])

    def test_dimension_mismatch(self):
        p = builtin_problem("example52")
        with pytest.raises(ValueError, match="expected length 2, got 1"):
            as_point([1.0], p.dimension)

    def test_nonstationary_minimizer_rejected(self):
        with pytest.raises(ValueError, match="not stationary"):
            Problem(
                dimension=1,
                func=lambda x: float(x[0] ** 2),
                grad=lambda x: 2.0 * x,
                gamma=1.0,
                lipschitz=2.0,
                minimizer=np.array([1.0]),
            )

    def test_float_form_needs_dimension_one(self):
        with pytest.raises(ValueError, match="float_form needs dimension 1, got 2"):
            Problem(
                dimension=2,
                func=lambda x: float(x.dot(x)),
                grad=lambda x: 2.0 * x,
                gamma=2.0,
                lipschitz=2.0,
                float_form=(lambda t: t * t, lambda t: 2.0 * t),
            )

    def test_nonstationary_float_form_rejected(self):
        # The array gradient vanishes at x* = 0; the asserted float one does not.
        with pytest.raises(ValueError, match="not stationary under float_form"):
            Problem(
                dimension=1,
                func=lambda x: float(x[0] ** 2),
                grad=lambda x: 2.0 * x,
                gamma=2.0,
                lipschitz=2.0,
                minimizer=np.array([0.0]),
                float_form=(lambda t: t * t, lambda t: 2.0 * t + 1.0),
            )

    def test_kappa_defaults_to_gamma_over_lipschitz(self):
        p = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: 2.0 * x,
            gamma=2.0,
            lipschitz=2.0,
        )
        assert p.kappa == 1.0


_ROWS_PROBLEMS = {
    "example51": builtin_problem("example51"),  # float form mapped over the column
    "example52": builtin_problem("example52"),  # its own rows pair
    "quadratic": make_quadratic([0.5, 2.0, 4.0]),  # func and grad mapped over the rows
    "shifted": shifted_quadratic([0.5, 2.0], [1.0, -2.0]),
}
# +-0, subnormals, points near the blow-up guard (1e12) and points whose
# squares overflow, as a box of -1e200..1e200 samples them.
_ROW_COORDINATE = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e12, -1e12, 9.999999999999999e11, 1e200, -1e200])


class TestRowsForm:
    """rows_form gives the bits of func and grad applied row by row; on the
    built-in problems it is as silent as Python floats, so an overflowing
    box raises no RuntimeWarning."""

    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(_ROWS_PROBLEMS)), n=st.integers(1, 6), data=st.data())
    def test_bitwise_equal(self, name, n, data):
        problem = _ROWS_PROBLEMS[name]
        d = problem.dimension
        points = np.array(data.draw(st.lists(_ROW_COORDINATE, min_size=n * d,
                                             max_size=n * d))).reshape(n, d)
        func, grad = rows_form(problem)
        with warnings.catch_warnings():
            if name.startswith("example"):
                warnings.simplefilter("error")
            else:  # numpy's own warnings, per point as per row
                warnings.simplefilter("ignore")
            values, grads = func(points), grad(points)
            per_point = [(problem.func(x), problem.grad(x)) for x in points]
        assert values.shape == (n,) and grads.shape == (n, d)
        assert values.tobytes() == np.array([f for f, _ in per_point]).tobytes()
        assert grads.tobytes() == np.array([g for _, g in per_point]).tobytes()

    def test_which_pair(self):
        basin = builtin_problem("example52")
        assert rows_form(basin) is basin.rows
        sine_well = builtin_problem("example51")
        assert sine_well.rows is None and sine_well.float_form is not None
        # a replaced func or grad keeps the rows pair, as it keeps float_form
        replaced = dataclasses.replace(basin, grad=lambda x: 2.0 * x)
        assert rows_form(replaced) is basin.rows
        # ... unless the copy drops it, as check_assumptions' docstring says
        _, grad = rows_form(dataclasses.replace(replaced, rows=None))
        assert grad(np.array([[1.0, -3.0]])).tolist() == [[2.0, -6.0]]
