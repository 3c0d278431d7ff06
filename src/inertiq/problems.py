"""Differentiable test objectives with strong-quasiconvexity metadata.

A :class:`Problem` bundles an objective, its analytic gradient, and the
constants (gamma, L, kappa) the convergence theory needs.  The constants are
caller-asserted; :mod:`inertiq.analysis` provides empirical falsification
tools.  Built-in problems cover the two benchmark objectives used throughout
the package plus diagonal quadratics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

# Gradient norm allowed at a declared minimizer.
STATIONARITY_TOL = 1e-10


def as_point(x, dimension: int | None = None) -> Vector:
    """Coerce ``x`` to a finite 1-D float64 vector, checking length if given."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(f"expected length {dimension}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point contains NaN/Inf: {arr}")
    return arr


@dataclass(frozen=True)
class Problem:
    """Differentiable objective with curvature metadata.

    gamma is the strong-quasiconvexity modulus, lipschitz the gradient
    Lipschitz constant L, and kappa the quasar-convexity constant
    <grad f(x), x - x*> >= kappa (f(x) - f(x*)); kappa defaults to gamma/L,
    which is always admissible in this setting.

    float_form, allowed only at dimension 1, is the pair (f, f') on Python
    floats.  The solvers call it instead of func and grad, so it must give
    the same bits: write the formula once, as these two functions, and
    build func and grad from them.  A problem replaced with a new func or
    grad (``dataclasses.replace``) keeps the old float_form unless it is
    replaced too.

    rows, allowed at any dimension, is the pair (f, grad f) on an (n, d)
    array of points, one point per row: f returns the n values and grad f
    the (n, d) gradients, with the bits of func and grad applied row by row.
    :func:`rows_form` supplies a pair for a problem without one, and a
    replaced func or grad keeps the old rows pair, as it keeps float_form.
    """

    dimension: int
    func: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    gamma: float
    lipschitz: float
    kappa: float | None = None
    minimizer: Vector | None = None
    min_value: float | None = None
    float_form: tuple[Callable[[float], float], Callable[[float], float]] | None = None
    rows: tuple[Callable[[NDArray], Vector], Callable[[NDArray], NDArray]] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.float_form is not None and self.dimension != 1:
            raise ValueError(f"float_form needs dimension 1, got {self.dimension}")
        for label, value in (("gamma", self.gamma), ("lipschitz", self.lipschitz)):
            if not (value > 0):
                raise ValueError(f"{label} must be positive, got {value}")
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.gamma / self.lipschitz)
        if not (self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.minimizer is not None:
            xstar = as_point(self.minimizer, self.dimension)
            xstar.setflags(write=False)
            object.__setattr__(self, "minimizer", xstar)
            gnorm = float(np.linalg.norm(self.grad(xstar)))
            if gnorm > STATIONARITY_TOL:
                raise ValueError(
                    f"declared minimizer is not stationary: |grad| = {gnorm:.3e}"
                )
            if self.float_form is not None:
                slope = abs(self.float_form[1](xstar.item()))
                if slope > STATIONARITY_TOL:
                    raise ValueError(
                        f"declared minimizer is not stationary under float_form: "
                        f"|f'| = {slope:.3e}"
                    )
            if self.min_value is None:
                object.__setattr__(self, "min_value", float(self.func(xstar)))


class StateOps(NamedTuple):
    """How a solver holds the points of one problem (:func:`state_ops`)."""

    grad: Callable  # gradient of a state, as a state
    func: Callable  # value of a state, as a float
    state: Callable  # vector -> state
    point: Callable  # state -> vector a record can own
    peak: Callable  # largest |coordinate|; NaN if any coordinate is NaN
    # v . v, also at d = 1: sqrt(s * s) is not |s| once s * s under- or overflows
    sqnorm: Callable


def state_ops(problem: Problem) -> StateOps:
    """Python floats at d = 1, vectors otherwise.

    ``+``, ``-`` and ``*`` on Python floats are the IEEE-754 operations of
    1-element float64 arrays without numpy's per-call dispatch, so one
    solver loop gives the same bits either way.  At d = 1 ``point`` makes a
    fresh 1-element array for a record, and ``grad`` and ``func`` are the
    problem's ``float_form``.  Without one they call ``problem.grad`` and
    ``problem.func`` on a 1-element array, and ``grad`` raises
    ``ValueError`` unless the result has one element.
    """
    vector_func = problem.func
    if problem.dimension > 1:
        return StateOps(
            problem.grad, lambda a: float(vector_func(a)), _same, _same,
            lambda a: float(np.abs(a).max()), lambda a: a.dot(a),
        )
    if problem.float_form is not None:
        func, grad = problem.float_form
    else:
        vector_grad = problem.grad

        def grad(s: float) -> float:
            g = vector_grad(np.array([s]))
            if g.size != 1:
                raise ValueError(f"gradient of a 1-D problem has {g.size} elements")
            return g.item()

        def func(s: float) -> float:
            return float(vector_func(np.array([s])))

    return StateOps(grad, func, lambda a: a.item(), lambda s: np.array([s]), abs,
                    lambda s: s * s)


def _same(a):
    return a


def rows_form(problem: Problem) -> tuple[Callable, Callable]:
    """(f, grad f) on an (n, d) array of points, giving the bits of ``func``
    and ``grad`` applied row by row: the problem's ``rows`` pair; at d = 1
    its ``float_form`` mapped over the column; else ``func`` and ``grad``
    mapped over the rows.

    The column is iterated as it is, not as a ``tolist()`` copy, so a long
    column costs no list of Python floats.
    """
    if problem.rows is not None:
        return problem.rows
    if problem.float_form is not None:
        (value, slope), dim = problem.float_form, 1

        def points_of(points):
            return map(float, points[:, 0])
    else:
        value, slope, dim = problem.func, problem.grad, problem.dimension

        def points_of(points):
            return points  # an (n, d) array iterates over its rows

    return (
        lambda points: np.fromiter(map(value, points_of(points)), np.float64, len(points)),
        lambda points: np.fromiter(map(slope, points_of(points)), (np.float64, dim),
                                   len(points)),
    )


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------

def _sine_well() -> Problem:
    """1-D nonconvex objective f(x) = x^2 + 2 sin^2 x.

    Strongly quasiconvex with gamma = 1/2; grad f(x) = 2x + 2 sin 2x is
    Lipschitz with L = 6.  Unique minimizer x* = 0 with f(x*) = 0.
    """

    # The formula is written once, on Python floats; the array forms unpack
    # their one coordinate and call it, so the two forms give the same bits.
    # math.sin raises ValueError at +-inf; NaN there lets the solvers'
    # blow-up guard report the run as a Divergence.
    def value(t: float) -> float:
        try:
            return t * t + 2.0 * math.sin(t) ** 2
        except ValueError:
            return math.nan

    def slope(t: float) -> float:
        try:
            return 2.0 * t + 2.0 * math.sin(2.0 * t)
        except ValueError:
            return math.nan

    def f(x: Vector) -> float:
        (t,) = x.tolist()
        return value(t)

    def g(x: Vector) -> Vector:
        (t,) = x.tolist()
        return np.array([slope(t)])

    return Problem(
        dimension=1,
        func=f,
        grad=g,
        gamma=0.5,
        lipschitz=6.0,
        minimizer=np.array([0.0]),
        min_value=0.0,
        float_form=(value, slope),
    )


def _arctan_basin() -> Problem:
    """2-D nonconvex objective x^2/10 + y^2/5 - arctan(1/(x^2 + 2y^2 + 0.2)).

    Strongly quasiconvex with gamma = 0.2; minimizer (0, 0) with optimal
    value -arctan 5.  The gradient Lipschitz constant is not published for
    this objective; L = 8 is adopted so that the benchmark step size
    s = 0.125 equals 1/L, keeping the preset inside the certified regime.
    """

    # The formula is written once, for x and y as Python floats or as the
    # columns of a rows array: +, -, * and / round alike on both, and the
    # rows form calls math.atan once per row.  On arrays it ignores overflow
    # and invalid operations, which Python floats pass over silently.
    def value(x, y, atan):
        u = x * x + 2.0 * y * y + 0.2
        return x * x / 10.0 + y * y / 5.0 - atan(1.0 / u)

    def slope(x, y):
        u = x * x + 2.0 * y * y + 0.2
        w = 1.0 / (u * u + 1.0)
        return x / 5.0 + 2.0 * x * w, 2.0 * y / 5.0 + 4.0 * y * w

    def atan_rows(t: Vector) -> Vector:
        return np.fromiter(map(math.atan, map(float, t)), np.float64, len(t))

    def f(p: Vector) -> float:
        x, y = p.tolist()
        return value(x, y, math.atan)

    def g(p: Vector) -> Vector:
        x, y = p.tolist()
        return np.array(slope(x, y))

    def f_rows(points):
        with np.errstate(over="ignore", invalid="ignore"):
            return value(points[:, 0], points[:, 1], atan_rows)

    def g_rows(points):
        out = np.empty(points.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, 0], out[:, 1] = slope(points[:, 0], points[:, 1])
        return out

    return Problem(
        dimension=2,
        func=f,
        grad=g,
        gamma=0.2,
        lipschitz=8.0,
        minimizer=np.array([0.0, 0.0]),
        min_value=-math.atan(5.0),
        rows=(f_rows, g_rows),
    )


def make_quadratic(spectrum: Sequence[float]) -> Problem:
    """Diagonal quadratic f(x) = 1/2 sum_i lambda_i x_i^2 with lambda_i > 0.

    gamma = min(spectrum), L = max(spectrum), minimizer 0, optimal value 0.
    """
    lam = np.array(spectrum, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("spectrum must be a nonempty sequence of reals")
    if not np.all(lam > 0):
        raise ValueError("quadratic spectrum must be strictly positive")
    lam.setflags(write=False)
    d = int(lam.size)

    def f(x: Vector) -> float:
        return float(0.5 * np.dot(lam * x, x))

    def g(x: Vector) -> Vector:
        return lam * x

    return Problem(
        dimension=d,
        func=f,
        grad=g,
        gamma=float(lam.min()),
        lipschitz=float(lam.max()),
        minimizer=np.zeros(d),
        min_value=0.0,
    )


_QUADRATIC_RE = re.compile(
    r"^quadratic\(\s*(\d+)\s*,\s*\[([^\]]*)\]\s*\)$"
)


def builtin_problem(name: str) -> Problem:
    """Look up a built-in problem by identifier.

    Accepts ``example51``, ``example52``, or ``quadratic(d,[l1,...,ld])``.
    """
    key = name.strip()
    if key == "example51":
        return _sine_well()
    if key == "example52":
        return _arctan_basin()
    m = _QUADRATIC_RE.match(key)
    if m:
        d = int(m.group(1))
        try:
            spectrum = [float(tok) for tok in m.group(2).split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad quadratic spectrum in {name!r}") from exc
        if len(spectrum) != d:
            raise ValueError(f"quadratic({d}, ...) needs {d} eigenvalues, got {len(spectrum)}")
        return make_quadratic(spectrum)
    raise ValueError(
        f"unknown problem {name!r}; expected example51, example52 "
        "or quadratic(d,[l1,...,ld])"
    )
