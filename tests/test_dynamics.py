"""Continuous-time integration: vector field, accuracy, energy decay, certificates."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertiq import (
    PerturbationSpec,
    builtin_problem,
    integrate,
    make_quadratic,
    rate_certificate,
    sample_continuous,
)
from inertiq import dynamics, perturbations
from inertiq.analysis import continuous_energy
from inertiq.cli import main
from inertiq.dynamics import TrajectoryRecord
from inertiq.errors import BLOWUP_NORM, Divergence
from inertiq.problems import Problem, as_point
from problem_helpers import shifted_quadratic


@pytest.fixture(scope="module")
def sine_well():
    return builtin_problem("example51")


def damped_oscillator_solution(t, x0=1.0, v0=0.0):
    """Closed form of x'' + x' + x = 0 (f = x^2/2, alpha = 1, beta = 0)."""
    om = math.sqrt(3.0) / 2.0
    a = x0
    b = (v0 + 0.5 * x0) / om
    return math.exp(-0.5 * t) * (a * math.cos(om * t) + b * math.sin(om * t))


class TestRhs:
    """The acceleration dv = -alpha v - grad f(x + beta v), ``dynamics._accel``,
    the right-hand side ``integrate`` evaluates at every RK4 stage."""

    def test_equilibrium(self, sine_well):
        dv = dynamics._accel(sine_well.grad, 1.0, 0.2, np.array([0.0]), np.array([0.0]))
        np.testing.assert_array_equal(dv, [0.0])

    def test_gradient_term(self, sine_well):
        dv = dynamics._accel(sine_well.grad, 1.0, 0.2, np.array([3.0]), np.array([0.0]))
        assert dv[0] == pytest.approx(-(6.0 + 2.0 * math.sin(6.0)), rel=1e-15)
        assert dv[0] == pytest.approx(-5.441169, abs=1e-6)

    def test_beta_zero_is_heavy_ball_flow(self, sine_well):
        # with beta = 0 the acceleration is -alpha v - grad f(x)
        x, v = np.array([2.0]), np.array([-1.5])
        dv = dynamics._accel(sine_well.grad, 0.7, 0.0, x, v)
        expected = -0.7 * v - sine_well.grad(x)
        np.testing.assert_allclose(dv, expected, rtol=1e-15)


class TestIntegrate:
    def test_constant_at_minimizer(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [0.0], [0.0], t_end=1.0, dt=1e-2)
        for rec in recs:
            assert rec.energy == 0.0
            assert rec.value_error == 0.0
            assert rec.speed == 0.0

    def test_accuracy_against_closed_form(self):
        p = make_quadratic([1.0])
        recs = integrate(p, 1.0, 0.0, PerturbationSpec.none(),
                         [1.0], [0.0], t_end=5.0, dt=1e-3, record_every=100)
        for rec in recs:
            assert rec.x[0] == pytest.approx(damped_oscillator_solution(rec.t), abs=1e-11)

    def test_record_spacing_and_final(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [3.0], [0.0], t_end=1.0, dt=1e-3, record_every=250)
        ts = [rec.t for rec in recs]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(1.0, abs=1e-12)
        assert ts[1] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        PerturbationSpec.none(), PerturbationSpec.gaussian(0.01, 0.01, seed=3),
    ])
    def test_records_own_their_arrays(self, spec):
        basin = builtin_problem("example52")
        x0, v0 = np.array([3.0, 3.0]), np.array([0.5, 0.0])
        recs = integrate(basin, 1.0, 0.1, spec, x0, v0, t_end=0.1, dt=1e-2)
        assert len(recs) == 11
        arrays = [a for rec in recs for a in (rec.x, rec.v)] + [x0, v0]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_energy_nonincreasing_in_t31_box(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [3.0], [0.0], t_end=10.0, dt=1e-3)
        e0 = recs[0].energy
        energies = np.array([rec.energy for rec in recs])
        assert np.all(np.diff(energies) <= 1e-6 * e0)

    def test_divergence_guard(self):
        # concave objective: the flow escapes to infinity and hits the guard
        unstable = Problem(
            dimension=1,
            func=lambda x: float(-0.5 * x[0] ** 2),
            grad=lambda x: -x,
            gamma=1.0,
            lipschitz=1.0,
        )
        with pytest.raises(Divergence) as exc:
            integrate(unstable, 0.1, 0.0, PerturbationSpec.none(),
                      [1.0], [0.0], t_end=100.0, dt=1e-2)
        assert exc.value.when is not None and exc.value.when > 0

    def test_zero_amplitude_noise_bitwise_equal(self, sine_well):
        """Perturbed system with zero amplitude == unperturbed, bit for bit."""
        kw = dict(x0=[3.0], v0=[0.0], t_end=2.0, dt=1e-3, record_every=50)
        plain = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(), **kw)
        gauss0 = integrate(sine_well, 1.0, 0.1,
                           PerturbationSpec.gaussian(0.0, 0.01, seed=5), **kw)
        power0 = integrate(sine_well, 1.0, 0.1,
                           PerturbationSpec.power(0.0, 1.0, seed=5), **kw)
        for a, b in ((plain, gauss0), (plain, power0)):
            assert len(a) == len(b)
            for ra, rb in zip(a, b):
                assert ra.x.tobytes() == rb.x.tobytes()
                assert ra.v.tobytes() == rb.v.tobytes()

    def test_gaussian_noise_reproducible(self, sine_well):
        spec = PerturbationSpec.gaussian(0.01, 0.1, seed=11)
        kw = dict(x0=[3.0], v0=[0.0], t_end=1.0, dt=1e-2)
        a = integrate(sine_well, 1.0, 0.1, spec, **kw)
        b = integrate(sine_well, 1.0, 0.1, spec, **kw)
        for ra, rb in zip(a, b):
            assert ra.x.tobytes() == rb.x.tobytes()

    def test_perturbed_power_decay_trajectory_rate(self, sine_well):
        # |x(t) - x*| follows the forcing's 1/t^p law (coarse in-module check;
        # the acceptance suite runs the long-horizon version)
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.power(0.1, 1.0),
                         [3.0], [0.0], t0=1.0, t_end=80.0, dt=1e-2, record_every=10)
        ts = np.array([r.t for r in recs])
        ds = np.array([r.traj_error for r in recs])
        m = (ts >= 40.0) & (ds > 1e-15)
        slope = np.polyfit(np.log(ts[m]), np.log(ds[m]), 1)[0]
        assert slope <= -0.5

    def test_validation(self, sine_well):
        with pytest.raises(ValueError):
            integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(), [1.0], [0.0],
                      t_end=1.0, dt=-1e-3)
        with pytest.raises(ValueError):
            integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(), [1.0], [0.0],
                      t0=2.0, t_end=1.0)

    @pytest.mark.parametrize("x0, v0", [([np.nan], [0.0]), ([1.0], [np.inf])],
                             ids=["x0_nan", "v0_inf"])
    def test_nonfinite_start(self, sine_well, x0, v0):
        with pytest.raises(ValueError, match="point contains NaN/Inf"):
            integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(), x0, v0,
                      t_end=1.0, dt=1e-2)


def _records_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(r.x.tobytes())
        h.update(r.v.tobytes())
        for value in (r.t, r.value_error, r.traj_error, r.speed, r.energy):
            h.update(struct.pack("<d", value))
    return h.hexdigest()


_PINNED_PERTURBATIONS = {
    "none": (PerturbationSpec.none(), 0.0),
    "power_e1": (PerturbationSpec.power(0.1, 1.0), 1.0),
    "gauss": (PerturbationSpec.gaussian(0.01, 0.01, seed=3), 0.0),
}


class TestIntegrateRecordsPinned:
    """SHA-256 of every record, fixed before the three perturbation-specific
    accelerations of ``integrate`` became one (x86-64, IEEE-754 doubles)."""

    PINNED = {
        ("example51", "none"):
            "2822b0c7fab41ebbef96f14108702f911c71497385c14374a16a2dedee6daa46",
        ("example51", "power_e1"):
            "6130b8a503fb56bb12e49a64fb6104f44191d773f207f9d4de3ac5599a146ec2",
        ("example51", "gauss"):
            "bbcd50409dd1138d0d7e689b81e733f9e7a38d048f6d7daba3b3a2288b262126",
        ("example52", "none"):
            "76d5cf0914a8bc271497d2677f158bb7643e013c2b512189effa8e6d9a55f1a2",
        ("example52", "power_e1"):
            "482df85dbd8a2e8e8b6aa30a685677c489021b42a58e04231c17d39f36e99fc6",
        ("example52", "gauss"):
            "2fd4e88ad2f520a6423f87083034ff1bb422b6a173a56f95e2866b4c20383372",
    }

    @pytest.mark.parametrize("name, pert", sorted(PINNED))
    def test_digest(self, name, pert):
        problem = builtin_problem(name)
        spec, t0 = _PINNED_PERTURBATIONS[pert]
        dim = problem.dimension
        recs = integrate(problem, 1.0, 0.1, spec, [3.0] * dim, [0.0] * dim,
                         t0=t0, t_end=t0 + 3.0, dt=1e-2)
        assert _records_digest(recs) == self.PINNED[(name, pert)]


def _integrate_reference(problem, alpha, beta, pert, x0, v0, t0, t_end, dt, record_every=1):
    """The array-state RK4 loop and its records, as ``integrate`` ran them at
    every dimension before one-dimensional states became Python floats; the
    float path must equal it bit for bit."""

    def make_record(t, x, v):
        lookahead = float(problem.func(x + beta * v))
        if problem.minimizer is not None and problem.min_value is not None:
            value_error = lookahead - problem.min_value
            w = x - problem.minimizer
            traj_error = math.sqrt(w.dot(w))
            energy = continuous_energy(problem, alpha, beta, x, v)
        else:
            value_error, traj_error, energy = lookahead, float("nan"), float("nan")
        return TrajectoryRecord(t, x, v, value_error, traj_error, math.sqrt(v.dot(v)), energy)

    x = as_point(x0, problem.dimension).copy()
    v = as_point(v0, problem.dimension).copy()
    dim = problem.dimension
    n_steps = max(1, int(round((t_end - t0) / dt)))
    half = 0.5 * dt
    sixth = dt / 6.0
    perturbed = not pert.is_zero
    gaussian = perturbed and pert.model == "gaussian_decay"
    frozen = None

    def accel(j, tt, xx, vv):
        a = -alpha * vv - problem.grad(xx + beta * vv)
        if perturbed:
            a = a + (frozen if gaussian else dynamics.sample_continuous(pert, tt, dim, step=j))
        return a

    records = [make_record(t0, x, v)]
    for j in range(n_steps):
        t = t0 + j * dt
        if gaussian:
            frozen = dynamics.sample_continuous(pert, t, dim, step=j)
        k1v = accel(j, t, x, v)
        x2 = x + half * v
        v2 = v + half * k1v
        k2v = accel(j, t + half, x2, v2)
        x3 = x + half * v2
        v3 = v + half * k2v
        k3v = accel(j, t + half, x3, v3)
        x4 = x + dt * v3
        v4 = v + dt * k3v
        k4v = accel(j, t + dt, x4, v4)
        x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t_next = t0 + (j + 1) * dt
        xmax = float(np.max(np.abs(x)))
        vmax = float(np.max(np.abs(v)))
        if not (xmax <= BLOWUP_NORM and vmax <= BLOWUP_NORM):
            raise Divergence(
                f"trajectory blew up at t = {t_next:.6g} (|x|={xmax:.3g}, |v|={vmax:.3g})",
                when=t_next,
            )
        if (j + 1) % record_every == 0 or j + 1 == n_steps:
            records.append(make_record(t_next, x, v))
    return records


def _overflowing_gradient(x):
    # Concave and steep: the flow escapes, and within a few steps the stage
    # arithmetic reaches inf and NaN before the blow-up guard reads the state.
    (t,) = x.tolist()
    return np.array([-1e300 * t * abs(t)])


_ONE_D_PROBLEMS = {
    "example51": builtin_problem("example51"),
    "quadratic": make_quadratic([2.5]),
    "overflow": Problem(dimension=1, func=lambda x: float(-1e300 * x[0] ** 2),
                        grad=_overflowing_gradient, gamma=1.0, lipschitz=1.0),
}


def _bytes(records):
    """Every field of every record, as bytes: arrays with shape and dtype."""
    out = []
    for r in records:
        out.append(struct.pack("<d", r.t))
        for a in (r.x, r.v):
            out.append(repr((a.shape, a.dtype)).encode() + a.tobytes())
        out.append(struct.pack("<4d", r.value_error, r.traj_error, r.speed, r.energy))
    return out


def _outcome(fn, *args, **kwargs):
    with np.errstate(all="ignore"):  # the reference's overflowing arrays warn
        try:
            return "records", _bytes(fn(*args, **kwargs))
        except Divergence as exc:
            return "divergence", struct.pack("<d", exc.when), str(exc)


class TestFloatStateMatchesReference:
    """At d = 1 the state is two Python floats; records, blow-up times and
    messages equal the array-state reference bit for bit."""

    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ONE_D_PROBLEMS)),
        forcing=st.sampled_from(["none", "e1", "random", "tuple", "gauss"]),
        alpha=st.floats(min_value=0.05, max_value=3.0),
        beta=st.floats(min_value=0.0, max_value=2.0),
        x0=st.floats(min_value=-5.0, max_value=5.0),
        v0=st.floats(min_value=-5.0, max_value=5.0),
        t0=st.floats(min_value=0.1, max_value=5.0),
        dt=st.floats(min_value=1e-3, max_value=0.2),
        n_steps=st.integers(min_value=1, max_value=40),
        record_every=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_bitwise_equal(self, name, forcing, alpha, beta, x0, v0, t0, dt, n_steps,
                           record_every, seed):
        pert = {
            "none": PerturbationSpec.none(),
            "e1": PerturbationSpec.power(0.3, 1.5),
            "random": PerturbationSpec.power(0.3, 0.5, direction="random", seed=seed),
            "tuple": PerturbationSpec.power(0.2, 1.0, direction=(-2.0,)),
            "gauss": PerturbationSpec.gaussian(0.5, 0.1, seed=seed),
        }[forcing]
        args = (_ONE_D_PROBLEMS[name], alpha, beta, pert, [x0], [v0])
        kwargs = dict(t0=t0, t_end=t0 + n_steps * dt, dt=dt, record_every=record_every)
        assert _outcome(integrate, *args, **kwargs) == _outcome(
            _integrate_reference, *args, **kwargs)

    def test_overflow_diverges(self):
        # the overflowing problem does reach the guard through NaN
        with pytest.raises(Divergence, match="nan"):
            integrate(_ONE_D_PROBLEMS["overflow"], 1.0, 0.1, PerturbationSpec.none(),
                      [3.0], [0.0], t_end=1.0, dt=0.1)

    def test_gradient_of_wrong_length(self, sine_well):
        # a 1-D problem's gradient must have one element; it is not broadcast
        wide = dataclasses.replace(sine_well, grad=lambda x: np.array([2.0, 1.0]) * x,
                                   float_form=None)
        with pytest.raises(ValueError, match="gradient of a 1-D problem has 2 elements"):
            integrate(wide, 1.0, 0.1, PerturbationSpec.none(), [3.0], [0.0],
                      t_end=0.1, dt=1e-2)


_ARRAY_PROBLEMS = {
    "example52": builtin_problem("example52"),
    "quadratic9": make_quadratic(np.linspace(0.5, 4.0, 9)),
}

_FINITE = st.floats(min_value=-5.0, max_value=5.0)


class TestArrayStateMatchesReference:
    """At d = 2 and d = 9 a power forcing is a float magnitude per stage
    times a unit direction drawn once per step or once per run; records,
    blow-up times and messages equal the reference, which draws every
    stage's forcing through sample_continuous, bit for bit."""

    @settings(max_examples=150, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ARRAY_PROBLEMS)),
        forcing=st.sampled_from(["e1", "random", "tuple", "gauss"]),
        c0=st.sampled_from([0.3, 1e16]),  # 1e16 blows up within a few steps
        alpha=st.floats(min_value=0.05, max_value=3.0),
        beta=st.floats(min_value=0.0, max_value=2.0),
        t0=st.floats(min_value=0.1, max_value=5.0),
        dt=st.floats(min_value=1e-3, max_value=0.2),
        n_steps=st.integers(min_value=1, max_value=30),
        record_every=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_bitwise_equal(self, name, forcing, c0, alpha, beta, t0, dt, n_steps,
                           record_every, seed, data):
        problem = _ARRAY_PROBLEMS[name]
        dim = problem.dimension
        vectors = st.lists(_FINITE, min_size=dim, max_size=dim)
        x0, v0 = data.draw(vectors, label="x0"), data.draw(vectors, label="v0")
        pert = {
            "e1": lambda: PerturbationSpec.power(c0, 1.5),
            "random": lambda: PerturbationSpec.power(c0, 0.5, direction="random", seed=seed),
            "tuple": lambda: PerturbationSpec.power(
                c0, 1.0, direction=tuple(data.draw(vectors.filter(any), label="direction"))),
            "gauss": lambda: PerturbationSpec.gaussian(0.5, 0.1, seed=seed),
        }[forcing]()
        args = (problem, alpha, beta, pert, x0, v0)
        kwargs = dict(t0=t0, t_end=t0 + n_steps * dt, dt=dt, record_every=record_every)
        assert _outcome(integrate, *args, **kwargs) == _outcome(
            _integrate_reference, *args, **kwargs)


class TestRecordsAgainstMinimizer:
    """integrate() states x* once per run; records against a nonzero x*, on
    floats at d = 1 and on arrays, have the reference's bits."""

    @pytest.mark.parametrize("problem", [
        shifted_quadratic([2.5], [1.5]),
        shifted_quadratic([0.5, 1.5, 3.0], [1.0, -2.0, 0.5]),
        shifted_quadratic([0.5, 1.5, 3.0], [0.0, -2.0, 0.0]),
    ], ids=["shifted1", "shifted3", "partly-zero3"])
    @pytest.mark.parametrize("pert", [PerturbationSpec.none(),
                                      PerturbationSpec.gaussian(0.5, 0.1, seed=4)],
                             ids=["none", "gauss"])
    def test_bitwise_equal(self, problem, pert):
        dim = problem.dimension
        for x0, v0 in (([3.0] * dim, [0.0] * dim), ([-0.0] * dim, [-0.0] * dim)):
            args = (problem, 1.0, 0.1, pert, x0, v0)
            kwargs = dict(t0=0.5, t_end=2.5, dt=0.05, record_every=3)
            assert _outcome(integrate, *args, **kwargs) == _outcome(
                _integrate_reference, *args, **kwargs)


class TestRecordCountBound:
    """A run keeps at most MAX_RECORDS records; integrate refuses a longer one
    before it starts a step, rather than run until memory is gone."""

    @pytest.mark.parametrize("t0, t_end, dt, record_every", [
        (0.0, 1e300, 1.0, 1), (0.0, 1e15, 1.0, 1), (1.0, 2.0, 2.0**-60, 1),
        (0.0, dynamics.MAX_RECORDS + 2.0, 1.0, 1), (0.0, 1e12, 1e-3, 10**8),
    ])
    def test_integrate_refuses(self, sine_well, t0, t_end, dt, record_every):
        with pytest.raises(ValueError, match=r"^the record count \(t_end - t0\)/"
                                             r"\(dt\*record_every\) must be at most "
                                             r"1000000, got "):
            integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(), [3.0], [0.0],
                      t0=t0, t_end=t_end, dt=dt, record_every=record_every)

    @pytest.mark.parametrize("t_end, shown", [("1e300", "1e+300"), ("1e15", "1e+15")])
    def test_ode_is_a_usage_error(self, capsys, t_end, shown):
        code = main(["ode", "--alpha", "1", "--x0", "3", "--t-end", t_end, "--dt", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: the record count (t_end - t0)/(dt*record_every) must be "
                       f"at most 1000000, got {shown}\n")


def _value_error(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


class TestPowerForcingErrors:
    """Power forcing refuses what sample_continuous refuses, with its message."""

    @pytest.mark.parametrize("name", ["example51", "example52"])
    @pytest.mark.parametrize("spec, t0, message", [
        (PerturbationSpec.power(0.1, 1.0), 0.0,
         "power-decay perturbation needs t > 0, got 0.0"),
        (PerturbationSpec.power(0.1, 1.0, direction="random"), -1.0,
         "power-decay perturbation needs t > 0, got -1.0"),
        # 0.1^400 underflows to 0, so c0/t^p is inf at the first stage
        (PerturbationSpec.power(1.0, 400.0), 0.1,
         "power perturbation c0/t^p = 1/0 = inf is not finite at t = 0.1, p = 400"),
        (PerturbationSpec.power(1.0, 1.0, direction=(1.0, 1.0, 1.0)), 1.0,
         "perturbation direction has length 3, expected {dim}"),
        # the first stage's magnitude is refused before its direction
        (PerturbationSpec.power(1.0, 400.0, direction=(1.0, 1.0, 1.0)), 0.1,
         "power perturbation c0/t^p = 1/0 = inf is not finite at t = 0.1, p = 400"),
    ], ids=["t0-zero", "t0-negative", "underflow", "direction-length", "underflow-first"])
    def test_message(self, name, spec, t0, message):
        problem = builtin_problem(name)
        dim = problem.dimension
        message = message.format(dim=dim)
        args = (problem, 1.0, 0.1, spec, [3.0] * dim, [0.0] * dim)
        kwargs = dict(t0=t0, t_end=t0 + 1.0, dt=1e-2)
        assert _value_error(integrate, *args, **kwargs) == message
        assert _value_error(_integrate_reference, *args, **kwargs) == message
        assert _value_error(sample_continuous, spec, t0, dim, step=0) == message


class TestFloatFormMatchesFallback:
    """example51's float form gives the records, blow-up time and message of
    the same problem without it, whose array func and grad integrate() wraps."""

    @pytest.mark.parametrize("forcing, ending", [
        ("none", "records"), ("e1", "records"), ("random", "records"),
        ("gauss", "records"), ("blow-up", "divergence"),
    ])
    def test_bitwise_equal(self, forcing, ending):
        example51 = builtin_problem("example51")
        fallback = dataclasses.replace(example51, float_form=None)
        pert = {
            "none": PerturbationSpec.none(),
            "e1": PerturbationSpec.power(0.1, 1.0),
            "random": PerturbationSpec.power(0.3, 0.5, direction="random", seed=7),
            "gauss": PerturbationSpec.gaussian(0.5, 0.1, seed=7),
            "blow-up": PerturbationSpec.power(1e16, 1.0),
        }[forcing]
        kwargs = dict(t0=1.0, t_end=6.0, dt=1e-2, record_every=1)
        outcome = _outcome(integrate, example51, 1.0, 0.1, pert, [3.0], [0.5], **kwargs)
        assert outcome == _outcome(integrate, fallback, 1.0, 0.1, pert, [3.0], [0.5], **kwargs)
        assert outcome[0] == ending


class TestRandomDirectionForcing:
    """Power-law forcing along a random direction: the direction is drawn once
    per step, the magnitude c0/t^p at each stage time."""

    ARGS = ["ode", "--problem", "example51", "--alpha", "1", "--x0", "3",
            "--t-end", "3", "--perturb", "power:c0=0.1,p=1,dir=random", "--quiet"]

    def test_cli_runs(self):
        assert main(self.ARGS) == 0

    def test_seeded(self):
        basin = builtin_problem("example52")

        def trajectory(seed):
            spec = PerturbationSpec.power(0.1, 1.0, direction="random", seed=seed)
            return integrate(basin, 1.0, 0.1, spec, [3.0, 3.0], [0.0, 0.0],
                             t0=1.0, t_end=3.0, dt=1e-2)

        a, b, c = trajectory(5), trajectory(5), trajectory(6)
        assert _records_digest(a) == _records_digest(b)
        assert _records_digest(a) != _records_digest(c)


class TestModuleAttributeContract:
    """integrate() looks sample_continuous up on the dynamics module at call
    time, and a random power direction calls counter_standard_normal through
    the perturbations module; the benchmark's traced run replaces those names.
    Gaussian forcing is one sample_continuous call per step; power forcing is
    float magnitudes per stage and makes none."""

    @pytest.mark.parametrize("spec, per_step", [
        (PerturbationSpec.gaussian(0.01, 0.01, seed=1), 1),  # frozen per step
        (PerturbationSpec.power(0.1, 1.0), 0),  # float magnitudes per stage
        (PerturbationSpec.power(0.1, 1.0, direction="random", seed=1), 0),
        (PerturbationSpec.power(0.1, 1.0, direction=(-2.0,)), 0),
    ])
    def test_sample_calls(self, monkeypatch, sine_well, spec, per_step):
        calls = []
        original = dynamics.sample_continuous

        def counting(*args, **kwargs):
            calls.append(kwargs["step"])
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, "sample_continuous", counting)
        integrate(sine_well, 1.0, 0.1, spec, [3.0], [0.0], t0=1.0, t_end=1.1, dt=1e-2)
        assert calls == [j for j in range(10) for _ in range(per_step)]

    @pytest.mark.parametrize("problem", [
        builtin_problem("example51"), *_ARRAY_PROBLEMS.values(),
    ], ids=["d1", "d2", "d9"])
    @pytest.mark.parametrize("direction", ["e1", "random"])
    def test_normal_calls(self, monkeypatch, problem, direction):
        # a random direction is one standard normal per step, counter j + 1
        calls = []
        original = perturbations.counter_standard_normal

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(perturbations, "counter_standard_normal", counting)
        dim = problem.dimension
        spec = PerturbationSpec.power(0.1, 1.0, direction=direction, seed=5)
        integrate(problem, 1.0, 0.1, spec, [3.0] * dim, [0.0] * dim,
                  t0=1.0, t_end=1.1, dt=1e-2)
        assert calls == ([(5, j + 1, dim) for j in range(10)] if direction == "random" else [])


class TestRateCertificate:
    def test_constant_at_minimizer(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [0.0], [0.0], t_end=1.0, dt=1e-2)
        passed, worst = rate_certificate(recs, 24.0 / 49.0, sine_well.kappa)
        assert passed
        assert worst == 0.0

    def test_t31_run_passes(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [3.0], [0.0], t_end=10.0, dt=1e-3, record_every=10)
        passed, worst = rate_certificate(recs, 24.0 / 49.0, sine_well.kappa)
        assert passed
        assert worst >= -1e-6 * recs[0].energy

    def test_inflated_energy_fails(self, sine_well):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [3.0], [0.0], t_end=5.0, dt=1e-2)
        doctored = list(recs[:-1])
        last = recs[-1]
        doctored.append(TrajectoryRecord(
            t=last.t, x=last.x, v=last.v, value_error=last.value_error,
            traj_error=last.traj_error, speed=last.speed,
            energy=recs[0].energy * 2.0,
        ))
        passed, worst = rate_certificate(doctored, 24.0 / 49.0, sine_well.kappa)
        assert not passed
        assert worst < 0

    @pytest.mark.parametrize("bad", [slice(None), slice(3, 4)], ids=["all", "one"])
    def test_nan_energy_fails(self, sine_well, bad):
        recs = integrate(sine_well, 1.0, 0.1, PerturbationSpec.none(),
                         [3.0], [0.0], t_end=0.1, dt=1e-2)
        recs[bad] = [dataclasses.replace(r, energy=math.nan) for r in recs[bad]]
        passed, worst = rate_certificate(recs, 24.0 / 49.0, sine_well.kappa)
        assert not passed
        assert math.isnan(worst)

    def test_empty(self):
        with pytest.raises(ValueError, match="^rate_certificate needs at least one record$"):
            rate_certificate([], 0.5, 0.1)
