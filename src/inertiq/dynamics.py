"""Continuous-time inertial dynamics with implicit Hessian-driven damping.

Simulates the second-order system

    x'' + alpha x' + grad f(x + beta x') = eps(t)

as a first-order system in (x, v) with a fixed-step classical 4th-order
Runge-Kutta scheme.  Fixed stepping (no adaptivity) keeps runs bitwise
deterministic, which the golden-CSV and perturbation-reproducibility
contracts rely on.  One vector field and one stage combination serve every
dimension; at d = 1 the state is two Python floats
(:func:`inertiq.problems.state_ops`), and a record's values come from the
problem's float form where it has one; only the record's own x and v are
1-element arrays.  The perturbation is one additive term of the acceleration.
Power-law forcing is a float magnitude c0/t^p at each stage time (stages 2
and 3 share one) times a unit direction, drawn once per run for e1 or an
explicit vector and once per step for a random one; a finite m >= 0 times
1.0 or 0.0 is exact, so this equals drawing the whole vector per stage.
Gaussian draws are frozen once per step so stage-inconsistent noise cannot
destroy the integrator's order.

Evaluating the gradient at the look-ahead point x + beta*x' is what
produces the implicit Hessian damping: its first-order expansion is
grad f(x) + beta Hess f(x) x', so the curvature term appears without ever
forming a Hessian.  beta = 0 recovers the classical heavy-ball flow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analysis import _continuous_energy, continuous_energy  # noqa: F401 (perfbench wraps it)
from .errors import BLOWUP_NORM, Divergence
from .perturbations import (
    PerturbationSpec,
    _positive_time,
    power_direction,
    power_magnitude,
    sample_continuous,
)
from .problems import Problem, Vector, as_point, state_ops

MAX_RECORDS = 10**6  # the most records one integrate() call keeps


class TrajectoryRecord(NamedTuple):
    """Instrumented snapshot along a trajectory, a named tuple like
    :class:`inertiq.optimizers.IterateRecord`.

    value_error is f(x + beta*v) - f* (raw value if f* unknown), traj_error
    is |x - x*| (nan if x* unknown), speed is |v|, energy the continuous
    Lyapunov energy (nan if x* unknown).
    """

    t: float
    x: Vector
    v: Vector
    value_error: float
    traj_error: float
    speed: float
    energy: float


def _accel(grad, alpha: float, beta: float, x, v, eps=None):
    """dv = -alpha v - grad(x + beta v) [+ eps], on Python floats in a
    one-dimensional :func:`integrate` and on arrays otherwise."""
    a = -alpha * v - grad(x + beta * v)
    return a if eps is None else a + eps


def integrate(
    problem: Problem,
    alpha: float,
    beta: float,
    pert: PerturbationSpec,
    x0,
    v0,
    t0: float = 0.0,
    t_end: float = 10.0,
    dt: float = 1e-3,
    record_every: int = 1,
) -> list[TrajectoryRecord]:
    """Integrate the damped system over [t0, t_end] with fixed step dt.

    Records every ``record_every``-th step plus the initial and final
    states.  Raises :class:`Divergence` (with the blow-up time) as soon as
    |x| or |v| exceeds 1e12, and refuses a run that would keep more than
    ``MAX_RECORDS`` records.  Pure function of its arguments including the
    perturbation seed.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if not (t_end > t0):
        raise ValueError("t_end must exceed t0")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")
    if not (alpha > 0) or beta < 0:
        raise ValueError("integrate needs alpha > 0 and beta >= 0")
    count = (t_end - t0) / dt
    for label, value in (("t0", t0), ("t_end", t_end), ("dt", dt), ("alpha", alpha),
                         ("beta", beta), ("the step count (t_end - t0)/dt", count)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value}")
    # Records are what a run keeps, about 0.5 kB each at d = 1: bound their
    # number before the first step rather than run until memory is gone.
    if count / record_every > MAX_RECORDS:
        raise ValueError("the record count (t_end - t0)/(dt*record_every) must be at most "
                         f"{MAX_RECORDS}, got {count / record_every:g}")

    dim = problem.dimension
    ops = state_ops(problem)
    grad, state, peak = ops.grad, ops.state, ops.peak
    # Private copies, rebound to fresh states each step: records own theirs.
    x, v = state(as_point(x0, dim).copy()), state(as_point(v0, dim).copy())
    n_steps = max(1, int(round(count)))
    half = 0.5 * dt
    sixth = dt / 6.0

    power = not pert.is_zero and pert.model == "power_decay"
    gaussian = not pert.is_zero and pert.model == "gaussian_decay"
    redraw = power and pert.direction == "random"  # a new direction every step
    e1 = e2 = e4 = None  # the forcing at stage 1, stages 2 and 3, and stage 4

    func, point, sqnorm = ops.func, ops.point, ops.sqnorm
    fstar = problem.min_value
    known = problem.minimizer is not None and fstar is not None
    xstar = state(problem.minimizer) if known else None

    def make_record(t: float, x, v) -> TrajectoryRecord:
        """The record of state (x, v) at time t, which owns ``point`` copies."""
        lookahead = func(x + beta * v)
        if known:
            value_error = lookahead - fstar
            diff = x - xstar
            traj_error = math.sqrt(sqnorm(diff))
            energy = _continuous_energy(problem, alpha, value_error, diff, v, sqnorm)
        else:
            value_error, traj_error, energy = lookahead, float("nan"), float("nan")
        return TrajectoryRecord(t, point(x), point(v), value_error, traj_error,
                                math.sqrt(sqnorm(v)), energy)

    records = [make_record(t0, x, v)]
    if power:  # the first stage time, as the loop computes it; later ones are larger
        _positive_time(t0 + 0 * dt)
    for j in range(n_steps):
        t = t0 + j * dt
        if gaussian:  # frozen per step
            e1 = e2 = e4 = state(sample_continuous(pert, t, dim, step=j))
        elif power:  # c0/t^p at each stage time times one unit direction
            m1 = power_magnitude(pert, t)
            m2 = power_magnitude(pert, t + half)
            m4 = power_magnitude(pert, t + dt)
            if redraw or j == 0:  # after the magnitudes, whose error comes first
                unit = state(power_direction(pert, j + 1, dim))
            e1, e2, e4 = m1 * unit, m2 * unit, m4 * unit
        k1v = _accel(grad, alpha, beta, x, v, e1)
        x2 = x + half * v
        v2 = v + half * k1v
        k2v = _accel(grad, alpha, beta, x2, v2, e2)
        x3 = x + half * v2
        v3 = v + half * k2v
        k3v = _accel(grad, alpha, beta, x3, v3, e2)
        x4 = x + dt * v3
        v4 = v + dt * k3v
        k4v = _accel(grad, alpha, beta, x4, v4, e4)
        x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t_next = t0 + (j + 1) * dt
        xmax, vmax = peak(x), peak(v)
        if not (xmax <= BLOWUP_NORM and vmax <= BLOWUP_NORM):
            raise Divergence(
                f"trajectory blew up at t = {t_next:.6g} (|x|={xmax:.3g}, |v|={vmax:.3g})",
                when=t_next,
            )
        if (j + 1) % record_every == 0 or j + 1 == n_steps:
            records.append(make_record(t_next, x, v))
    return records


def rate_certificate(
    records: list[TrajectoryRecord], lam: float, kappa: float
) -> tuple[bool, float]:
    """Check E(t) <= E(t0) exp(-(lam*kappa/2)(t - t0)) at every record.

    Returns (passed, worst_slack) where slack at a record is the bound
    minus the observed energy (negative or NaN means violation; one NaN
    makes worst_slack NaN).  Tolerance is max(1e-6, 1e-6 * E(t0)).
    """
    if not records:
        raise ValueError("rate_certificate needs at least one record")
    t0 = records[0].t
    e0 = records[0].energy
    rate = 0.5 * lam * kappa
    slacks = [float(e0 * math.exp(-rate * (rec.t - t0)) - rec.energy) for rec in records]
    worst = math.nan if any(map(math.isnan, slacks)) else min(slacks)
    tol = max(1e-6, 1e-6 * e0)
    return bool(worst >= -tol), worst
