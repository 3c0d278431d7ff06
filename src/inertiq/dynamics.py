"""Continuous-time inertial dynamics with implicit Hessian-driven damping.

Simulates the second-order system

    x'' + alpha x' + grad f(x + beta x') = eps(t)

as a first-order system in (x, v) with a fixed-step classical 4th-order
Runge-Kutta scheme.  Fixed stepping (no adaptivity) keeps runs bitwise
deterministic, which the golden-CSV and perturbation-reproducibility
contracts rely on.  One vector field and one stage combination serve every
dimension; at d = 1 the state is two Python floats, the IEEE-754 operations
of 1-element arrays without numpy's per-call dispatch, and records still
hold 1-element arrays.  The perturbation is one additive term of the
acceleration.  Power-law magnitudes are evaluated at every stage time (a
random direction is drawn once per step); Gaussian draws are frozen once
per step so stage-inconsistent noise cannot destroy the integrator's order.

Evaluating the gradient at the look-ahead point x + beta*x' is what
produces the implicit Hessian damping: its first-order expansion is
grad f(x) + beta Hess f(x) x', so the curvature term appears without ever
forming a Hessian.  beta = 0 recovers the classical heavy-ball flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _continuous_energy, continuous_energy  # noqa: F401 (perfbench wraps it)
from .errors import BLOWUP_NORM, DimensionMismatch, Divergence, EmptyTrajectory, NonFiniteState
from .perturbations import PerturbationSpec, sample_continuous
from .problems import Problem, Vector, as_point


@dataclass(frozen=True)
class OdeState:
    t: float
    x: Vector
    v: Vector


@dataclass(frozen=True)
class TrajectoryRecord:
    """Instrumented snapshot along a trajectory.

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


def rhs(
    problem: Problem,
    alpha: float,
    beta: float,
    pert: PerturbationSpec,
    state: OdeState,
    step: int | None = None,
) -> tuple[Vector, Vector]:
    """Right-hand side (dx, dv) = (v, -alpha v - grad f(x + beta v) + eps(t)).

    eps(t) is ``sample_continuous(pert, t, dim, step)``.  Gaussian noise and
    random-direction power forcing need the integrator step index ``step``,
    as in :func:`integrate`: their draws are frozen per step.
    """
    if not (alpha > 0) or beta < 0:
        raise ValueError("rhs needs alpha > 0 and beta >= 0")
    x, v = np.asarray(state.x, dtype=float), np.asarray(state.v, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise NonFiniteState(f"state at t = {state.t} contains NaN/Inf")
    eps = None if pert.is_zero else sample_continuous(pert, state.t, problem.dimension, step=step)
    return v, _accel(problem.grad, alpha, beta, x, v, eps)


def _accel(grad, alpha: float, beta: float, x, v, eps=None):
    """dv = -alpha v - grad(x + beta v) [+ eps], on Python floats in a
    one-dimensional :func:`integrate` and on arrays otherwise."""
    a = -alpha * v - grad(x + beta * v)
    return a if eps is None else a + eps


def _make_record(
    problem: Problem, alpha: float, beta: float, t: float, x: Vector, v: Vector
) -> TrajectoryRecord:
    lookahead = float(problem.func(x + beta * v))
    if problem.minimizer is not None and problem.min_value is not None:
        value_error = lookahead - problem.min_value
        diff = x - problem.minimizer
        traj_error = math.sqrt(diff.dot(diff))
        energy = _continuous_energy(problem, alpha, value_error, diff, v)
    else:
        value_error, traj_error, energy = lookahead, float("nan"), float("nan")
    return TrajectoryRecord(t, x, v, value_error, traj_error, math.sqrt(v.dot(v)), energy)


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
    |x| or |v| exceeds 1e12.  Pure function of its arguments including the
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

    dim = problem.dimension
    # Private copies, rebound to fresh arrays each step: records own theirs.
    x, v = as_point(x0, dim).copy(), as_point(v0, dim).copy()
    if dim == 1:
        x, v, point, peak = x.item(), v.item(), (lambda s: np.array([s])), abs

        def grad(s):
            g = problem.grad(np.array([s]))
            if g.size != 1:
                raise DimensionMismatch(f"gradient of a 1-D problem has {g.size} elements")
            return g.item()
    else:
        grad, point, peak = problem.grad, (lambda a: a), (lambda a: float(np.max(np.abs(a))))
    n_steps = max(1, int(round((t_end - t0) / dt)))
    half = 0.5 * dt
    sixth = dt / 6.0

    per_stage = not pert.is_zero and pert.model == "power_decay"  # eps(t) at each stage
    per_step = not pert.is_zero and pert.model == "gaussian_decay"  # frozen per step
    frozen = None

    def eps_at(t, j):
        eps = sample_continuous(pert, t, dim, step=j)
        return eps.item() if dim == 1 else eps

    def accel(j, tt, xx, vv):
        return _accel(grad, alpha, beta, xx, vv, eps_at(tt, j) if per_stage else frozen)

    records = [_make_record(problem, alpha, beta, t0, point(x), point(v))]
    for j in range(n_steps):
        t = t0 + j * dt
        if per_step:
            frozen = eps_at(t, j)
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
        xmax, vmax = peak(x), peak(v)
        if not (xmax <= BLOWUP_NORM and vmax <= BLOWUP_NORM):
            raise Divergence(
                f"trajectory blew up at t = {t_next:.6g} (|x|={xmax:.3g}, |v|={vmax:.3g})",
                when=t_next,
            )
        if (j + 1) % record_every == 0 or j + 1 == n_steps:
            records.append(_make_record(problem, alpha, beta, t_next, point(x), point(v)))
    return records


def rate_certificate(
    records: list[TrajectoryRecord], lam: float, kappa: float
) -> tuple[bool, float]:
    """Check E(t) <= E(t0) exp(-(lam*kappa/2)(t - t0)) at every record.

    Returns (passed, worst_slack) where slack at a record is the bound
    minus the observed energy (negative means violation).  Tolerance is
    max(1e-6, 1e-6 * E(t0)).
    """
    if not records:
        raise EmptyTrajectory("rate_certificate needs at least one record")
    t0 = records[0].t
    e0 = records[0].energy
    rate = 0.5 * lam * kappa
    worst = float("inf")
    for rec in records:
        bound = e0 * math.exp(-rate * (rec.t - t0))
        worst = min(worst, float(bound - rec.energy))
    tol = max(1e-6, 1e-6 * e0)
    return bool(worst >= -tol), worst
