"""Discrete inertial algorithms with uniform recording and stopping rules.

The five methods are one momentum recursion.  With d = x_k - x_{k-1} and
g_k = grad f(x_k):

    y_k     = x_k + alpha d  [- theta (g_k - g_{k-1})]
    x_{k+1} = y_k - h grad f(p_k)  [+ h eps_k]

``METHODS`` holds what tells them apart: the gradient point p_k and whether
the bracketed Hessian correction applies.  The step size h is s for IAA,
whose beta places its look-ahead point z_k = x_k + beta d, and beta for the
baselines, so a perturbation enters at each method's own step scale.  IAA
discretizes the implicit-Hessian-damped flow with step sqrt(s); the
continuous coefficients map to the discrete ones as
alpha_disc = 1 - alpha_cont*sqrt(s), beta_disc = beta_cont/sqrt(s).
Startup convention x_{-1} := x_0, so momentum terms vanish when x_0 = x_1.
``run`` records, counts and stops every iterate, x_0 and x_1 included, in
one loop.  Each record evaluates g_k once and keeps it only for the steps
that read it (HBM, HBM_H, NAG_H), and g_{k-1} only for HBM_H and NAG_H;
g_0 is record 0's gradient.  At d = 1 the loop holds x_{k-1}, x_k, g_k,
g_{k-1} and eps_k as Python floats (:func:`inertiq.problems.state_ops`),
the same IEEE-754 operations as 1-element arrays, and takes f and grad f
from the problem's float form where it has one; only a record's own x is
a fresh 1-element array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from .errors import BLOWUP_NORM, Divergence, NonFiniteIterate, OutOfBox
from .perturbations import PerturbationSpec, sample_discrete
from .problems import Problem, Vector, as_point, state_ops


class Method(NamedTuple):
    """What one variant's update looks like in the shared recursion."""

    grad_at: str  # "x" (x_k), "y" (momentum point y_k) or "z" (IAA's z_k)
    hessian_correction: bool

    @property
    def step_size(self) -> str:
        """Name of the coefficient h that scales the gradient and eps_k."""
        return "s" if self.grad_at == "z" else "beta"

    def grad_evals(self, k: int) -> int:
        """Algorithmic gradient evaluations through iterate k: none for x_0 and
        x_1, then g_0 if the correction reads it, and per step grad f(p_k) plus
        g_k when the correction needs it at another point."""
        if k < 2:
            return 0
        per_step = 2 if self.hessian_correction and self.grad_at != "x" else 1
        return int(self.hessian_correction) + per_step * (k - 1)


METHODS = {
    "IAA": Method("z", False),  # extrapolated gradient, the paper's method
    "HBM": Method("x", False),  # heavy ball
    "NAG": Method("y", False),  # Nesterov
    "HBM_H": Method("x", True),
    "NAG_H": Method("y", True),
}
VARIANTS = tuple(METHODS)
# The spelling of each variant in ``inertiq opt --algo`` and config files.
ALGO_NAMES = {variant.lower().replace("_", "-"): variant for variant in VARIANTS}


@dataclass(frozen=True)
class AlgorithmConfig:
    """Variant tag plus coefficients; unused fields are ignored per variant.

    IAA uses (alpha, beta, s); HBM/NAG use (alpha, beta) with beta the step
    size; HBM_H/NAG_H additionally use theta.
    """

    variant: str
    alpha: float = 0.0
    beta: float = 0.0
    theta: float = 0.0
    s: float | None = None
    perturb: PerturbationSpec = field(default_factory=PerturbationSpec)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        if not (self.alpha >= 0 and self.beta >= 0 and self.theta >= 0):
            raise ValueError("alpha, beta, theta must be nonnegative")
        step_size = METHODS[self.variant].step_size
        h = getattr(self, step_size)
        if h is None or not (h > 0):
            raise ValueError(f"{self.variant} needs a positive step size {step_size}")


@dataclass(frozen=True)
class StoppingRule:
    """Stop on value_error <= tol (grad_norm if f* unknown) or at max_iter.

    tol = None disables the tolerance trigger (fixed-horizon runs).
    """

    tol: float | None = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if self.tol is not None and not (self.tol > 0):
            raise ValueError("tol must be positive (or None)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


@dataclass(frozen=True)
class IterateRecord:
    """Per-iterate instrumentation.

    value_error is f(x_k) - f* when f* is known, else the raw value; dist
    is |x_k - x*| (nan if unknown); energy is the discrete Lyapunov energy
    with c = beta/(alpha*s) for IAA and nan otherwise; n_grad_evals counts
    cumulative algorithmic gradient evaluations (``Method.grad_evals``).
    """

    k: int
    x: Vector
    value_error: float
    grad_norm: float
    dist: float
    step: float
    energy: float
    n_grad_evals: int = 0


@dataclass(frozen=True)
class RunResult:
    """Records plus the stopping trigger ("tol" or "max_iter") and totals."""

    records: list[IterateRecord]
    trigger: str
    n_grad_evals: int
    box_warnings: tuple[str, ...] = ()

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]

    def iterations(self) -> int:
        return self.records[-1].k


def step_iaa(
    grad: Callable[[Vector], Vector],
    cfg: AlgorithmConfig,
    x_k: Vector,
    x_km1: Vector,
    eps_k: Vector | None = None,
) -> Vector:
    """One IAA update with gradient ``grad``; pure function of its arguments.

    Points, gradients and eps_k are all float arrays or all Python floats.
    """
    d = x_k - x_km1
    y = x_k + cfg.alpha * d
    z = x_k + cfg.beta * d
    x_next = y - cfg.s * grad(z)
    if eps_k is not None and np.count_nonzero(eps_k):
        x_next = x_next + cfg.s * eps_k
    return x_next


def step_baseline(
    grad: Callable[[Vector], Vector],
    cfg: AlgorithmConfig,
    x_k: Vector,
    x_km1: Vector,
    g_k: Vector,
    g_km1: Vector,
    eps_k: Vector | None = None,
) -> Vector:
    """One baseline update from x_k, x_{k-1}, g_k and g_{k-1}; returns x_{k+1}.

    g_k = grad f(x_k) is read, never evaluated: the only ``grad`` call is at
    y_k for NAG/NAG_H.  Points, gradients and eps_k are all float arrays or
    all Python floats, as ``run`` passes them: on arrays the update is built
    in place on one fresh array, and on floats the same operations rebind y.
    """
    method = METHODS[cfg.variant]
    if method.grad_at == "z":
        raise ValueError(f"step_baseline got variant {cfg.variant!r}")
    # In place on one fresh array: fewer 512 KB temporaries at large d
    # (README, "Performance"), and the same IEEE-754 operations as
    # x_k + alpha*d - beta*g, so the same bits.  On floats each one rebinds y.
    y = x_k - x_km1
    y *= cfg.alpha
    y += x_k
    if method.hessian_correction:
        y -= cfg.theta * (g_k - g_km1)
    y -= cfg.beta * (g_k if method.grad_at == "x" else grad(y))
    if eps_k is not None and np.count_nonzero(eps_k):
        y += cfg.beta * eps_k
    return y


def validate_against_box(problem: Problem, cfg: AlgorithmConfig) -> list[str]:
    """Warnings (not errors) when IAA coefficients leave the certified box,
    as ``analysis.rate_constants`` decides it.

    The baselines carry no certified box; exploration outside a box is a
    legitimate use, so callers get a best-effort run either way.
    """
    if cfg.variant != "IAA":
        return []
    theorem = "T41" if cfg.perturb.is_zero else "T42"
    try:
        analysis.rate_constants(problem, theorem, cfg.alpha, cfg.beta, cfg.s)
    except OutOfBox as exc:
        return [f"outside {theorem} box: {exc}; run is uncertified"]
    return []


def run(
    problem: Problem,
    cfg: AlgorithmConfig,
    x0,
    x1=None,
    stop: StoppingRule | None = None,
) -> RunResult:
    """Run the configured algorithm from (x0, x1); x1 defaults to x0.

    Records every iterate including k = 0 and 1 (step of record 0 is 0 by
    the x_{-1} := x_0 convention).  Deterministic given the perturbation
    seed.  Raises :class:`Divergence` when |x| exceeds 1e12 and
    :class:`NonFiniteIterate` (with the last finite k) on NaN/Inf.
    """
    stop = stop or StoppingRule()
    dim = problem.dimension
    grad, func, state, point, peak, sqnorm = state_ops(problem)
    x_prev = state(as_point(x0, dim).copy())
    x_cur = state(as_point(x1 if x1 is not None else x0, dim).copy())

    box_warnings = validate_against_box(problem, cfg)
    for msg in box_warnings:
        warnings.warn(msg, stacklevel=2)

    fstar = problem.min_value
    xstar = None if problem.minimizer is None else state(problem.minimizer)
    use_value = fstar is not None
    c_energy = None
    if cfg.variant == "IAA" and use_value and cfg.alpha > 0:
        c_energy = cfg.beta / (cfg.alpha * cfg.s)
    method = METHODS[cfg.variant]
    # HBM reads g_k, the corrected variants g_k and g_{k-1}; IAA and NAG neither.
    reads_grad = method.grad_at == "x" or method.hessian_correction
    keeps_prev = method.hessian_correction
    records: list[IterateRecord] = []

    def make_record(k: int, x: Vector, x_before: Vector) -> Vector | None:
        """Append iterate k's record; return g_k = grad f(x_k) if the step reads it."""
        fx = func(x)
        gx = grad(x)
        value_error = fx - fstar if use_value else fx
        step = math.sqrt(sqnorm(x - x_before))
        dist = math.sqrt(sqnorm(x - xstar)) if xstar is not None else float("nan")
        if c_energy is not None and c_energy > 0:
            energy = analysis._discrete_energy(value_error, c_energy, step)
        elif c_energy == 0.0:
            energy = value_error
        else:
            energy = float("nan")
        records.append(IterateRecord(
            k=k,
            # The record owns its array: a fresh one at d = 1, else a private
            # copy (x_0, x_1) or a fresh step result, never written afterwards.
            x=point(x),
            value_error=value_error,
            grad_norm=math.sqrt(sqnorm(gx)),
            dist=dist,
            step=step,
            energy=energy,
            n_grad_evals=method.grad_evals(k),
        ))
        return gx if reads_grad else None

    def hit_tol(rec: IterateRecord) -> bool:
        if stop.tol is None:
            return False
        metric = rec.value_error if use_value else rec.grad_norm
        return metric <= stop.tol

    g_cur = make_record(0, x_prev, x_prev)
    g_prev, g_cur = (g_cur if keeps_prev else None), make_record(1, x_cur, x_prev)
    sample_noise = not cfg.perturb.is_zero
    k = 1
    while k < stop.max_iter and not hit_tol(records[-1]):
        eps = state(sample_discrete(cfg.perturb, k, dim)) if sample_noise else None
        if cfg.variant == "IAA":
            x_next = step_iaa(grad, cfg, x_cur, x_prev, eps)
        else:
            x_next = step_baseline(grad, cfg, x_cur, x_prev, g_cur, g_prev, eps)
        # One reduction guards both: NaN and inf propagate through max.
        xmax = peak(x_next)
        if not math.isfinite(xmax):
            raise NonFiniteIterate(
                f"iterate {k + 1} is non-finite; last finite k = {k}",
                last_finite_k=k,
            )
        if xmax > BLOWUP_NORM:
            raise Divergence(
                f"iterates blew up at k = {k + 1} (|x| = {xmax:.3g})", when=k + 1
            )
        k += 1
        x_prev, x_cur = x_cur, x_next
        g_prev, g_cur = (g_cur if keeps_prev else None), make_record(k, x_cur, x_prev)
    # tol wins over max_iter when the last record meets both.
    trigger = "tol" if hit_tol(records[-1]) else "max_iter"
    return RunResult(records, trigger, records[-1].n_grad_evals, tuple(box_warnings))
