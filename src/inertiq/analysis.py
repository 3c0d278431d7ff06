"""Admissible parameter boxes, certified rate constants, assumption checks,
and the Lyapunov energies for both time regimes.

The four theorem tags and what they certify:

T31  continuous system, no perturbation: exponential energy decay with
     lambda = 2*alpha/(kappa+4) and rate lambda*kappa/2.
T32  continuous system with square-integrable perturbation: decay rates
     inherited from the perturbation's power law.
T41  discrete algorithm, no perturbation: per-step energy contraction
     E_{k+1} <= (1-rho) E_k.
T42  discrete algorithm with perturbation: E_{k+1} <= (1-sigma) E_k + N |eps_k|^2.

Interval endpoints follow each theorem statement exactly (alpha upper bound
inclusive for T31/T32, strict for T41/T42; beta interval closed at 0 for
T31/T32, open for T41/T42).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBox
from .problems import Problem, as_point, rows_form

THEOREMS = ("T31", "T32", "T41", "T42")

# Most negative inequality slack tolerated before counting a violation;
# strict inequalities at machine precision would false-positive near x*.
SLACK_TOL = -1e-9


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        if self.hi < self.lo:
            return True
        return self.hi == self.lo and (self.lo_open or self.hi_open)

    def contains(self, x: float) -> bool:
        lo_ok = x > self.lo if self.lo_open else x >= self.lo
        hi_ok = x < self.hi if self.hi_open else x <= self.hi
        return lo_ok and hi_ok

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo:.6g}, {self.hi:.6g}{rb}"


@dataclass(frozen=True)
class ParameterBox:
    """Admissible (alpha, beta) region for one theorem, plus derived constants.

    ``beta`` is populated only when the box was built at a specific alpha;
    ``beta_interval_of(alpha)`` gives the slice at any other alpha.
    ``derived`` holds the constants defined for the theorem that are
    computable from alpha alone (lambda for T31/T32); beta-dependent
    constants come from :func:`rate_constants`.
    """

    theorem: str
    gamma: float
    kappa: float
    s: float | None
    alpha: Interval
    beta: Interval | None = None
    derived: dict = field(default_factory=dict)

    def beta_interval_of(self, alpha: float) -> Interval:
        return _beta_interval(self.theorem, self.gamma, self.kappa, alpha)


def _alpha_interval(theorem: str, gamma: float, kappa: float) -> Interval:
    if theorem == "T31":
        hi = (kappa + 4.0) / 4.0 * math.sqrt(gamma / kappa)
        return Interval(0.0, hi, lo_open=True, hi_open=False)
    if theorem == "T32":
        hi = (kappa + 4.0) / 4.0 * math.sqrt(gamma / (2.0 * kappa))
        return Interval(0.0, hi, lo_open=True, hi_open=False)
    # T41/T42: alpha in (0, 1/2), both ends open.
    return Interval(0.0, 0.5, lo_open=True, hi_open=True)


def _beta_interval(theorem: str, gamma: float, kappa: float, alpha: float) -> Interval:
    k2 = (kappa + 2.0) ** 2
    k4 = kappa + 4.0
    if theorem == "T31":
        hi = (math.sqrt(alpha**2 * k2**2 + 16.0 * gamma * k4**3) - alpha * k2) / (
            4.0 * gamma * k4
        )
        return Interval(0.0, hi, lo_open=False, hi_open=False)
    if theorem == "T32":
        hi = (
            math.sqrt(2.0 * alpha**2 * k2**2 + 27.0 * gamma * k4**3)
            - math.sqrt(2.0) * alpha * k2
        ) / (9.0 * math.sqrt(2.0) * gamma * k4)
        return Interval(0.0, hi, lo_open=False, hi_open=False)
    if theorem == "T41":
        disc = -15.0 * alpha**4 + 2.0 * alpha**2 + 1.0
        if disc <= 0.0:
            return Interval(0.0, 0.0, lo_open=True, hi_open=True)
        root = math.sqrt(disc)
        lo = (1.0 + alpha**2 - root) / (8.0 * alpha)
        hi = min(alpha, (1.0 + alpha**2 + root) / (8.0 * alpha))
        return Interval(lo, hi, lo_open=True, hi_open=True)
    disc = 1.0 - 16.0 * alpha**4
    if disc <= 0.0:
        return Interval(0.0, 0.0, lo_open=True, hi_open=True)
    root = math.sqrt(disc)
    lo = (1.0 - root) / (8.0 * alpha)
    hi = min(alpha / 2.0, (1.0 + root) / (8.0 * alpha))
    return Interval(lo, hi, lo_open=True, hi_open=True)


def _check_theorem(theorem: str) -> None:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem tag {theorem!r}; expected one of {THEOREMS}")


def _resolve_stepsize(problem: Problem, theorem: str, s: float | None) -> float | None:
    if theorem in ("T31", "T32"):
        if s is not None:
            raise ValueError(f"{theorem} is a continuous-time theorem; it takes no s, got {s}")
        return None
    if not math.isfinite(problem.lipschitz):  # s = 1/L = 0 bounds nothing
        raise OutOfBox(f"{theorem} needs a finite L, got L = {problem.lipschitz}")
    if s is None:
        return 1.0 / problem.lipschitz
    if not (s > 0) or abs(s * problem.lipschitz - 1.0) > 1e-9:
        raise OutOfBox(
            f"{theorem} requires s = 1/L = {1.0 / problem.lipschitz:.6g}, got {s}"
        )
    return s


def parameter_box(
    problem: Problem,
    theorem: str,
    alpha: float | None = None,
    s: float | None = None,
) -> ParameterBox:
    """Admissible parameter intervals for the given theorem.

    Without ``alpha``, only the alpha interval is populated.  With it, the
    beta slice at that alpha is attached along with the alpha-only derived
    constants (lambda for T31/T32).  An alpha outside the theorem's interval,
    or for T41/T42 an L that is not finite or an s other than 1/L, raises
    :class:`OutOfBox`; an s for T31/T32 raises ``ValueError``.
    """
    _check_theorem(theorem)
    gamma, kappa = problem.gamma, problem.kappa
    step = _resolve_stepsize(problem, theorem, s)
    alpha_iv = _alpha_interval(theorem, gamma, kappa)
    beta_iv = None
    derived: dict = {}
    if alpha is not None:
        if not alpha_iv.contains(alpha):
            raise OutOfBox(f"alpha = {alpha} outside {theorem} interval {alpha_iv}")
        beta_iv = _beta_interval(theorem, gamma, kappa, alpha)
        if theorem in ("T31", "T32"):
            derived["lambda"] = 2.0 * alpha / (kappa + 4.0)
    return ParameterBox(
        theorem=theorem,
        gamma=gamma,
        kappa=kappa,
        s=step,
        alpha=alpha_iv,
        beta=beta_iv,
        derived=derived,
    )


def rate_constants(
    problem: Problem,
    theorem: str,
    alpha: float,
    beta: float,
    s: float | None = None,
) -> dict:
    """Certified constants at (alpha, beta) inside the theorem's box.

    T31/T32 -> {"lambda"}; T41 -> {"c", "rho"}; T42 -> {"c", "sigma", "N"}.
    rho and sigma are per-iteration energy contraction factors in (0, 1);
    they are certified lower bounds on speed, not performance predictions.
    """
    box = parameter_box(problem, theorem, alpha=alpha, s=s)
    assert box.beta is not None
    if not box.beta.contains(beta):
        raise OutOfBox(
            f"beta = {beta} outside {theorem} interval {box.beta} at alpha = {alpha}"
        )
    gamma, L = problem.gamma, problem.lipschitz
    if theorem in ("T31", "T32"):
        return dict(box.derived)
    step = box.s
    c = beta / (alpha * step)
    denom_grad = 2.0 * L / gamma**2 + beta / 2.0
    denom_step = (beta / 2.0) * (1.0 + L * beta + L / alpha)
    if theorem == "T41":
        rho = min(
            (1.0 / (2.0 * L)) * (1.0 - beta / alpha) / denom_grad,
            (L / (2.0 * alpha))
            * ((alpha**2 + 1.0) * beta - 4.0 * alpha * beta**2 - alpha**3)
            / denom_step,
        )
        return {"c": c, "rho": rho}
    sigma = min(
        (1.0 / L) * (0.5 - beta / alpha) / denom_grad,
        (L / (2.0 * alpha)) * (beta - 4.0 * alpha * beta**2 - alpha**3) / denom_step,
    )
    n_const = (1.0 / L) * (0.5 + beta / alpha + alpha / (2.0 * beta))
    return {"c": c, "sigma": sigma, "N": n_const}


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    assumption: str
    samples: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _normalize_box(domain_box, dim: int) -> np.ndarray:
    box = np.asarray(domain_box, dtype=np.float64)
    if box.ndim == 1 and box.shape == (2,):
        box = np.tile(box, (dim, 1))
    if box.shape != (dim, 2):
        raise ValueError(f"domain box must be (lo, hi) or {dim} per-axis pairs")
    if not np.all(box[:, 0] < box[:, 1]):
        raise ValueError("each box axis needs lo < hi")
    with np.errstate(over="ignore"):
        width = box[:, 1] - box[:, 0]
    if not np.all(np.isfinite(width)):
        raise ValueError("each box axis needs a finite width hi - lo")
    return box


def check_assumptions(
    problem: Problem,
    domain_box,
    samples: int = 10_000,
    seed: int = 0,
) -> list[AssumptionReport]:
    """Empirically falsify the structural assumptions on sampled points.

    Checks, in order: quadratic growth f(x) >= f* + (gamma/4)|x - x*|^2;
    the gradient characterization of strong quasiconvexity on sampled pairs
    (f(x) <= f(y) implies <grad f(y), x - y> <= -(gamma/2)|y - x|^2);
    the Polyak-Lojasiewicz inequality |grad f|^2 >= (gamma^2/2L)(f - f*);
    and quasar convexity <grad f(x), x - x*> >= kappa (f - f*).

    A sample passes a check when its slack is at least -1e-9; a NaN slack
    is a violation.  f and grad f are evaluated on all sampled points at
    once, through :func:`inertiq.problems.rows_form`, with the bits of one
    ``func`` or ``grad`` call per point.  So a problem copied with a new
    func or grad (``dataclasses.replace``) is checked through its old rows
    pair or float form unless the copy passes ``rows=None`` and
    ``float_form=None`` too.  Deterministic in (seed, samples, box).
    """
    if problem.minimizer is None or problem.min_value is None:
        raise ValueError("check_assumptions needs minimizer and min_value")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = problem.dimension
    box = _normalize_box(domain_box, dim)
    rng = np.random.default_rng(seed)
    xstar = problem.minimizer
    fstar = problem.min_value
    gamma, L, kappa = problem.gamma, problem.lipschitz, problem.kappa

    values, grads = rows_form(problem)

    # Row dot products are np.vecdot: it equals a per-point np.dot bit for
    # bit; (a*b).sum(1) and einsum round differently.
    # An overflowing slack is NaN, already a violation: silence its warnings
    # here alone, so that func's and grad's own warnings still show.
    slack_errstate = functools.partial(np.errstate, over="ignore", invalid="ignore")
    x = rng.uniform(box[:, 0], box[:, 1], size=(samples, dim))
    fx = values(x) - fstar
    gx = grads(x)
    diff = x - xstar
    with slack_errstate():
        qg = fx - 0.25 * gamma * np.vecdot(diff, diff)
        pl = np.vecdot(gx, gx) - gamma**2 / (2.0 * L) * fx
        a1 = np.vecdot(gx, diff) - kappa * fx
    del x, fx, gx, diff  # peak memory: the pairs reuse this space

    pairs = rng.uniform(box[:, 0], box[:, 1], size=(samples, 2, dim))
    f_ab = values(pairs.reshape(-1, dim)).reshape(samples, 2)
    # Orient so f(x) <= f(y); the characterization quantifies over such pairs.
    keep = (f_ab[:, 0] <= f_ab[:, 1])[:, None]
    a, b = pairs[:, 0], pairs[:, 1]
    x, y = np.where(keep, a, b), np.where(keep, b, a)
    gy = grads(y)
    diff = y - x
    with slack_errstate():
        sqc = -0.5 * gamma * np.vecdot(diff, diff) - np.vecdot(gy, x - y)

    def report(tag: str, slacks: np.ndarray) -> AssumptionReport:
        return AssumptionReport(
            assumption=tag,
            samples=samples,
            violations=int(np.count_nonzero(~(slacks >= SLACK_TOL))),
            worst_margin=float(slacks.min()),
        )

    return [report("QuadGrowth", qg), report("SQC", sqc), report("PL", pl), report("A1", a1)]


# ---------------------------------------------------------------------------
# Lyapunov energies
# ---------------------------------------------------------------------------

def continuous_energy(
    problem: Problem, alpha: float, beta: float, x, v
) -> float:
    """Continuous-time energy at state (x, v), v being the velocity.

    E = f(x + beta*v) - f* + 1/2 |lam (x - x*) + v|^2 + (lam^2/2) |x - x*|^2
    with lam = 2*alpha/(kappa + 4).  Nonnegative whenever the problem's
    metadata is valid; zero exactly at (x*, 0).
    """
    if problem.minimizer is None or problem.min_value is None:
        raise ValueError("continuous_energy needs minimizer and min_value")
    xv = as_point(x, problem.dimension)
    vv = as_point(v, problem.dimension)
    value_error = float(problem.func(xv + beta * vv)) - problem.min_value
    diff = xv - problem.minimizer
    return _continuous_energy(problem, alpha, value_error, diff, vv, lambda a: a.dot(a))


def _continuous_energy(
    problem: Problem, alpha: float, value_error: float, diff, v, sqnorm
) -> float:
    """:func:`continuous_energy` from value_error = f(x + beta*v) - f* and
    diff = x - x*, for callers that already evaluated f at the look-ahead;
    ``sqnorm(a)`` is a . a, on vectors or, at d = 1, on Python floats."""
    lam = 2.0 * alpha / (problem.kappa + 4.0)
    w = lam * diff + v
    return value_error + 0.5 * float(sqnorm(w)) + 0.5 * lam**2 * float(sqnorm(diff))


def discrete_energy(problem: Problem, c: float, x_k, x_km1) -> float:
    """Discrete energy E_k = f(x_k) - f* + (c/2) |x_k - x_{k-1}|^2, c > 0."""
    if problem.min_value is None:
        raise ValueError("discrete_energy needs min_value")
    if not (c > 0):
        raise ValueError(f"energy weight c must be positive, got {c}")
    xk = as_point(x_k, problem.dimension)
    dx = xk - as_point(x_km1, problem.dimension)
    value_error = float(problem.func(xk)) - problem.min_value
    return _discrete_energy(value_error, c, math.sqrt(dx.dot(dx)))


def _discrete_energy(value_error: float, c: float, step: float) -> float:
    """:func:`discrete_energy` from value_error = f(x_k) - f* and the step
    length |x_k - x_{k-1}|, as ``run()``'s records hold them."""
    return value_error + 0.5 * c * step * step
