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
one loop.  Each record forms d once, for its step length and for the
update that follows, and evaluates g_k once, keeping it only for the steps
that read it (HBM, HBM_H, NAG_H), and g_{k-1} only for HBM_H and NAG_H;
g_0 is record 0's gradient.  At d = 1 the loop holds x_k, d, g_k,
g_{k-1} and eps_k as Python floats (:func:`inertiq.problems.state_ops`),
the same IEEE-754 operations as 1-element arrays, and takes f and grad f
from the problem's float form where it has one; only a record's own x is
a fresh 1-element array.

``run_rows`` gives many runs their ``run`` results bit for bit, and picks
the engine: the seeds of one config step as rows of an (n, d) block, in run
order, through the same ``step``, the problem's rows form
(:func:`inertiq.problems.rows_form`) and ``run``'s record rule
(``_measures``); every other run is one ``run`` call.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import analysis
from .errors import BLOWUP_NORM, Divergence, OutOfBox
from .perturbations import PerturbationSpec, sample_discrete, sample_discrete_rows
from .problems import Problem, Vector, as_point, rows_form, state_ops


class Method(NamedTuple):
    """What one variant's update looks like in the shared recursion."""

    grad_at: str  # "x" (x_k), "y" (momentum point y_k) or "z" (IAA's z_k)
    hessian_correction: bool

    @property
    def step_size(self) -> str:
        """Name of the coefficient h that scales the gradient and eps_k."""
        return "s" if self.grad_at == "z" else "beta"

    @property
    def reads_grad(self) -> bool:
        """Whether the step reads g_k: HBM does, and the corrected variants
        read g_{k-1} too; IAA and NAG read neither."""
        return self.grad_at == "x" or self.hessian_correction

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
        for name in ("alpha", "beta", "theta", step_size):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


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


class IterateRecord(NamedTuple):
    """Per-iterate instrumentation, a named tuple: built at tuple speed,
    immutable, and ``_replace`` makes an edited copy.

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
    """Records plus the stopping trigger ("tol" or "max_iter") and totals;
    box_warnings is empty exactly when the run is inside its theorem's box
    (T41, or T42 if perturbed) or its variant has no box."""

    records: list[IterateRecord]
    trigger: str
    n_grad_evals: int
    box_warnings: tuple[str, ...] = ()

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]

    def iterations(self) -> int:
        return self.records[-1].k


def step(
    grad: Callable[[Vector], Vector],
    cfg: AlgorithmConfig,
    x_k: Vector,
    d_k: Vector,
    g_k: Vector | None,
    g_km1: Vector | None,
    eps_k: Vector | None = None,
) -> Vector:
    """x_{k+1} of the module docstring's recursion from x_k, d_k = x_k - x_{k-1},
    g_k and g_{k-1}, which IAA and NAG do not read.  ``grad`` is called only
    at p_k = z_k or y_k.  Points, gradients and eps_k are all float arrays or
    all Python floats, as ``run`` passes them."""
    method = METHODS[cfg.variant]
    # In place on one fresh array: fewer 512 KB temporaries at large d
    # (README, "Performance"), and the same IEEE-754 operations as
    # x_k + alpha*d - h*g, so the same bits.  On floats each one rebinds y.
    y = cfg.alpha * d_k
    y += x_k
    if method.hessian_correction:
        y -= cfg.theta * (g_k - g_km1)
    if method.grad_at == "z":
        h, p = cfg.s, cfg.beta * d_k
        p += x_k
    else:
        h, p = cfg.beta, y
    # No name holds grad f(p_k): at d = 2^16 a live 512 KB gradient makes
    # the product a fresh array, with its page faults.
    y -= h * (g_k if method.grad_at == "x" else grad(p))
    if eps_k is not None and np.count_nonzero(eps_k):
        y += h * eps_k
    return y


# Both names stay bound: ``run`` and the block call the variant's own.
step_iaa = step_baseline = step


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
    seed.  Raises :class:`Divergence` (``when`` = the first bad k) when |x|
    exceeds 1e12 or turns NaN or inf.
    """
    stop = stop or StoppingRule()
    dim = problem.dimension
    grad, func, state, point, peak, sqnorm = state_ops(problem)
    x_0 = state(as_point(x0, dim).copy())
    x_cur = state(as_point(x1 if x1 is not None else x0, dim).copy())

    box_warnings = validate_against_box(problem, cfg)
    for msg in box_warnings:
        warnings.warn(msg, stacklevel=2)

    xstar = None if problem.minimizer is None else state(problem.minimizer)
    measure, reached = _measures(problem, cfg, xstar, sqnorm, math.sqrt, lambda x: math.nan)
    method = METHODS[cfg.variant]
    reads_grad, keeps_prev = method.reads_grad, method.hessian_correction
    records: list[IterateRecord] = []

    def make_record(k: int, x: Vector, d: Vector) -> Vector | None:
        """Append the record of iterate k, d = x_k - x_{k-1}; return
        g_k = grad f(x_k) if the step reads it."""
        fx, gx = func(x), grad(x)
        records.append(IterateRecord(
            k,
            # The record owns its array: a fresh one at d = 1, else a private
            # copy (x_0, x_1) or a fresh step result, never written afterwards.
            point(x),
            *measure(fx, gx, x, d),
            method.grad_evals(k),
        ))
        return gx if reads_grad else None

    def hit_tol(rec: IterateRecord) -> bool:
        return reached(rec.value_error, rec.grad_norm, stop.tol)

    g_cur = make_record(0, x_0, x_0 - x_0)
    d = x_cur - x_0
    g_prev, g_cur = (g_cur if keeps_prev else None), make_record(1, x_cur, d)
    sample_noise, iaa = not cfg.perturb.is_zero, cfg.variant == "IAA"
    k = 1
    while k < stop.max_iter and not hit_tol(records[-1]):
        eps = state(sample_discrete(cfg.perturb, k, dim)) if sample_noise else None
        # By the variant's name, at each step: perfbench wraps each name under
        # its optimizers.step layer, and TestModuleAttributeContract pins this.
        x_next = (step_iaa if iaa else step_baseline)(grad, cfg, x_cur, d, g_cur, g_prev, eps)
        # NaN propagates through max and fails the comparison, as inf does.
        xmax = peak(x_next)
        if not xmax <= BLOWUP_NORM:
            raise _divergence(k + 1, xmax)
        k += 1
        d = x_next - x_cur
        x_cur = x_next
        g_prev, g_cur = (g_cur if keeps_prev else None), make_record(k, x_cur, d)
    # tol wins over max_iter when the last record meets both.
    trigger = "tol" if hit_tol(records[-1]) else "max_iter"
    return RunResult(records, trigger, records[-1].n_grad_evals, tuple(box_warnings))


def _measures(problem: Problem, cfg: AlgorithmConfig, xstar, sqnorm: Callable,
              sqrt: Callable, nan: Callable) -> tuple[Callable, Callable]:
    """The record rule of ``run`` and ``run_rows``, on one point or on rows.

    Returns ``measure(f(x), grad f(x), x, d)``, a record's (value_error,
    grad_norm, dist, step, energy) at x with d = x - x_prev, and
    ``reached(value_error, grad_norm, tol)``, whether the record meets tol
    (None meets nothing, and on rows neither does a NaN tol).
    ``xstar`` is the minimizer as the solver holds points (None if unknown),
    and ``sqnorm``, ``sqrt`` and ``nan(x)`` are its v . v, square root and
    NaN for x; the operations are the same on a float and on each row.
    """
    fstar = problem.min_value
    use_value = fstar is not None
    # x - 0 is x up to a zero's sign, which the square drops: at x* = 0 the
    # distance needs no subtraction.
    xstar_is_zero = xstar is not None and not problem.minimizer.any()
    c_energy = None
    # An alpha * s that underflows to 0 leaves c undefined, as alpha = 0 does.
    if cfg.variant == "IAA" and use_value and cfg.alpha * cfg.s > 0:
        c_energy = cfg.beta / (cfg.alpha * cfg.s)

    def measure(fx, gx, x, d) -> tuple:
        value_error = fx - fstar if use_value else fx
        step = sqrt(sqnorm(d))
        dist = nan(x) if xstar is None else sqrt(sqnorm(x if xstar_is_zero else x - xstar))
        if c_energy is not None and c_energy > 0:
            energy = analysis._discrete_energy(value_error, c_energy, step)
        elif c_energy == 0.0:
            energy = value_error
        else:
            energy = nan(x)
        return value_error, sqrt(sqnorm(gx)), dist, step, energy

    def reached(value_error, grad_norm, tol):
        metric = value_error if use_value else grad_norm
        return tol is not None and metric <= tol

    return measure, reached


def _divergence(k: int, peak: float) -> Divergence:
    """The blow-up of iterate k, whose largest |coordinate| is ``peak``."""
    return Divergence(f"iterates blew up at k = {k} (|x| = {peak:.3g})", when=k)


# The most floats a block keeps as columns: max_iter iterates times d
# coordinates and five record values, summed over the runs; 8 MB in all.
# Stacking a stretch holds its columns twice for a moment, so a block of
# one stretch peaks at up to twice that.
LOCKSTEP_FLOATS = 1 << 20


def run_rows(
    problem: Problem,
    runs: Sequence[tuple[AlgorithmConfig, object, StoppingRule | None]],
) -> Iterator[RunResult]:
    """Yield ``run(problem, cfg, x0, stop=stop)`` for each ``(cfg, x0, stop)``
    of ``runs``, in order and bit for bit.

    The runs whose configs differ only in the perturbation seed form a
    group.  The groups with two or more distinct seeds step in one lockstep
    block, unless its columns could pass ``LOCKSTEP_FLOATS`` (max_iter *
    (d + 5) summed over its runs); every other run, and every run whose x0
    ``as_point`` refuses, is one ``run`` call, in its turn, since the block
    pays only across rows.  In the block, row i of each (n, d) array is the
    iterate of the block's i-th run, and rows leave but keep run order.  A
    stretch is a maximal span of adjacent rows of one group: per block step
    each stretch makes one ``step`` call, and each span of adjacent
    perturbed rows that draw alike but for the seed one
    ``sample_discrete_rows`` call.  x0 and stop are not part of a group, so
    runs of one config with another x0 or stop, with another group's runs
    between them, are two stretches and two ``step`` calls.  f, grad f, the
    blow-up and stopping tests take every row at once, and the record
    values are formed per stretch.  Each row stops on its own tol and
    max_iter, at a blow-up or at a draw that raises; a row whose draw
    raises is not stepped, and the rows after a failed one leave with it,
    since their runs are never yielded.  A run's records are built from the
    block's columns when its result is yielded.  A run that failed raises
    its exception (a :class:`Divergence`, or the draw's ``ValueError``) in
    its turn, after the results of the runs before it.  Each result issues
    the box warnings ``run`` issues; other warnings raised while the block
    steps come with the first block run's result.
    """
    runs = [(cfg, x0, stop or StoppingRule()) for cfg, x0, stop in runs]
    keys = [replace(cfg, perturb=cfg.perturb.with_seed(0)) for cfg, _, _ in runs]
    pairs = set(zip(keys, (cfg.perturb.seed for cfg, _, _ in runs)))
    n_seeds = Counter(key for key, _ in pairs)  # distinct seeds per group
    block = [i for i, key in enumerate(keys)
             if n_seeds[key] > 1 and _is_point(runs[i][1], problem.dimension)]
    if sum(runs[i][2].max_iter for i in block) * (problem.dimension + 5) > LOCKSTEP_FLOATS:
        block = []
    row_of = {i: b for b, i in enumerate(block)}  # each block run's place in the block
    box_warnings = {key: tuple(validate_against_box(problem, key))
                    for key in dict.fromkeys(keys[i] for i in block)}  # one check per group
    steps = ends = None
    for i, (key, (cfg, x0, stop)) in enumerate(zip(keys, runs)):
        b = row_of.get(i)
        if b is None:
            yield run(problem, cfg, x0, stop=stop)
            continue
        for msg in box_warnings[key]:
            warnings.warn(msg, stacklevel=2)
        if steps is None:
            steps, ends = _lockstep(problem, [runs[j] for j in block], [keys[j] for j in block])
        if isinstance(ends[b], Exception):
            raise ends[b]
        last, trigger = ends[b]
        # The run's row is in every stretch up to the one its last iterate
        # ends, since rows only leave and keep run order.
        xs, values = [], []
        for rows, block_xs, block_values in steps:
            p = int(np.searchsorted(rows, b))
            if p == len(rows) or rows[p] != b:
                break
            xs.append(block_xs[:, p])
            values.append(block_values[:, :, p])
        ks, grad_evals = range(last + 1), METHODS[key.variant].grad_evals
        # Each record's x is a row of one (last + 1, d) array of this run's own.
        records = list(map(IterateRecord, ks, np.concatenate(xs),
                           *np.concatenate(values).T.tolist(), map(grad_evals, ks)))
        yield RunResult(records, trigger, records[-1].n_grad_evals, box_warnings[key])


def _is_point(x, dim: int) -> bool:
    """Whether ``as_point`` takes x; ``run`` raises its refusal."""
    try:
        as_point(x, dim)
    except (TypeError, ValueError):
        return False
    return True


def _slices(labels) -> list:
    """(label, start, stop) per run of equal neighbours in ``labels``."""
    out, start = [], 0
    for label, members in itertools.groupby(labels):
        stop = start + len(list(members))
        out.append((label, start, stop))
        start = stop
    return out


def _lockstep(problem, runs, keys) -> tuple[list, list]:
    """Step every run's row, as ``run`` steps one, until each has stopped,
    blown up or failed to draw; ``keys`` are the runs' seedless configs.
    Row i is the i-th run, and rows leave but keep run order.  A stretch is
    a maximal span of adjacent rows with one key, and each is one ``step``
    slice; each span of adjacent perturbed rows whose keys draw alike is
    one ``sample_discrete_rows`` slice.  A key's rows need not be adjacent:
    runs with one key and other x0 or stops may have other keys' rows
    between them.  Returns, per stretch of block steps with one row set,
    (the rows as run positions, their iterates (K, n, d), their record
    values (K, 5, n)); and per run, its last k and trigger, its exception,
    or None if an earlier run failed."""
    dim = problem.dimension
    func, grad = rows_form(problem)
    # Slices are labelled by group number: configs hash and compare slowly.
    number = {key: g for g, key in enumerate(dict.fromkeys(keys))}
    groups, group_of = list(number), np.array([number[key] for key in keys])
    rules = [_measures(problem, cfg, problem.minimizer, lambda a: np.vecdot(a, a), np.sqrt,
                       lambda x: np.full(len(x), np.nan)) for cfg in groups]
    measures, reached = [m for m, _ in rules], rules[0][1]
    specs = [None if cfg.perturb.is_zero else cfg.perturb for cfg in groups]
    # Every per-row column is an array, so one index trims them all.
    rows = np.arange(len(runs))
    seeds = np.array([cfg.perturb.seed for cfg, _, _ in runs], dtype=object)
    # A NaN tol, a run without one, meets no value.
    tols = np.array([math.nan if stop.tol is None else stop.tol for _, _, stop in runs])
    max_iters = np.array([stop.max_iter for _, _, stop in runs])
    steps: list = []
    ends: list = [None] * len(runs)

    def stretches() -> tuple[list, list]:
        """(group, start, stop) per stretch, and (spec, start, stop) per span
        of perturbed rows that draw alike."""
        labels = group_of[rows].tolist()
        draws = _slices(specs[g] for g in labels)
        return _slices(labels), [draw for draw in draws if draw[0] is not None]

    def record(x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Append the rows' record values at x, d = x - x_prev, and return
        the gradients.  Python floats overflow and turn NaN silently, and so
        does this arithmetic."""
        fx, gx = func(x), grad(x)
        values = np.empty((5, len(x)))
        with np.errstate(over="ignore", invalid="ignore"):
            for g, a, b in spans:
                values[:, a:b] = measures[g](fx[a:b], gx[a:b], x[a:b], d[a:b])
        if not steps or steps[-1][0] is not rows:
            steps.append((rows, [], []))
        steps[-1][1].append(x)
        steps[-1][2].append(values)
        return gx

    spans, draws = stretches()
    x_0 = np.array([as_point(x0, dim) for _, x0, _ in runs])
    x_cur = x_0.copy()
    g_prev = record(x_0, x_0 - x_0)
    d = x_cur - x_0
    g_cur = record(x_cur, d)
    k = 1
    while True:
        # End the runs whose record k meets tol, and every run at max_iter.
        values = steps[-1][2][-1]
        met = reached(values[0], values[1], tols)
        done = met | (k >= max_iters)
        if done.any():
            for r, tol_met in zip(rows[done].tolist(), met[done].tolist()):
                ends[r] = (k, "tol" if tol_met else "max_iter")
            rows, seeds, tols, max_iters, x_cur, d, g_cur, g_prev = (
                column[~done] for column in (rows, seeds, tols, max_iters, x_cur, d, g_cur, g_prev))
            if not len(rows):
                break
            spans, draws = stretches()
        # run() raises a failed draw at this k, before its step, so the rows
        # from the first failing draw on are not stepped (a draw slice starts
        # a stretch).
        eps, cut, failure = np.zeros((len(rows), dim)), len(rows), None
        for spec, a, b in draws:
            try:
                eps[a:b] = sample_discrete_rows(spec, seeds[a:b], k, dim)
            except ValueError as exc:
                cut, failure = a, exc
                break
        # run() skips a zero eps_k.  x + (-0.0) is x bit for bit, so a row
        # of -0.0 adds nothing either, whatever the other rows add.
        eps[~eps.any(axis=1)] = -0.0
        x_next = np.empty((cut, dim))
        for g, a, b in spans:
            if a < cut:
                # Looked up by the variant's name, as in run().
                x_next[a:b] = (step_iaa if groups[g].variant == "IAA" else step_baseline)(
                    grad, groups[g], x_cur[a:b], d[a:b], g_cur[a:b], g_prev[a:b],
                    None if specs[g] is None else eps[a:b])
        # NaN propagates through max and fails the comparison, as inf does.
        peaks = np.abs(x_next).max(axis=1)
        bad = np.flatnonzero(~(peaks <= BLOWUP_NORM))
        if bad.size:
            cut, failure = int(bad[0]), _divergence(k + 1, float(peaks[bad[0]]))
        if failure is not None:
            # The first failing run raises in its turn; the rows after it
            # leave with it, since their runs are never yielded.
            ends[rows[cut]] = failure
            rows, seeds, tols, max_iters, x_cur, d, g_cur, g_prev, x_next = (
                column[:cut] for column in (rows, seeds, tols, max_iters, x_cur, d, g_cur, g_prev,
                                            x_next))
            if not len(rows):
                break
            spans, draws = stretches()
        k += 1
        d = x_next - x_cur
        x_cur = x_next
        g_prev, g_cur = g_cur, record(x_cur, d)
    # Stacked in place, so each stretch's per-step arrays go as soon as it
    # is stacked and only one stretch is held twice at a time.
    for i, (block_rows, xs, values) in enumerate(steps):
        steps[i] = (block_rows, np.stack(xs), np.stack(values))
    return steps, ends
