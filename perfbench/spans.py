"""Spans for the benchmark's traced run, and the per-layer metrics they give.

A span is (name, start, end, parent span id).  Spans are kept in memory in
flat arrays and written out when the run ends.  They come from shims that
replace public inertiq functions at the module attribute their callers look
them up through; nothing inside ``src/`` changes.  ``self_s`` of a layer is
its spans' time minus the time covered by their child spans.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import inspect
import os
import statistics
import time
from array import array

import numpy as np

from inertiq import (
    analysis,
    cli,
    dynamics,
    experiments,
    optimizers,
    perturbations,
    rates,
)

SPAN_NAMES = (
    "cli.main",
    "experiments.execute",
    "experiments.write_run_csv",
    "optimizers.run",
    "optimizers.step",
    "problems.grad",
    "problems.func",
    "perturbations.sample",
    "perturbations.normal",
    "dynamics.integrate",
    "dynamics.rate_certificate",
    "analysis.check_assumptions",
    "analysis.parameter_box",
    "analysis.continuous_energy",
    "rates.fit_rate",
    "rates.oscillation_metric",
)

# Counts the shims take from arguments and results, next to the span counts.
COUNTERS = (
    "optimizers.iters",
    "optimizers.n_grad_evals",
    "analysis.out_of_box_runs",
    "analysis.samples",
    "dynamics.steps",
    "dynamics.records",
    "experiments.csv_bytes",
)


class Tracer:
    """Records spans from the shims it makes; ``clear`` starts a new pass."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = []
        self.counters = collections.Counter()

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.open.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(counters, bound, result)``
        runs on each successful return with the call's bound arguments."""
        nid = self.ids[name]
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self.open,
        )
        clock = time.perf_counter
        signature = inspect.signature(fn) if after is not None else None

        def shim(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self.counters, bound.arguments, result)
            return result

        return shim

    def problem(self, problem):
        """Copy of ``problem`` whose func and grad record spans.

        The copy's ``__post_init__`` checks stationarity through the traced
        grad; the spans of that check are the benchmark's, not the
        program's, and are dropped.
        """
        size = len(self.name_id)
        copy = dataclasses.replace(
            problem,
            func=self.wrap("problems.func", problem.func),
            grad=self.wrap("problems.grad", problem.grad),
        )
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[size:]
        return copy

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _count_run(counters, args, result):
    counters["optimizers.iters"] += result.iterations()
    counters["optimizers.n_grad_evals"] += result.n_grad_evals
    counters["analysis.out_of_box_runs"] += bool(result.box_warnings)


def _count_integrate(counters, args, result):
    # The step count integrate() derives from its arguments.
    counters["dynamics.steps"] += max(1, int(round((args["t_end"] - args["t0"]) / args["dt"])))
    counters["dynamics.records"] += len(result)


def _count_samples(counters, args, result):
    counters["analysis.samples"] += args["samples"]


def _count_csv(counters, args, result):
    counters["experiments.csv_bytes"] += os.path.getsize(args["path"])


@contextlib.contextmanager
def installed(tracer: Tracer, problems: dict):
    """Install the shims, and traced copies of ``problems``, for the block."""
    run = tracer.wrap("optimizers.run", optimizers.run, _count_run)
    builtin = experiments.builtin_problem
    shims = [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (cli, "builtin_problem", lambda name: tracer.problem(builtin(name))),
        (experiments, "builtin_problem", lambda name: tracer.problem(builtin(name))),
        (experiments, "run", run),
        (optimizers, "run", run),
        (experiments, "execute", tracer.wrap("experiments.execute", experiments.execute)),
        (experiments, "write_run_csv",
         tracer.wrap("experiments.write_run_csv", experiments.write_run_csv, _count_csv)),
        (optimizers, "step_iaa", tracer.wrap("optimizers.step", optimizers.step_iaa)),
        (optimizers, "step_baseline",
         tracer.wrap("optimizers.step", optimizers.step_baseline)),
        (optimizers, "sample_discrete",
         tracer.wrap("perturbations.sample", optimizers.sample_discrete)),
        (dynamics, "sample_continuous",
         tracer.wrap("perturbations.sample", dynamics.sample_continuous)),
        (perturbations, "counter_standard_normal",
         tracer.wrap("perturbations.normal", perturbations.counter_standard_normal)),
        (dynamics, "integrate",
         tracer.wrap("dynamics.integrate", dynamics.integrate, _count_integrate)),
        (dynamics, "rate_certificate",
         tracer.wrap("dynamics.rate_certificate", dynamics.rate_certificate)),
        (dynamics, "continuous_energy",
         tracer.wrap("analysis.continuous_energy", dynamics.continuous_energy)),
        (analysis, "check_assumptions",
         tracer.wrap("analysis.check_assumptions", analysis.check_assumptions,
                     _count_samples)),
        (analysis, "parameter_box",
         tracer.wrap("analysis.parameter_box", analysis.parameter_box)),
        (rates, "fit_rate", tracer.wrap("rates.fit_rate", rates.fit_rate)),
        (rates, "oscillation_metric",
         tracer.wrap("rates.oscillation_metric", rates.oscillation_metric)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in shims]
    originals = dict(problems)
    try:
        for module, attr, shim in shims:
            setattr(module, attr, shim)
        problems.update({key: tracer.problem(p) for key, p in originals.items()})
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        problems.update(originals)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the spans and counters of one pass.

    Counts are ints and times floats, so that runs can be compared exactly
    on the counts.
    """
    spans = tracer.spans()
    names, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    metrics: dict = {}
    total = {}
    for name, nid in tracer.ids.items():
        mine = names == nid
        metrics[f"{name}.calls"] = int(np.count_nonzero(mine))
        metrics[f"{name}.self_s"] = float(own[mine].sum())
        total[name] = float(duration[mine].sum())
    for key in COUNTERS:
        metrics[key] = int(tracer.counters[key])

    run_id, grad_id = tracer.ids["optimizers.run"], tracer.ids["problems.grad"]
    grads = names == grad_id
    has_parent = parent >= 0
    parent_name = np.full(names.size, -1)
    parent_name[has_parent] = names[parent[has_parent]]
    # Grad calls made by run() itself rather than by a step: the per-iterate
    # records, plus g_0 of the Hessian-corrected variants.
    metrics["optimizers.record_grad_calls"] = int(np.count_nonzero(grads & (parent_name == run_id)))
    # Parents precede their children, and nesting is shallow.
    in_run = names == run_id
    while True:
        spread = in_run.copy()
        spread[has_parent] |= in_run[parent[has_parent]]
        if np.array_equal(spread, in_run):
            break
        in_run = spread
    grads_in_runs = int(np.count_nonzero(grads & in_run))
    evals = metrics["optimizers.n_grad_evals"]
    metrics["problems.grad.useful_ratio"] = evals / grads_in_runs if grads_in_runs else 0.0
    iters, steps = metrics["optimizers.iters"], metrics["dynamics.steps"]
    metrics["optimizers.run.us_per_iter"] = 1e6 * total["optimizers.run"] / iters if iters else 0.0
    metrics["dynamics.us_per_step"] = 1e6 * total["dynamics.integrate"] / steps if steps else 0.0
    return metrics


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """One value per metric over several passes: the common value of a count,
    the median of a time.  Also returns the counts that differed by pass."""
    combined, unstable = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                unstable.append(f"{key}: {values}")
            combined[key] = values[0]
        else:
            combined[key] = statistics.median(values)
    return combined, unstable
