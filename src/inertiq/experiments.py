"""Experiment runner: benchmark presets, multi-run execution, CSV emission,
comparison summaries, and theorem-bound checks.

Presets
-------
fig12   five-algorithm tolerance run (tol = 1e-10) on the 1-D sine-well
        problem: value-error and iteration-error comparison.
fig34   the same runs captured for exactly 50 iterations (trajectory and
        successive-error view).
fig45   five perturbed algorithms on the 2-D arctan-basin problem, 200
        iterations, Gaussian noise with decaying standard deviation,
        aggregated over a seed list.

CSV files are written with a fixed float rendering (17 significant
digits, LF endings) so reruns are byte-identical.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, rates
from .errors import (
    EmptyBetaInterval,
    InfeasibleAlpha,
    InsufficientData,
    OutOfBox,
    UnknownPreset,
)
from .optimizers import ALGO_NAMES, METHODS, AlgorithmConfig, RunResult, StoppingRule, run
from .perturbations import (
    PerturbationSpec,
    format_perturbation,
    parse_perturbation,
)
from .problems import Problem, builtin_problem

EMIT_KINDS = frozenset({"csv", "summary", "checks"})
PRESETS = ("fig12", "fig34", "fig45")


@dataclass(frozen=True)
class RunSetup:
    label: str
    config: AlgorithmConfig
    x0: tuple[float, ...]
    stop: StoppingRule
    x1: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    runs: tuple[RunSetup, ...]
    seeds: tuple[int, ...] = (0,)
    outputs: str | None = None
    emit: frozenset = EMIT_KINDS

    def __post_init__(self):
        labels = [r.label for r in self.runs]
        if len(labels) != len(set(labels)):
            raise ValueError(f"run labels must be unique, got {labels}")
        if not set(self.emit) <= EMIT_KINDS:
            raise ValueError(f"emit must be a subset of {sorted(EMIT_KINDS)}")


@dataclass(frozen=True)
class RunStats:
    label: str
    seed: int | None
    iterations: int
    reached_tol: bool
    trigger: str
    final_value_error: float
    final_dist: float
    oscillation: float
    fitted_rate: float
    n_grad_evals: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        """The check's line in checks.txt and in the summary."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.detail})"


@dataclass(frozen=True)
class ComparisonSummary:
    stats: tuple[RunStats, ...]
    ordering: tuple[str, ...]
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def stats_for(self, label: str) -> list[RunStats]:
        return [s for s in self.stats if s.label == label]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _sine_well_runs(stop: StoppingRule) -> tuple[RunSetup, ...]:
    x0 = (3.0,)
    iaa = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0)
    base = dict(alpha=0.7, beta=1.0 / 24.0)
    return (
        RunSetup("IAA", iaa, x0, stop),
        RunSetup("HBM", AlgorithmConfig(variant="HBM", **base), x0, stop),
        RunSetup("NAG", AlgorithmConfig(variant="NAG", **base), x0, stop),
        RunSetup("HBM-H", AlgorithmConfig(variant="HBM_H", theta=0.05, **base), x0, stop),
        RunSetup("NAG-H", AlgorithmConfig(variant="NAG_H", theta=0.05, **base), x0, stop),
    )


def preset(name: str) -> ExperimentConfig:
    """Benchmark preset by name, one of ``PRESETS``."""
    if name == "fig12":
        return ExperimentConfig(
            problem="example51",
            runs=_sine_well_runs(StoppingRule(tol=1e-10, max_iter=100_000)),
            seeds=(0,),
        )
    if name == "fig34":
        return ExperimentConfig(
            problem="example51",
            runs=_sine_well_runs(StoppingRule(tol=None, max_iter=50)),
            seeds=(0,),
        )
    if name == "fig45":
        noise = PerturbationSpec.gaussian(sigma0=0.001, decay=0.01)
        stop = StoppingRule(tol=None, max_iter=200)
        x0 = (3.0, 3.0)
        iaa = AlgorithmConfig(
            variant="IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise
        )
        base = dict(alpha=0.7, beta=0.04, perturb=noise)
        runs = (
            RunSetup("IAA-Per", iaa, x0, stop),
            RunSetup("HBM-Per", AlgorithmConfig(variant="HBM", **base), x0, stop),
            RunSetup("NAG-Per", AlgorithmConfig(variant="NAG", **base), x0, stop),
            RunSetup(
                "HBM-H-Per",
                AlgorithmConfig(variant="HBM_H", theta=0.05, **base),
                x0,
                stop,
            ),
            RunSetup(
                "NAG-H-Per",
                AlgorithmConfig(variant="NAG_H", theta=0.05, **base),
                x0,
                stop,
            ),
        )
        return ExperimentConfig(
            problem="example52", runs=runs, seeds=tuple(range(1, 11))
        )
    raise UnknownPreset(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Fixed full-precision rendering (17 significant digits)."""
    return f"{x:.17g}"


def write_run_csv(path: Path, result: RunResult, setup: RunSetup) -> None:
    dim = result.records[0].x.shape[0]
    coord_names = ["x"] if dim == 1 else [f"x{i}" for i in range(dim)]
    cfg = setup.config
    injection = f"{METHODS[cfg.variant].step_size}*eps_k"
    header = (
        f"# {setup.label}: variant={cfg.variant} alpha={cfg.alpha:g} "
        f"beta={cfg.beta:g} theta={cfg.theta:g} s={cfg.s if cfg.s else 0:g} "
        f"perturb={format_perturbation(cfg.perturb)} seed={cfg.perturb.seed} "
        f"(perturbation enters the update as +{injection})"
    )
    cols = ["k", *coord_names, "value_error", "grad_norm", "dist", "step", "energy", "n_grad_evals"]
    lines = [header, ",".join(cols)]
    for rec in result.records:
        row = [str(rec.k)]
        row += [format_float(v) for v in rec.x]
        row += [
            format_float(rec.value_error),
            format_float(rec.grad_norm),
            format_float(rec.dist),
            format_float(rec.step),
            format_float(rec.energy),
            str(rec.n_grad_evals),
        ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_trajectory_csv(path: Path, records, header_note: str = "") -> None:
    dim = records[0].x.shape[0]
    xs = ["x"] if dim == 1 else [f"x{i}" for i in range(dim)]
    vs = ["v"] if dim == 1 else [f"v{i}" for i in range(dim)]
    cols = ["t", *xs, *vs, "value_error", "traj_error", "speed", "energy"]
    lines = []
    if header_note:
        lines.append(f"# {header_note}")
    lines.append(",".join(cols))
    for rec in records:
        row = [format_float(rec.t)]
        row += [format_float(v) for v in rec.x]
        row += [format_float(v) for v in rec.v]
        row += [
            format_float(rec.value_error),
            format_float(rec.traj_error),
            format_float(rec.speed),
            format_float(rec.energy),
        ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _t41_checks(problem: Problem, setup: RunSetup, result: RunResult) -> list[CheckResult]:
    """Certified-bound assertions for an unperturbed in-box IAA run."""
    cfg = setup.config
    if cfg.variant != "IAA" or not cfg.perturb.is_zero:
        return []
    if problem.min_value is None or problem.minimizer is None:
        return []
    try:
        consts = analysis.rate_constants(problem, "T41", cfg.alpha, cfg.beta, cfg.s)
    except (InfeasibleAlpha, EmptyBetaInterval, OutOfBox):
        return []  # out of box: warned elsewhere, nothing to certify
    rho = consts["rho"]
    recs = result.records
    e1 = recs[1].energy
    gamma, L = problem.gamma, problem.lipschitz
    rel = 1.0 + 1e-9

    contraction_ok = True
    worst_k = -1
    for a, b in zip(recs[1:], recs[2:]):
        if b.energy > (1.0 - rho) * a.energy * rel:
            contraction_ok = False
            worst_k = a.k
            break
    checks = [
        CheckResult(
            f"T41_energy_contraction[{setup.label}]",
            contraction_ok,
            f"rho={rho:.6g}"
            + ("" if contraction_ok else f", first violation after k={worst_k}"),
        )
    ]
    bounds_ok = True
    detail = f"E1={e1:.6g}"
    for rec in recs[1:]:
        decay = (1.0 - rho) ** (rec.k - 1)
        if (
            rec.value_error > e1 * decay * rel
            or rec.dist**2 > (4.0 * e1 / gamma) * decay * rel
            or rec.step**2 > (2.0 * cfg.alpha * e1 / (L * cfg.beta)) * decay * rel
        ):
            bounds_ok = False
            detail += f", violated at k={rec.k}"
            break
    checks.append(
        CheckResult(f"T41_rate_bounds[{setup.label}]", bounds_ok, detail)
    )
    return checks


def execute(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> ComparisonSummary:
    """Run every (run, seed) combination and assemble the comparison summary.

    Deterministic runs (perturbation independent of the seed) execute once;
    stochastic runs execute once per seed with the seed threaded into the
    perturbation.  Writes one CSV per executed run plus summary and checks
    files when an output directory is configured.
    """
    problem = builtin_problem(cfg.problem)
    out = Path(out_dir) if out_dir is not None else (
        Path(cfg.outputs) if cfg.outputs else None
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    stats: list[RunStats] = []
    checks: list[CheckResult] = []
    notes: list[str] = []
    for setup in cfg.runs:
        seeds = cfg.seeds if setup.config.perturb.is_stochastic else (None,)
        for seed in seeds:
            run_cfg = setup.config
            if seed is not None:
                run_cfg = replace(run_cfg, perturb=run_cfg.perturb.with_seed(seed))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run(problem, run_cfg, setup.x0, setup.x1, setup.stop)
            for w in caught:
                notes.append(f"{setup.label}: {w.message}")
            series = [(r.k, r.value_error) for r in result.records]
            fitted = float("nan")
            for window in (0.5, 1.0):  # short runs need the full series
                try:
                    fitted = rates.fit_rate(series, "exponential", window).rate
                    break
                except InsufficientData:
                    continue
            try:
                osc = rates.oscillation_metric(result.records)
            except InsufficientData:
                osc = float("nan")
            final = result.final
            stats.append(
                RunStats(
                    label=setup.label,
                    seed=seed,
                    iterations=final.k,
                    reached_tol=result.trigger == "tol",
                    trigger=result.trigger,
                    final_value_error=final.value_error,
                    final_dist=final.dist,
                    oscillation=osc,
                    fitted_rate=fitted,
                    n_grad_evals=result.n_grad_evals,
                )
            )
            if seed is None or seed == cfg.seeds[0]:
                checks.extend(_t41_checks(problem, replace(setup, config=run_cfg), result))
            if out is not None and "csv" in cfg.emit:
                suffix = "" if seed is None else f"_seed{seed}"
                write_run_csv(
                    out / f"{setup.label}{suffix}.csv",
                    result,
                    replace(setup, config=run_cfg),
                )

    ordering = _ordering(cfg, stats)
    summary = ComparisonSummary(
        stats=tuple(stats),
        ordering=ordering,
        checks=tuple(checks),
        warnings=tuple(notes),
    )
    if out is not None and "summary" in cfg.emit:
        (out / "summary.txt").write_text(render_summary(summary), newline="\n")
    if out is not None and "checks" in cfg.emit:
        lines = [str(c) for c in checks]
        (out / "checks.txt").write_text(
            "\n".join(lines) + ("\n" if lines else ""), newline="\n"
        )
    return summary


def _ordering(cfg: ExperimentConfig, stats: list[RunStats]) -> tuple[str, ...]:
    """Labels sorted by mean iterations-to-tolerance (unreached -> inf)."""
    labels = [r.label for r in cfg.runs]

    def key(label: str) -> float:
        per = [s for s in stats if s.label == label]
        if not per:
            return math.inf
        vals = [s.iterations if s.reached_tol else math.inf for s in per]
        return float(np.mean(vals))

    return tuple(sorted(labels, key=key))


def render_summary(summary: ComparisonSummary) -> str:
    cols = (
        f"{'label':12s} {'seed':>5s} {'iters':>7s} {'trigger':>8s} "
        f"{'value_err':>12s} {'dist':>12s} {'osc':>7s} {'rate':>10s} {'gevals':>7s}"
    )
    lines = [cols, "-" * len(cols)]
    for s in summary.stats:
        seed = "-" if s.seed is None else str(s.seed)
        lines.append(
            f"{s.label:12s} {seed:>5s} {s.iterations:>7d} {s.trigger:>8s} "
            f"{s.final_value_error:>12.4e} {s.final_dist:>12.4e} "
            f"{s.oscillation:>7.3f} {s.fitted_rate:>10.4g} {s.n_grad_evals:>7d}"
        )
    lines.append("")
    lines.append("ordering (iterations-to-tolerance): " + " < ".join(summary.ordering))
    if summary.checks:
        lines.append("")
        lines.extend(map(str, summary.checks))
    if summary.warnings:
        lines.append("")
        lines.extend(f"warning: {w}" for w in summary.warnings)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Config files (INI: one [run <label>] section per run)
# ---------------------------------------------------------------------------

def read_config(path: str | Path) -> ExperimentConfig:
    """Read a flat key-value experiment file.

    ::

        [experiment]
        problem = example51
        seeds = 1 2 3
        emit = csv summary checks

        [run IAA]
        algo = iaa
        alpha = 0.3
        beta = 0.2
        step = 0.16666666666666666
        x0 = 3
        tol = 1e-10
        max_iter = 100000
        perturb = none
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    problem = exp.get("problem", "example51")
    seeds = tuple(int(tok) for tok in exp.get("seeds", "0").split())
    emit = frozenset(exp.get("emit", "csv summary checks").split())
    outputs = exp.get("outputs", None)

    runs: list[RunSetup] = []
    for section in parser.sections():
        if not section.startswith("run"):
            continue
        label = section[3:].strip() or f"run{len(runs)}"
        sec = parser[section]
        algo = sec.get("algo", "iaa").lower()
        if algo not in ALGO_NAMES:
            raise ValueError(f"{path}: unknown algo {algo!r} in [{section}]")
        pert = parse_perturbation(sec.get("perturb", "none"), seed=seeds[0])
        config = AlgorithmConfig(
            variant=ALGO_NAMES[algo],
            alpha=sec.getfloat("alpha", 0.0),
            beta=sec.getfloat("beta", 0.0),
            theta=sec.getfloat("theta", 0.0),
            s=sec.getfloat("step", fallback=None),
            perturb=pert,
        )
        tol_raw = sec.get("tol", "")
        tol = float(tol_raw) if tol_raw and tol_raw.lower() != "none" else None
        stop = StoppingRule(tol=tol, max_iter=sec.getint("max_iter", 100_000))
        x0 = tuple(float(tok) for tok in sec.get("x0", "0").replace(",", " ").split())
        runs.append(RunSetup(label, config, x0, stop))
    return ExperimentConfig(
        problem=problem, runs=tuple(runs), seeds=seeds, outputs=outputs, emit=emit
    )
