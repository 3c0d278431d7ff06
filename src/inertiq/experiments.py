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
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, rates
from .errors import InsufficientData
from .optimizers import (
    ALGO_NAMES,
    METHODS,
    AlgorithmConfig,
    RunResult,
    StoppingRule,
    run,  # noqa: F401 (perfbench shims it)
    run_rows,
)
from .perturbations import (
    PerturbationSpec,
    format_perturbation,
    parse_perturbation,
)
from .problems import Problem, builtin_problem

PRESETS = ("fig12", "fig34", "fig45")


@dataclass(frozen=True)
class RunSetup:
    label: str
    config: AlgorithmConfig
    x0: tuple[float, ...]
    stop: StoppingRule


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    runs: tuple[RunSetup, ...]
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        labels = [r.label for r in self.runs]
        for label in labels:
            # execute writes <out_dir>/<label>[_seed<n>].csv (csv_name)
            if label in ("", ".", "..") or {os.sep, os.altsep} & set(label):
                raise ValueError(f"run label {label!r} is not a file name")
        if len(labels) != len(set(labels)):
            raise ValueError(f"run labels must be unique, got {labels}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(self.seeds) != len(set(self.seeds)):
            raise ValueError(f"seeds must be unique, got {list(self.seeds)}")
        owners: dict[str, str] = {}
        for setup in self.runs:
            for seed in self.seeds_of(setup):
                name = csv_name(setup.label, seed)
                if owners.setdefault(name, setup.label) != setup.label:
                    raise ValueError(f"runs {owners[name]!r} and {setup.label!r} "
                                     f"would both write {name}")

    def seeds_of(self, setup: RunSetup) -> tuple:
        """The seeds ``execute`` runs ``setup`` at: every seed for a
        stochastic run, and (None,) for a deterministic one, which runs once."""
        return self.seeds if setup.config.perturb.is_stochastic else (None,)


def csv_name(label: str, seed: int | None) -> str:
    """The file ``execute`` writes a run's records to: ``<label>.csv`` for a
    deterministic run, else ``<label>_seed<n>.csv``."""
    return f"{label}.csv" if seed is None else f"{label}_seed{seed}.csv"


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

def _five_runs(
    iaa: AlgorithmConfig, base: dict, x0: tuple[float, ...], stop: StoppingRule, suffix: str = ""
) -> tuple[RunSetup, ...]:
    """The paper's five runs in ``METHODS`` order, each labelled by its
    variant with ``-`` for ``_`` plus ``suffix``: IAA as given, then each
    baseline on the ``base`` coefficients, with theta = 0.05 where it applies
    the Hessian correction."""
    return tuple(
        RunSetup(
            variant.replace("_", "-") + suffix,
            iaa if variant == "IAA" else AlgorithmConfig(
                variant, theta=0.05 if method.hessian_correction else 0.0, **base
            ),
            x0,
            stop,
        )
        for variant, method in METHODS.items()
    )


def _sine_well_runs(stop: StoppingRule) -> tuple[RunSetup, ...]:
    iaa = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0)
    return _five_runs(iaa, dict(alpha=0.7, beta=1.0 / 24.0), (3.0,), stop)


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
        iaa = AlgorithmConfig(
            variant="IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise
        )
        base = dict(alpha=0.7, beta=0.04, perturb=noise)
        runs = _five_runs(iaa, base, (3.0, 3.0), StoppingRule(tol=None, max_iter=200), "-Per")
        return ExperimentConfig(
            problem="example52", runs=runs, seeds=tuple(range(1, 11))
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Fixed full-precision rendering (17 significant digits)."""
    return f"{x:.17g}"


# Keyed by the annotation as written: the record modules postpone theirs.
# "%.17g" renders a float as format_float does, and "%d" an int as str does.
_FIELD_FORMATS = {"int": "%d", "float": "%.17g", "Vector": "%.17g"}


def write_records_csv(path: Path, records, header_note: str = "") -> None:
    """One row per record; the columns are the record type's fields in
    order, a ``Vector`` field spanning one per coordinate (``x`` at d = 1,
    else ``x0, x1, ...``), each formatted by its annotation.  Each row is
    one ``%`` of one format string."""
    names, formats, columns = [], [], []
    for (name, kind), values in zip(type(records[0]).__annotations__.items(), zip(*records)):
        kind = getattr(kind, "__forward_arg__", kind)  # NamedTuple wraps it in a ForwardRef
        # A float from tolist() renders as its np.float64 does, faster.
        cols = np.array(values).T.tolist() if kind == "Vector" else [values]
        names += [name] if len(cols) == 1 else [f"{name}{i}" for i in range(len(cols))]
        formats += [_FIELD_FORMATS[kind]] * len(cols)
        columns += cols
    row = ",".join(formats)
    lines = [f"# {header_note}"] if header_note else []
    lines.append(",".join(names))
    lines += [row % values for values in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_run_csv(path: Path, result: RunResult, setup: RunSetup) -> None:
    cfg = setup.config
    injection = f"{METHODS[cfg.variant].step_size}*eps_k"
    header = (
        f"{setup.label}: variant={cfg.variant} alpha={cfg.alpha:g} "
        f"beta={cfg.beta:g} theta={cfg.theta:g} s={cfg.s if cfg.s else 0:g} "
        f"perturb={format_perturbation(cfg.perturb)} seed={cfg.perturb.seed} "
        f"(perturbation enters the update as +{injection})"
    )
    write_records_csv(path, result.records, header)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _t41_checks(problem: Problem, setup: RunSetup, result: RunResult) -> list[CheckResult]:
    """Certified-bound assertions for an unperturbed in-box IAA run; every
    built-in problem declares x* and f*, so its records carry energies."""
    cfg = setup.config
    if cfg.variant != "IAA" or not cfg.perturb.is_zero or result.box_warnings:
        return []  # out of box: run() warned, nothing to certify
    rho = analysis.rate_constants(problem, "T41", cfg.alpha, cfg.beta, cfg.s)["rho"]
    recs = result.records
    e1 = recs[1].energy
    gamma, L = problem.gamma, problem.lipschitz
    rel = 1.0 + 1e-9

    contraction_ok = True
    worst_k = -1
    for a, b in zip(recs[1:], recs[2:]):
        if not b.energy <= (1.0 - rho) * a.energy * rel:  # NaN violates
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
        if not (
            rec.value_error <= e1 * decay * rel
            and rec.dist**2 <= (4.0 * e1 / gamma) * decay * rel
            and rec.step**2 <= (2.0 * cfg.alpha * e1 / (L * cfg.beta)) * decay * rel
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
    perturbation, all through one :func:`inertiq.optimizers.run_rows` call,
    which picks the engine.  Writes one CSV per executed run plus
    summary.txt and checks.txt exactly when ``out_dir`` is given.
    """
    problem = builtin_problem(cfg.problem)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    stats: list[RunStats] = []
    checks: list[CheckResult] = []
    notes: list[str] = []
    # Per executed run: the setup with its seed in the perturbation, and
    # that seed (None for a deterministic run).
    plan = [
        (setup if seed is None else replace(setup, config=replace(
            setup.config, perturb=setup.config.perturb.with_seed(seed))), seed)
        for setup in cfg.runs
        for seed in cfg.seeds_of(setup)
    ]
    # One result per entry, in order, each built and warned about when due.
    results = run_rows(problem, [(setup.config, setup.x0, setup.stop) for setup, _ in plan])
    for setup, seed in plan:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = next(results)
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
            checks.extend(_t41_checks(problem, setup, result))
        if out is not None:
            write_run_csv(out / csv_name(setup.label, seed), result, setup)
        del result, series, final  # this run's records go before the next is built

    ordering = _ordering(cfg, stats)
    summary = ComparisonSummary(
        stats=tuple(stats),
        ordering=ordering,
        checks=tuple(checks),
        warnings=tuple(notes),
    )
    if out is not None:
        (out / "summary.txt").write_text(render_summary(summary), newline="\n")
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

def parse_numbers(text: str, kind=float) -> tuple:
    """Numbers split at commas, whitespace or both (``1,2``, ``1 2``), each
    converted by ``kind``: the grammar of points, box axes and seed lists."""
    return tuple(kind(tok) for tok in text.replace(",", " ").split())


def read_config(path: str | Path) -> ExperimentConfig:
    """Read a flat key-value experiment file. Any other section, a key its
    section does not read, or a file configparser cannot parse is a
    ``ValueError``; ``%`` is an ordinary character, not interpolation.

    ::

        [experiment]
        problem = example51
        seeds = 1 2 3

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
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    experiment_keys = frozenset("problem seeds".split())
    run_keys = frozenset("algo alpha beta theta step x0 tol max_iter perturb".split())
    # configparser copies [DEFAULT] keys into every section: check them once.
    defaults = set(parser.defaults())
    unknown = {parser.default_section: defaults - experiment_keys - run_keys}
    for section in parser.sections():
        if section != "experiment" and section.split()[:1] != ["run"]:
            raise ValueError(f"{path}: unknown section [{section}]")
        allowed = experiment_keys if section == "experiment" else run_keys
        unknown[section] = set(parser[section]) - defaults - allowed
    for section, keys in unknown.items():
        if keys:
            raise ValueError(f"{path}: unknown key {min(keys)!r} in [{section}]")

    def value(section: str, key: str, parse, default):
        raw = parser[section].get(key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"{path}: bad {key} in [{section}]: {exc}") from exc

    problem = parser["experiment"].get("problem", "example51")
    seeds = value("experiment", "seeds", lambda raw: parse_numbers(raw, int), (0,))
    if not seeds:
        raise ValueError(f"{path}: seeds must not be empty")

    runs: list[RunSetup] = []
    for section in parser.sections():
        if not section.startswith("run"):
            continue
        label = section[3:].strip() or f"run{len(runs)}"
        sec = parser[section]
        algo = sec.get("algo", "iaa").lower()
        if algo not in ALGO_NAMES:
            raise ValueError(f"{path}: unknown algo {algo!r} in [{section}]")
        pert = value(section, "perturb",
                     lambda raw: parse_perturbation(raw, seed=seeds[0]),
                     PerturbationSpec.none())
        coeffs = {key: value(section, key, float, 0.0) for key in ("alpha", "beta", "theta")}
        step = value(section, "step", float, None)
        tol = value(section, "tol",
                    lambda raw: float(raw) if raw and raw.lower() != "none" else None,
                    None)
        max_iter = value(section, "max_iter", int, 100_000)
        x0 = value(section, "x0", parse_numbers, (0.0,))
        try:
            config = AlgorithmConfig(ALGO_NAMES[algo], **coeffs, s=step, perturb=pert)
            stop = StoppingRule(tol=tol, max_iter=max_iter)
        except ValueError as exc:
            raise ValueError(f"{path}: bad values in [{section}]: {exc}") from exc
        runs.append(RunSetup(label, config, x0, stop))
    return ExperimentConfig(problem=problem, runs=tuple(runs), seeds=seeds)
