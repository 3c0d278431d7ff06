"""Command-line interface.

Subcommands: ``check`` (assumption reports and parameter boxes), ``ode``
(continuous-time integration), ``opt`` (single algorithm run), ``exp``
(benchmark presets / config files), ``rate`` (decay fits on run CSVs).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path


from . import analysis, dynamics, experiments, optimizers, rates
from .errors import Divergence, InertiqError
from .perturbations import parse_perturbation
from .problems import builtin_problem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


def _parse_box(text: str, dim: int):
    pairs = [experiments.parse_numbers(seg) for seg in text.split(";") if seg.strip()]
    if any(len(p) != 2 for p in pairs):
        raise ValueError(f"bad box spec {text!r}; use 'lo,hi' or 'lo,hi;lo,hi'")
    if len(pairs) == 1:
        return pairs[0]
    if len(pairs) != dim:
        raise ValueError(f"box has {len(pairs)} axes, problem has {dim}")
    return pairs


def build_parser() -> argparse.ArgumentParser:
    seed, out_dir, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=0, help="global seed")
    out_dir.add_argument("--out-dir", default=None, help="output directory")
    quiet.add_argument("--quiet", action="store_true", help="suppress chatter")

    parser = argparse.ArgumentParser(
        prog="inertiq",
        description="Inertial accelerated methods with implicit Hessian damping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[seed, quiet], help="assumption reports and parameter boxes")
    p.add_argument("--problem", default="example51")
    p.add_argument("--box", default=None, help="'lo,hi' or per-axis 'lo,hi;lo,hi'")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--theorem", choices=analysis.THEOREMS, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help="IAA step size s")
    p.add_argument("--csv", default=None, help="also write reports as CSV")

    p = sub.add_parser("ode", parents=[seed, quiet], help="integrate the continuous system")
    p.add_argument("--problem", default="example51")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--perturb", default="none")
    p.add_argument("--x0", type=experiments.parse_numbers, required=True)
    p.add_argument("--v0", type=experiments.parse_numbers, default=None)
    p.add_argument("--t0", type=float, default=None, help="default 0, or 1 for perturbed runs")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", default=None, help="trajectory CSV path")

    p = sub.add_parser("opt", parents=[seed, quiet], help="run one algorithm")
    p.add_argument("--problem", default="example51")
    p.add_argument("--algo", choices=list(optimizers.ALGO_NAMES), default="iaa")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--step", type=float, default=None, help="IAA step size s")
    p.add_argument("--perturb", default="none")
    p.add_argument("--x0", type=experiments.parse_numbers, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--no-tol", action="store_true", help="run to max-iter")
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--out", default=None, help="iterate CSV path")

    # No abbreviations: "--seed" would silently abbreviate "--seeds".
    p = sub.add_parser("exp", parents=[out_dir, quiet], allow_abbrev=False,
                       help="run a preset or config file")
    p.add_argument(
        "target", help=f"preset name ({'|'.join(experiments.PRESETS)}) or config path"
    )
    p.add_argument("--seeds", default=None, help="comma-separated seed list override")

    p = sub.add_parser("rate", help="fit a decay rate from a run CSV")
    p.add_argument("csv", help="CSV produced by opt/ode/exp")
    p.add_argument("--column", default="value_error")
    p.add_argument("--kind", choices=["exponential", "power"], default="exponential")
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--floor", type=float, default=rates.VALUE_FLOOR)
    p.add_argument(
        "--min-rate",
        type=float,
        default=None,
        help="exit nonzero when the fitted rate falls below this floor",
    )
    return parser


def cmd_check(args) -> int:
    problem = builtin_problem(args.problem)
    given = [f"--{opt}" for opt in ("alpha", "beta", "step") if getattr(args, opt) is not None]
    if given and args.theorem is None:
        raise ValueError(f"--theorem is needed for {', '.join(given)}")
    if args.beta is not None and args.alpha is None:
        raise ValueError("--alpha is needed for --beta")
    lines: list[str] = []
    failed = False
    if args.theorem is None or args.box is not None:
        box_spec = args.box or "-10,10"
        domain = _parse_box(box_spec, problem.dimension)
        reports = analysis.check_assumptions(
            problem, domain, samples=args.samples, seed=args.seed
        )
        lines.append(f"{'assumption':12s} {'samples':>8s} {'violations':>11s} {'worst_margin':>14s} {'pass':>6s}")
        for rep in reports:
            lines.append(
                f"{rep.assumption:12s} {rep.samples:>8d} {rep.violations:>11d} "
                f"{rep.worst_margin:>14.4e} {str(rep.passed):>6s}"
            )
            failed |= not rep.passed
        if args.csv:
            rows = ["assumption,samples,violations,worst_margin,pass"]
            rows += [
                f"{r.assumption},{r.samples},{r.violations},"
                f"{experiments.format_float(r.worst_margin)},{int(r.passed)}"
                for r in reports
            ]
            Path(args.csv).write_text("\n".join(rows) + "\n", newline="\n")
    if args.theorem:
        box = analysis.parameter_box(
            problem, args.theorem, alpha=args.alpha, s=args.step
        )
        lines.append(f"{args.theorem}: alpha in {box.alpha}")
        if box.beta is not None:
            lines.append(f"  beta at alpha={args.alpha:g}: {box.beta}")
        for key, val in box.derived.items():
            lines.append(f"  {key} = {val:.10g}")
        if args.alpha is not None and args.beta is not None:
            consts = analysis.rate_constants(
                problem, args.theorem, args.alpha, args.beta, s=args.step
            )
            for key, val in consts.items():
                lines.append(f"  {key} = {val:.10g}")
    if not args.quiet or failed:
        print("\n".join(lines))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_ode(args) -> int:
    problem = builtin_problem(args.problem)
    pert = parse_perturbation(args.perturb, seed=args.seed)
    t0 = args.t0
    if t0 is None:
        t0 = 1.0 if pert.model == "power_decay" else 0.0
    v0 = args.v0 if args.v0 is not None else (0.0,) * problem.dimension
    records = dynamics.integrate(
        problem,
        args.alpha,
        args.beta,
        pert,
        args.x0,
        v0,
        t0=t0,
        t_end=args.t_end,
        dt=args.dt,
        record_every=args.record_every,
    )
    if args.out:
        note = (
            f"ode problem={args.problem} alpha={args.alpha:g} beta={args.beta:g} "
            f"perturb={args.perturb} seed={args.seed} dt={args.dt:g}"
        )
        experiments.write_records_csv(Path(args.out), records, note)
    if not args.quiet:
        last = records[-1]
        print(
            f"t={last.t:g} value_error={last.value_error:.6e} "
            f"traj_error={last.traj_error:.6e} speed={last.speed:.6e} "
            f"energy={last.energy:.6e} ({len(records)} records)"
        )
    return EXIT_OK


def cmd_opt(args) -> int:
    problem = builtin_problem(args.problem)
    pert = parse_perturbation(args.perturb, seed=args.seed)
    cfg = optimizers.AlgorithmConfig(
        variant=optimizers.ALGO_NAMES[args.algo],
        alpha=args.alpha,
        beta=args.beta,
        theta=args.theta,
        s=args.step,
        perturb=pert,
    )
    stop = optimizers.StoppingRule(
        tol=None if args.no_tol else args.tol, max_iter=args.max_iter
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = optimizers.run(problem, cfg, args.x0, stop=stop)
    if args.out:
        setup = experiments.RunSetup(args.algo, cfg, args.x0, stop)
        experiments.write_run_csv(Path(args.out), result, setup)
    if not args.quiet:
        final = result.final
        print(
            f"{args.algo}: k={final.k} trigger={result.trigger} "
            f"value_error={final.value_error:.6e} dist={final.dist:.6e} "
            f"grad_evals={result.n_grad_evals}"
        )
        for w in caught:
            print(f"warning: {w.message}")
    return EXIT_OK


def cmd_exp(args) -> int:
    target = args.target
    if target in experiments.PRESETS:
        cfg = experiments.preset(target)
    elif Path(target).exists():
        cfg = experiments.read_config(target)
    else:
        raise ValueError(f"{target!r} is neither a preset nor a config file")
    if args.seeds is not None:
        if not any(r.config.perturb.is_stochastic for r in cfg.runs):
            raise ValueError(f"--seeds would be ignored: no run of {target} is stochastic")
        cfg = dataclasses.replace(cfg, seeds=experiments.parse_numbers(args.seeds, int))
    summary = experiments.execute(cfg, out_dir=args.out_dir)
    if not args.quiet:
        print(experiments.render_summary(summary))
    return EXIT_OK if summary.all_checks_passed else EXIT_CHECK_FAILED


def _load_series(path: str, column: str) -> list[tuple[float, float]]:
    lines = [
        ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path} has no header row")
    header = lines[0].split(",")
    if column not in header:
        raise ValueError(f"column {column!r} not in {header}")
    idx_col = 0  # k for opt CSVs, t for ode CSVs
    col = header.index(column)
    series = []
    for ln in lines[1:]:
        parts = ln.split(",")
        series.append((float(parts[idx_col]), float(parts[col])))
    return series


def cmd_rate(args) -> int:
    series = _load_series(args.csv, args.column)
    fit = rates.fit_rate(
        series, kind=args.kind, window_fraction=args.window, floor=args.floor
    )
    print(
        f"{args.kind} fit on {args.column}: rate={fit.rate:.6g} "
        f"r2={fit.r_squared:.6f} window=[{fit.window[0]:g}, {fit.window[1]:g}]"
    )
    if args.min_rate is not None and fit.rate < args.min_rate:
        print(f"rate {fit.rate:.6g} below required floor {args.min_rate:.6g}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


_DISPATCH = {
    "check": cmd_check,
    "ode": cmd_ode,
    "opt": cmd_opt,
    "exp": cmd_exp,
    "rate": cmd_rate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except Divergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InertiqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
