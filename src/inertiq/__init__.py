"""Inertial accelerated optimization with implicit Hessian-driven damping.

A library plus CLI for minimizing strongly quasiconvex functions with the
extrapolated-gradient inertial method, its perturbed variant, and the
classical momentum baselines, together with the continuous-time dynamics,
Lyapunov energy diagnostics, assumption validators, and certified
convergence-rate constants.
"""

from .analysis import (
    AssumptionReport,
    Interval,
    ParameterBox,
    check_assumptions,
    continuous_energy,
    discrete_energy,
    parameter_box,
    rate_constants,
)
from .dynamics import TrajectoryRecord, integrate, rate_certificate
from .experiments import (
    ComparisonSummary,
    ExperimentConfig,
    RunSetup,
    execute,
    preset,
    read_config,
)
from .optimizers import (
    AlgorithmConfig,
    IterateRecord,
    RunResult,
    StoppingRule,
    run,
    step_baseline,
    step_iaa,
)
from .perturbations import (
    PerturbationSpec,
    parse_perturbation,
    sample_continuous,
    sample_discrete,
)
from .problems import Problem, as_point, builtin_problem, make_quadratic
from .rates import RateFit, fit_rate, geometric_sum_oracle, oscillation_metric

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "AssumptionReport",
    "ComparisonSummary",
    "ExperimentConfig",
    "Interval",
    "IterateRecord",
    "ParameterBox",
    "PerturbationSpec",
    "Problem",
    "RateFit",
    "RunResult",
    "RunSetup",
    "StoppingRule",
    "TrajectoryRecord",
    "as_point",
    "builtin_problem",
    "check_assumptions",
    "continuous_energy",
    "discrete_energy",
    "execute",
    "fit_rate",
    "geometric_sum_oracle",
    "integrate",
    "make_quadratic",
    "oscillation_metric",
    "parameter_box",
    "parse_perturbation",
    "preset",
    "rate_certificate",
    "rate_constants",
    "read_config",
    "run",
    "sample_continuous",
    "sample_discrete",
    "step_baseline",
    "step_iaa",
]
