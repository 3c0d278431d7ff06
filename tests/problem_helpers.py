"""Problems and reference loops shared by more than one test module."""

import dataclasses

import numpy as np

from inertiq.optimizers import run
from inertiq.problems import Problem


def shifted_quadratic(spectrum, xstar):
    """f(x) = 1/2 sum_i lambda_i (x_i - x*_i)^2, whose minimizer is not 0."""
    lam, xstar = np.array(spectrum), np.array(xstar)
    return Problem(dimension=lam.size,
                   func=lambda x: float(0.5 * np.dot(lam * (x - xstar), x - xstar)),
                   grad=lambda x: lam * (x - xstar), gamma=float(lam.min()),
                   lipschitz=float(lam.max()), minimizer=xstar, min_value=0.0)


def seed_rows(cfg, seeds, x0, stop=None):
    """The ``run_rows`` runs of one config for each seed: one group."""
    return [(dataclasses.replace(cfg, perturb=cfg.perturb.with_seed(seed)), x0, stop)
            for seed in seeds]


def one_run_per_row(problem, runs):
    """The sequential loop that ``run_rows`` replaces: one run() per run."""
    for cfg, x0, stop in runs:
        yield run(problem, cfg, x0, stop=stop)
