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


def one_run_per_seed(problem, cfg, seeds, x0, stop=None):
    """The sequential loop that ``run_seeds`` replaces: one run() per seed."""
    for seed in seeds:
        yield run(problem, dataclasses.replace(cfg, perturb=cfg.perturb.with_seed(seed)),
                  x0, stop=stop)
