"""Problems shared by more than one test module."""

import numpy as np

from inertiq.problems import Problem


def shifted_quadratic(spectrum, xstar):
    """f(x) = 1/2 sum_i lambda_i (x_i - x*_i)^2, whose minimizer is not 0."""
    lam, xstar = np.array(spectrum), np.array(xstar)
    return Problem(dimension=lam.size,
                   func=lambda x: float(0.5 * np.dot(lam * (x - xstar), x - xstar)),
                   grad=lambda x: lam * (x - xstar), gamma=float(lam.min()),
                   lipschitz=float(lam.max()), minimizer=xstar, min_value=0.0)
