"""Exception hierarchy shared across the package.

The errors of a bad input (a point, a problem or a preset name) are also
``ValueError``s, so the CLI reports them as usage errors.
"""

from __future__ import annotations


class InertiqError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(InertiqError, ValueError):
    """An input vector contains NaN or Inf."""


class DimensionMismatch(InertiqError, ValueError):
    """Vector length does not match the problem dimension."""


class UnknownProblem(InertiqError, ValueError):
    """Problem identifier not recognized."""


class MissingMinimizer(InertiqError):
    """Operation requires the problem's minimizer and/or optimal value."""


class OutOfBox(InertiqError):
    """(alpha, beta, s) do not satisfy the theorem's hypotheses."""


class NonFiniteIterate(InertiqError):
    """An optimizer step produced NaN or Inf."""

    def __init__(self, message: str, last_finite_k: int | None = None):
        super().__init__(message)
        self.last_finite_k = last_finite_k


BLOWUP_NORM = 1e12  # max-norm guard of optimizer iterates and ODE states


class Divergence(InertiqError):
    """Trajectory or iterate norm exceeded the blow-up guard (1e12)."""

    def __init__(self, message: str, when: float | None = None):
        super().__init__(message)
        self.when = when


class NonPositiveTime(InertiqError):
    """Power-decay perturbation evaluated at t <= 0."""


class EmptyTrajectory(InertiqError):
    """Certificate requested on an empty record list."""


class InsufficientData(InertiqError):
    """Not enough usable points for a fit or metric."""


class UnknownPreset(InertiqError, ValueError):
    """Experiment preset name not recognized."""
