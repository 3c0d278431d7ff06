"""Exception hierarchy shared across the package.

A run that leaves the finite region raises :class:`Divergence`; a bad
argument, point, problem or preset name raises ``ValueError``, which the
CLI reports as a usage error.  The classes here are the ones a caller
catches by name.
"""

from __future__ import annotations


class InertiqError(Exception):
    """Base class for all package errors."""


class OutOfBox(InertiqError):
    """(alpha, beta, s) do not satisfy the theorem's hypotheses."""


BLOWUP_NORM = 1e12  # max-norm guard of optimizer iterates and ODE states


class Divergence(InertiqError):
    """Trajectory or iterate norm passed the blow-up guard (1e12) or turned
    NaN or inf; ``when`` is the first iterate k or time t past it."""

    def __init__(self, message: str, when: float | None = None):
        super().__init__(message)
        self.when = when


class InsufficientData(InertiqError):
    """Not enough usable points for a fit or metric."""
