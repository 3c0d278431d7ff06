"""Empirical rate fitting, the geometric-tail summation oracle, and the
direction-reversal oscillation metric.

Fits are least squares on log-transformed data over the trailing window of
a series; asymptotic rates, not transients, are what the theory speaks
about, so the default window is the second half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientData

# Values at or below this are dropped before the log transform; value
# errors saturate near machine epsilon and would corrupt slope fits.
VALUE_FLOOR = 1e-15


@dataclass(frozen=True)
class RateFit:
    """Fitted decay law.

    kind "exponential": value ~ C exp(-rate * index); kind "power":
    value ~ C index^(-rate).  rate is the decay constant (the regression
    slope is -rate), r_squared in [0, 1], window the (first, last) index
    values actually used.
    """

    kind: str
    rate: float
    r_squared: float
    window: tuple[float, float]


def fit_rate(
    series: Iterable[tuple[float, float]],
    kind: str = "exponential",
    window_fraction: float = 0.5,
    floor: float = VALUE_FLOOR,
) -> RateFit:
    """Least-squares decay fit over the last ``window_fraction`` of a series.

    series yields (index, value) pairs with value >= 0.  Values <= floor
    are excluded (set floor = 0.0 to keep all positive values; the default
    guards against machine-epsilon saturation).  Requires at least 10
    usable points in the window.
    """
    if kind not in ("exponential", "power"):
        raise ValueError(f"unknown fit kind {kind!r}")
    if not (0.0 < window_fraction <= 1.0):
        raise ValueError("window_fraction must lie in (0, 1]")
    arr = np.asarray(list(series), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be (index, value) pairs")
    n = arr.shape[0]
    start = n - max(1, int(np.ceil(window_fraction * n)))
    win = arr[start:]
    mask = win[:, 1] > floor
    if kind == "power":
        mask &= win[:, 0] > 0
    used = win[mask]
    if used.shape[0] < 10:
        raise InsufficientData(
            f"need >= 10 positive values in the window, got {used.shape[0]}"
        )
    x = used[:, 0] if kind == "exponential" else np.log(used[:, 0])
    y = np.log(used[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        kind=kind,
        rate=float(-slope),
        r_squared=float(min(1.0, max(0.0, r2))),
        window=(float(used[0, 0]), float(used[-1, 0])),
    )


def geometric_sum_oracle(
    theta: float, q: float, k_max: int
) -> tuple[float, bool]:
    """Directly sum S_k = sum_{i<=k} theta^(k-i) i^(-q) and test the tail law.

    Returns (max over k of S_k * k^q, bounded) where bounded means the
    scaled sequence is nonincreasing over the final 10% of indices within
    1e-9 slack -- the computational witness that S_k decays like k^(-q).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    if not (q > 0):
        raise ValueError("q must be positive")
    if k_max < 10:
        raise ValueError("k_max must be >= 10")
    scaled = np.empty(k_max)
    s = 0.0
    for k in range(1, k_max + 1):
        s = theta * s + float(k) ** (-q)
        scaled[k - 1] = s * float(k) ** q
    tail = scaled[int(0.9 * k_max) - 1 :]
    bounded = bool(np.all(np.diff(tail) <= 1e-9))
    return float(scaled.max()), bounded


def oscillation_metric(records: Sequence) -> float:
    """Fraction of steps whose direction reverses.

    Counts k with <x_{k+1} - x_k, x_k - x_{k-1}> < 0, normalized by the
    number of consecutive step pairs.  Scale-free: the count depends only
    on inner-product signs.  Accepts iterate records (with an ``x`` field)
    or a plain sequence of points.
    """
    if len(records) < 3:
        raise InsufficientData("oscillation metric needs >= 3 records")
    pts = np.asarray([getattr(r, "x", r) for r in records], dtype=np.float64)
    steps = np.diff(pts.reshape(len(pts), -1), axis=0)  # a scalar is a 1-vector
    inner = np.sum(steps[1:] * steps[:-1], axis=1)
    return float(np.count_nonzero(inner < 0.0) / inner.shape[0])
