"""Rate fitting, geometric-tail oracle, oscillation metric."""

import math

import numpy as np
import pytest

from inertiq import (
    AlgorithmConfig,
    StoppingRule,
    builtin_problem,
    fit_rate,
    geometric_sum_oracle,
    oscillation_metric,
    rate_constants,
    run,
)
from inertiq.errors import InsufficientData


class TestFitRate:
    def test_exact_exponential(self):
        ks = np.arange(1, 101, dtype=float)
        series = [(k, math.exp(-0.3 * k)) for k in ks]
        fit = fit_rate(series, "exponential", window_fraction=1.0)
        assert fit.rate == pytest.approx(0.3, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_power(self):
        ks = np.arange(1, 101, dtype=float)
        series = [(k, k**-2.0) for k in ks]
        fit = fit_rate(series, "power", window_fraction=1.0)
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_selection(self):
        # slope changes halfway; the default window sees only the tail
        series = [(float(k), math.exp(-0.1 * k)) for k in range(1, 51)]
        series += [(float(k), series[-1][1] * math.exp(-0.5 * (k - 50))) for k in range(51, 101)]
        fit = fit_rate(series, "exponential", window_fraction=0.5)
        assert fit.rate == pytest.approx(0.5, abs=1e-2)
        assert fit.window[0] >= 50.0

    def test_floor_excludes_saturated_values(self):
        series = [(float(k), math.exp(-2.0 * k)) for k in range(1, 40)]
        fit = fit_rate(series, "exponential", window_fraction=1.0)
        # values below 1e-15 (k > ~17) are dropped
        assert fit.window[1] <= 18.0
        assert fit.rate == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_rate([(1.0, 1.0), (2.0, 0.5)], "exponential")
        with pytest.raises(InsufficientData):
            fit_rate([(float(k), 0.0) for k in range(1, 100)], "exponential")

    def test_benchmark_run_beats_certified_floor(self):
        p = builtin_problem("example51")
        res = run(p, AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0),
                  [3.0], stop=StoppingRule(tol=1e-10))
        # the benchmark run converges in ~14 iterations; fit the whole series
        fit = fit_rate([(r.k, r.value_error) for r in res.records],
                       "exponential", window_fraction=1.0)
        rho = rate_constants(p, "T41", 0.3, 0.2, 1.0 / 6.0)["rho"]
        assert fit.rate >= -math.log(1.0 - rho)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0)] * 20, kind="linear")
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0)] * 20, window_fraction=0.0)


class TestGeometricSumOracle:
    def test_simple_case_bounded(self):
        max_scaled, bounded = geometric_sum_oracle(0.5, 1.0, 10_000)
        assert bounded
        assert max_scaled < 1.0 / (1.0 - 0.5) + 1.0

    def test_theta_to_zero_limit(self):
        # S_k ~ a_k, so S_k k^q ~ 1
        max_scaled, bounded = geometric_sum_oracle(1e-12, 2.0, 1000)
        assert bounded
        assert max_scaled == pytest.approx(1.0, abs=1e-9)

    def test_tail_envelope(self):
        """The scaled sums stay under the splitting bound
        2^q/(1-theta) + k^(q+1) theta^(k/2)."""
        theta, q, k_max = 0.9, 2.0, 10_000
        max_scaled, bounded = geometric_sum_oracle(theta, q, k_max)
        assert bounded
        s = 0.0
        for k in range(1, k_max + 1):
            s = theta * s + float(k) ** -q
            envelope = 2.0**q / (1.0 - theta) + float(k) ** (q + 1) * theta ** (k / 2.0)
            assert s * float(k) ** q <= envelope

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_sum_oracle(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            geometric_sum_oracle(0.5, -1.0, 100)
        with pytest.raises(ValueError):
            geometric_sum_oracle(0.5, 1.0, 5)


class TestOscillationMetric:
    def test_monotone_sequence(self):
        pts = [np.array([float(k)]) for k in range(10)]
        assert oscillation_metric(pts) == 0.0

    def test_alternating_sequence(self):
        pts = [np.array([(-1.0) ** k]) for k in range(10)]
        assert oscillation_metric(pts) == 1.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(23)
        pts = [rng.normal(size=3) for _ in range(50)]
        base = oscillation_metric(pts)
        scaled = oscillation_metric([700.0 * p for p in pts])
        assert base == scaled

    def test_accepts_iterate_records(self):
        p = builtin_problem("example51")
        res = run(p, AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0),
                  [3.0], stop=StoppingRule(tol=1e-10))
        m = oscillation_metric(res.records)
        assert 0.0 <= m <= 1.0

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            oscillation_metric([np.zeros(1), np.zeros(1)])

    @staticmethod
    def _per_point_reference(records):
        """The metric as it was first written: one np.atleast_1d per point."""
        pts = np.asarray([np.atleast_1d(getattr(r, "x", r)) for r in records],
                         dtype=np.float64)
        steps = np.diff(pts, axis=0)
        inner = np.sum(steps[1:] * steps[:-1], axis=1)
        return float(np.count_nonzero(inner < 0.0) / inner.shape[0])

    @pytest.mark.parametrize("name, x0", [("example51", [3.0]), ("example52", [3.0, 3.0])])
    def test_records_match_per_point_reference(self, name, x0):
        res = run(builtin_problem(name), AlgorithmConfig("HBM", alpha=0.7, beta=0.04),
                  x0, stop=StoppingRule(tol=None, max_iter=200))
        assert oscillation_metric(res.records) == self._per_point_reference(res.records)

    def test_scalars_match_per_point_reference(self):
        pts = list(np.random.default_rng(5).normal(size=40))
        assert (oscillation_metric(pts) == self._per_point_reference(pts)
                == oscillation_metric([float(p) for p in pts]))
        assert 0.0 < oscillation_metric(pts) < 1.0
