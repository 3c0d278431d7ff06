"""Counter-based perturbation models: exact laws and reproducibility."""

import numpy as np
import pytest

from inertiq import PerturbationSpec, parse_perturbation, sample_continuous, sample_discrete
from inertiq.errors import DimensionMismatch, NonPositiveTime
from inertiq.perturbations import format_perturbation


class TestNone:
    def test_zero_everywhere(self):
        spec = PerturbationSpec.none()
        np.testing.assert_array_equal(sample_discrete(spec, 1, 3), np.zeros(3))
        np.testing.assert_array_equal(sample_continuous(spec, 2.5, 2), np.zeros(2))


class TestPowerDecay:
    def test_exact_norm_at_k10(self):
        spec = PerturbationSpec.power(c0=1.0, p=2.0)
        eps = sample_discrete(spec, 10, 3)
        assert np.linalg.norm(eps) == pytest.approx(0.01, rel=1e-15)
        # fixed direction e1
        np.testing.assert_array_equal(eps[1:], [0.0, 0.0])

    def test_magnitude_law_exact(self):
        # |eps_k| * k^p == c0 to within floating-point rounding, across the
        # whole head of the index range and strided out to 10^6.
        spec = PerturbationSpec.power(c0=0.7, p=1.5)
        ks = list(range(1, 10_001)) + list(range(10_000, 1_000_001, 997)) + [10**6]
        for k in ks:
            nrm = float(np.linalg.norm(sample_discrete(spec, k, 2)))
            assert nrm * float(k) ** 1.5 == pytest.approx(0.7, rel=1e-12)

    def test_random_direction_unit_and_reproducible(self):
        spec = PerturbationSpec.power(c0=2.0, p=1.0, direction="random", seed=9)
        a = sample_discrete(spec, 5, 4)
        b = sample_discrete(spec, 5, 4)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(2.0 / 5.0, rel=1e-12)
        c = sample_discrete(spec, 6, 4)
        assert not np.array_equal(a, c)

    def test_explicit_direction_is_normalized(self):
        spec = PerturbationSpec.power(c0=1.0, p=1.0, direction=(3.0, 4.0))
        np.testing.assert_array_equal(sample_discrete(spec, 1, 2), [0.6, 0.8])

    def test_explicit_direction_longer_than_dimension(self):
        # (0, 1) at d = 1 used to be truncated to (0,) and normalized to nan
        spec = PerturbationSpec.power(c0=1.0, p=1.0, direction=(0.0, 1.0))
        with pytest.raises(DimensionMismatch):
            sample_discrete(spec, 1, 1)
        with pytest.raises(DimensionMismatch):
            sample_continuous(spec, 1.0, 1)

    def test_explicit_direction_shorter_than_dimension(self):
        # (1, 0) at d = 3 used to be tiled to (1, 0, 1)
        spec = PerturbationSpec.power(c0=1.0, p=1.0, direction=(1.0, 0.0))
        with pytest.raises(DimensionMismatch):
            sample_discrete(spec, 1, 3)

    def test_continuous_profile(self):
        spec = PerturbationSpec.power(c0=2.0, p=1.0)
        eps = sample_continuous(spec, 4.0, 2)
        assert np.linalg.norm(eps) == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_time(self):
        spec = PerturbationSpec.power(c0=1.0, p=1.0)
        with pytest.raises(NonPositiveTime):
            sample_continuous(spec, 0.0, 1)

    def test_square_integrability_witness(self):
        # For p > 1/2 the tail integral of |eps(t)|^2 = c0^2 / t^(2p) vanishes:
        # successive trapezoid-rule tails shrink below 1e-6.
        c0, p = 0.5, 1.0
        tails = []
        for t_lo in (10.0**3, 10.0**6, 10.0**7):
            grid = np.linspace(t_lo, t_lo * 10.0, 200_001)
            vals = c0**2 / grid ** (2.0 * p)
            tails.append(float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))))
        assert tails[1] < 1e-6 and tails[2] < 1e-6
        assert tails[2] < tails[1] < tails[0]


class TestGaussianDecay:
    def test_sigma_schedule(self):
        spec = PerturbationSpec.gaussian(sigma0=0.001, decay=0.01)
        assert spec.sigma_at(100) == pytest.approx(0.0005)

    def test_empirical_std(self):
        # per-coordinate standard deviation over 1e5 counter draws at k=100
        spec = PerturbationSpec.gaussian(sigma0=0.001, decay=0.01, seed=77)
        draws = sample_discrete(spec, 100, 100_000)
        assert draws.std() == pytest.approx(0.0005, rel=0.02)
        assert abs(draws.mean()) < 1e-5

    def test_counter_reproducibility(self):
        spec = PerturbationSpec.gaussian(sigma0=0.1, decay=0.0, seed=123)
        # out-of-order and repeated sampling give identical vectors
        late = sample_discrete(spec, 500, 3)
        early = sample_discrete(spec, 2, 3)
        np.testing.assert_array_equal(sample_discrete(spec, 500, 3), late)
        np.testing.assert_array_equal(sample_discrete(spec, 2, 3), early)
        assert not np.array_equal(late, early)

    def test_seed_sensitivity(self):
        a = sample_discrete(PerturbationSpec.gaussian(0.1, 0.0, seed=1), 7, 4)
        b = sample_discrete(PerturbationSpec.gaussian(0.1, 0.0, seed=2), 7, 4)
        assert not np.array_equal(a, b)

    def test_continuous_needs_step(self):
        spec = PerturbationSpec.gaussian(0.1, 0.0, seed=5)
        with pytest.raises(ValueError):
            sample_continuous(spec, 1.0, 2)
        a = sample_continuous(spec, 1.0, 2, step=3)
        b = sample_continuous(spec, 1.0, 2, step=3)
        np.testing.assert_array_equal(a, b)

    def test_golden_draws(self):
        """Frozen reference outputs: the hash-and-transform pipeline is part
        of the reproducibility contract, so any change must break loudly."""
        from inertiq.perturbations import counter_standard_normal, counter_uniform

        np.testing.assert_array_equal(
            counter_uniform(0, 1, 4),
            [0.0010292855246878396, 0.09570174982587298,
             0.26811323739791537, 0.9125047464641289],
        )
        np.testing.assert_array_equal(
            counter_standard_normal(42, 7, 3),
            [1.4243104161833786, 1.1999493922623983, -0.006707426144506736],
        )
        np.testing.assert_array_equal(
            sample_discrete(PerturbationSpec.gaussian(0.001, 0.01, seed=1), 100, 2),
            [-0.0006229386410822076, 0.00019357278360688872],
        )


class TestGrammar:
    def test_parse_none(self):
        assert parse_perturbation("none").model == "none"

    def test_parse_power(self):
        spec = parse_perturbation("power:c0=0.1,p=2,dir=e1", seed=4)
        assert spec.model == "power_decay"
        assert spec.c0 == 0.1 and spec.p == 2.0 and spec.seed == 4
        assert format_perturbation(spec) == "power:c0=0.1,p=2,dir=e1"

    def test_parse_gauss(self):
        spec = parse_perturbation("gauss:sigma0=0.001,decay=0.01", seed=8)
        assert spec.model == "gaussian_decay"
        assert spec.sigma0 == 0.001 and spec.decay == 0.01 and spec.seed == 8

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_perturbation("bogus:a=1")
        with pytest.raises(ValueError):
            parse_perturbation("power:c0")

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            PerturbationSpec.power(c0=-1.0, p=1.0)
        with pytest.raises(ValueError):
            PerturbationSpec.power(c0=1.0, p=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec(model="gaussian_decay", sigma0=-0.1)
