"""Counter-based perturbation models: exact laws and reproducibility."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inertiq import PerturbationSpec, parse_perturbation, sample_continuous, sample_discrete
from inertiq.errors import DimensionMismatch, NonPositiveTime
from inertiq.perturbations import (
    counter_standard_normal,
    counter_uniform,
    format_perturbation,
)


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


# The two-call generator (one key and one masked splitmix64 per Box-Muller
# lane), kept as the reference that the single-pass generator must equal bit
# for bit.
_REF_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _ref_splitmix64(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & _REF_MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _REF_MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _REF_MASK
    return z ^ (z >> np.uint64(31))


def _ref_splitmix64_int(z):
    mask = 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _ref_key(seed, index):
    s = seed & 0xFFFFFFFFFFFFFFFF
    k = index & 0xFFFFFFFFFFFFFFFF
    return _ref_splitmix64_int(_ref_splitmix64_int(s) ^ _ref_splitmix64_int(k))


def _ref_counter_uniform(seed, index, n, lane=0):
    base = (_ref_key(seed, index) + (lane & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    ctr = (np.uint64(base) + np.arange(n, dtype=np.uint64)) & _REF_MASK
    bits = _ref_splitmix64(ctr)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def _ref_counter_standard_normal(seed, index, n):
    u1 = _ref_counter_uniform(seed, index, n, lane=0)
    u2 = _ref_counter_uniform(seed, index, n, lane=1 << 32)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


# seeds, indices and lanes: negatives, 0, the 2^64 wrap and beyond
_KEYS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64 - 8, max_value=2**64 + 8),
    st.sampled_from([0, -1, 2**63, -(2**64)]),
)
_LANES = st.one_of(st.sampled_from([0, 1 << 32]), _KEYS)


class TestSinglePassMatchesReference:
    @settings(max_examples=500, database=None, derandomize=True)
    @given(seed=_KEYS, index=_KEYS, n=st.integers(min_value=0, max_value=64), lane=_LANES)
    @example(seed=7, index=2**64 + 3, n=2**16, lane=1 << 32)
    def test_bitwise_equal(self, seed, index, n, lane):
        normal = counter_standard_normal(seed, index, n)
        uniform = counter_uniform(seed, index, n, lane)
        assert normal.shape == uniform.shape == (n,)
        assert normal.dtype == uniform.dtype == np.float64
        assert normal.tobytes() == _ref_counter_standard_normal(seed, index, n).tobytes()
        assert uniform.tobytes() == _ref_counter_uniform(seed, index, n, lane).tobytes()

    def test_default_lane(self):
        np.testing.assert_array_equal(counter_uniform(3, 4, 5), counter_uniform(3, 4, 5, 0))


class TestDrawProperties:
    """Counter-based draws are pure values: independent of call order, each
    one a fresh array, and free of uint64 overflow warnings."""

    @settings(max_examples=100, database=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(_KEYS, _KEYS), min_size=1, max_size=12, unique=True),
           n=st.integers(min_value=0, max_value=8), data=st.data())
    def test_call_order_independent(self, pairs, n, data):
        shuffled = data.draw(st.permutations(pairs))

        def draw_all(order):
            return {p: (counter_standard_normal(*p, n).tobytes(),
                        counter_uniform(*p, n, lane=p[0]).tobytes()) for p in order}

        assert draw_all(shuffled) == draw_all(sorted(pairs))

    def test_fresh_writable_arrays(self):
        gauss = PerturbationSpec.gaussian(0.1, 0.0, seed=4)
        draws = [
            counter_standard_normal(4, 9, 3),
            counter_standard_normal(4, 9, 3),
            counter_uniform(4, 9, 3),
            counter_uniform(4, 9, 3, lane=1 << 32),
            sample_discrete(gauss, 9, 3),
            sample_continuous(gauss, 1.0, 3, step=8),
        ]
        for a, b in itertools.combinations(draws, 2):
            assert not np.shares_memory(a, b)
        for a in draws:
            assert a.flags.writeable and a.flags.c_contiguous
        before = counter_standard_normal(4, 9, 3).copy()
        draws[0][:] = 0.0
        np.testing.assert_array_equal(counter_standard_normal(4, 9, 3), before)

    @pytest.mark.parametrize("seed, index", [
        (2**64 - 1, 2**64 - 1), (-1, -1), (2**65 + 3, 0), (0, -(2**64) - 1),
    ])
    def test_no_overflow_warnings(self, seed, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter_standard_normal(seed, index, 5)
            counter_uniform(seed, index, 5, lane=2**64 - 1)
            sample_discrete(PerturbationSpec.gaussian(0.1, 0.0, seed=seed), 1, 5)
