"""Discrete algorithms: step formulas, runs, reductions, certified bounds."""

import dataclasses
import importlib.util
import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertiq import (
    AlgorithmConfig,
    PerturbationSpec,
    StoppingRule,
    builtin_problem,
    make_quadratic,
    rate_constants,
    run,
    step_baseline,
    step_iaa,
)
from inertiq import optimizers
from inertiq.errors import Divergence, NonFiniteIterate
from inertiq.problems import Problem


@pytest.fixture(scope="module")
def sine_well():
    return builtin_problem("example51")


IAA_BENCH = dict(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0)
VARIANTS = ("IAA", "HBM", "NAG", "HBM_H", "NAG_H")


def _bench_config(variant):
    """The fig12 coefficients of each variant."""
    if variant == "IAA":
        return AlgorithmConfig(**IAA_BENCH)
    return AlgorithmConfig(variant=variant, alpha=0.7, beta=1.0 / 24.0, theta=0.05)


class TestStepIaa:
    def test_fixed_point(self, sine_well):
        cfg = AlgorithmConfig(**IAA_BENCH)
        xstar = np.array([0.0])
        np.testing.assert_array_equal(step_iaa(sine_well, cfg, xstar, xstar), xstar)

    def test_equal_iterates_step(self, sine_well):
        # x1 = x0 = 3: momentum vanishes, x2 = 3 - s grad f(3)
        cfg = AlgorithmConfig(**IAA_BENCH)
        x = np.array([3.0])
        x2 = step_iaa(sine_well, cfg, x, x)
        expected = 3.0 - (6.0 + 2.0 * math.sin(6.0)) / 6.0
        assert x2[0] == pytest.approx(expected, rel=1e-15)
        assert x2[0] == pytest.approx(2.093139, abs=1e-6)

    def test_perturbation_cancels_gradient(self, sine_well):
        # eps_k = grad f(z_k) makes the +s*eps_k term cancel the gradient
        # step exactly, leaving the bare momentum point y_k
        cfg = AlgorithmConfig(**IAA_BENCH)
        xk, xk1 = np.array([2.0]), np.array([1.5])
        z = xk + cfg.beta * (xk - xk1)
        eps = sine_well.grad(z)
        x2 = step_iaa(sine_well, cfg, xk, xk1, eps)
        y = xk + cfg.alpha * (xk - xk1)
        np.testing.assert_allclose(x2, y, rtol=1e-12)


class TestStepBaseline:
    def test_hbm_fixed_point(self, sine_well):
        cfg = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        xstar = np.array([0.0])
        g = sine_well.grad(xstar)
        x2 = step_baseline(sine_well, cfg, xstar, xstar, g, g)
        np.testing.assert_array_equal(x2, xstar)

    def test_hbm_equal_iterates(self, sine_well):
        cfg = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        x = np.array([3.0])
        g = sine_well.grad(x)
        x2 = step_baseline(sine_well, cfg, x, x, g, g)
        expected = 3.0 - (6.0 + 2.0 * math.sin(6.0)) / 24.0
        assert x2[0] == pytest.approx(expected, rel=1e-15)
        assert x2[0] == pytest.approx(2.773285, abs=1e-6)

    def test_hbm_h_theta_zero_is_hbm(self, sine_well):
        plain = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        hess = AlgorithmConfig(variant="HBM_H", alpha=0.7, beta=1.0 / 24.0, theta=0.0)
        xk, xk1 = np.array([2.0]), np.array([2.5])
        gk, gk1 = sine_well.grad(xk), sine_well.grad(xk1)
        a = step_baseline(sine_well, plain, xk, xk1, gk, gk1)
        b = step_baseline(sine_well, hess, xk, xk1, gk, gk1)
        np.testing.assert_array_equal(a, b)

    def test_nag_uses_extrapolated_gradient(self, sine_well):
        cfg = AlgorithmConfig(variant="NAG", alpha=0.7, beta=1.0 / 24.0)
        xk, xk1 = np.array([2.0]), np.array([2.5])
        x2 = step_baseline(sine_well, cfg, xk, xk1, sine_well.grad(xk), sine_well.grad(xk1))
        y = xk + 0.7 * (xk - xk1)
        np.testing.assert_allclose(x2, y - cfg.beta * sine_well.grad(y), rtol=1e-15)


def _step_baseline_reference(problem, cfg, x_k, x_km1, g_km1=None, eps_k=None):
    """The four hand-written baseline updates, kept as the reference that the
    single recursion of ``step_baseline`` must equal bit for bit."""
    d = x_k - x_km1
    g_cache = None
    if cfg.variant == "HBM":
        g_cache = problem.grad(x_k)
        x_next = x_k + cfg.alpha * d - cfg.beta * g_cache
    elif cfg.variant == "NAG":
        y = x_k + cfg.alpha * d
        x_next = y - cfg.beta * problem.grad(y)
    elif cfg.variant == "HBM_H":
        g_cache = problem.grad(x_k)
        y = x_k + cfg.alpha * d - cfg.theta * (g_cache - g_km1)
        x_next = y - cfg.beta * g_cache
    else:  # NAG_H
        g_cache = problem.grad(x_k)
        y = x_k + cfg.alpha * d - cfg.theta * (g_cache - g_km1)
        x_next = y - cfg.beta * problem.grad(y)
    if eps_k is not None and np.any(eps_k):
        x_next = x_next + cfg.beta * eps_k
    return x_next, g_cache


_PROBLEM_BY_DIM = {
    1: builtin_problem("example51"),
    2: builtin_problem("example52"),
    5: make_quadratic([0.1, 0.5, 1.0, 2.0, 4.0]),
}


class TestStepBaselineMatchesReference:
    @settings(max_examples=400, database=None, derandomize=True)
    @given(
        variant=st.sampled_from(["HBM", "NAG", "HBM_H", "NAG_H"]),
        dim=st.sampled_from([1, 2, 5]),
        alpha=st.floats(min_value=0.0, max_value=2.0),
        beta=st.floats(min_value=1e-6, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    def test_bitwise_equal(self, variant, dim, alpha, beta, theta, data):
        vec = st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=dim,
                       max_size=dim).map(np.array)
        x_k, x_km1, g_km1 = data.draw(vec), data.draw(vec), data.draw(vec)
        eps = data.draw(st.none() | st.just(np.zeros(dim)) | vec)
        problem = _PROBLEM_BY_DIM[dim]
        cfg = AlgorithmConfig(variant=variant, alpha=alpha, beta=beta, theta=theta)
        x_next = step_baseline(problem, cfg, x_k, x_km1, problem.grad(x_k), g_km1, eps)
        ref_next, _ = _step_baseline_reference(problem, cfg, x_k, x_km1, g_km1, eps)
        assert x_next.tobytes() == ref_next.tobytes()


class TestGradientCalls:
    """run() evaluates grad f(x_k) once, in iterate k's record, and the step
    reads it from there; a step calls grad only at its own point y_k or z_k.
    n_grad_evals counts the algorithm's evaluations, g_0 included."""

    @pytest.mark.parametrize("variant, calls, evals", [
        ("IAA", 22, 10), ("HBM", 12, 10), ("NAG", 22, 10), ("HBM_H", 12, 11),
        ("NAG_H", 22, 21),
    ])
    def test_grad_calls_per_variant(self, sine_well, variant, calls, evals):
        count = 0

        def counting_grad(x):
            nonlocal count
            count += 1
            return sine_well.grad(x)

        problem = dataclasses.replace(sine_well, grad=counting_grad)
        count = 0  # drop the stationarity check's call
        res = run(problem, _bench_config(variant), [3.0],
                  stop=StoppingRule(tol=None, max_iter=11))
        assert res.final.k == 11  # 12 records, 10 steps
        assert (count, res.n_grad_evals) == (calls, evals)


class TestGradientCounts:
    """n_grad_evals per record, against the rule perfbench/workloads.py's
    _run_invariants checks on finished runs: NAG_H pays 2 per step, the
    others 1, and the corrected variants also g_0.  x_0 and x_1 cost none."""

    @staticmethod
    def expected(variant, k):
        if k < 2:
            return 0
        per_step = 2 if variant == "NAG_H" else 1
        g0 = 1 if variant in ("HBM_H", "NAG_H") else 0
        return per_step * (k - 1) + g0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 11])
    def test_per_record(self, sine_well, variant, max_iter):
        res = run(sine_well, _bench_config(variant), [3.0],
                  stop=StoppingRule(tol=None, max_iter=max_iter))
        assert res.trigger == "max_iter"
        assert [r.k for r in res.records] == list(range(max_iter + 1))
        assert [r.n_grad_evals for r in res.records] == [
            self.expected(variant, k) for k in range(max_iter + 1)
        ]
        assert res.n_grad_evals == res.final.n_grad_evals


class TestLiveGradients:
    """A record's gradient stays alive only for the steps that read it: HBM
    (g_k) and the corrected variants (g_k and g_{k-1}).  IAA and NAG read
    none, so none is kept; at d = 2^16 each is 512 KB."""

    @pytest.mark.parametrize("variant, peak", [
        ("IAA", 0), ("HBM", 1), ("NAG", 0), ("HBM_H", 2), ("NAG_H", 2),
    ])
    def test_peak_live_gradients(self, variant, peak):
        basin = builtin_problem("example52")
        outputs = []
        most = 0

        def tracking_grad(x):
            nonlocal most
            most = max(most, sum(ref() is not None for ref in outputs))
            g = basin.grad(x)
            outputs.append(weakref.ref(g))
            return g

        problem = dataclasses.replace(basin, grad=tracking_grad)
        if variant == "IAA":
            cfg = AlgorithmConfig(variant="IAA", alpha=0.4, beta=0.15, s=0.125)
        else:
            cfg = AlgorithmConfig(variant=variant, alpha=0.7, beta=0.04, theta=0.05)
        res = run(problem, cfg, [3.0, 3.0], stop=StoppingRule(tol=None, max_iter=20))
        assert res.final.k == 20
        assert most == peak


class TestRun:
    def test_benchmark_iaa_reaches_tolerance(self, sine_well):
        res = run(sine_well, AlgorithmConfig(**IAA_BENCH), [3.0],
                  stop=StoppingRule(tol=1e-10, max_iter=100_000))
        assert res.trigger == "tol"
        assert res.final.value_error <= 1e-10
        assert res.final.k < 100_000
        ks = [r.k for r in res.records]
        assert ks == list(range(len(ks)))  # strictly increasing from 0
        assert res.records[0].step == 0.0

    def test_start_at_minimizer_stops_at_one(self, sine_well):
        for variant, max_iter in itertools.product(VARIANTS, (1, 100_000)):
            # At max_iter = 1 both triggers hold, and tol wins.
            res = run(sine_well, _bench_config(variant), [0.0],
                      stop=StoppingRule(tol=1e-10, max_iter=max_iter))
            assert res.trigger == "tol"
            assert res.final.k == 1
            assert res.final.value_error == 0.0
            assert (len(res.records), res.n_grad_evals) == (2, 0)

    def test_fixed_horizon_runs_exact_count(self):
        basin = builtin_problem("example52")
        noise = PerturbationSpec.gaussian(0.001, 0.01, seed=1)
        cfg = AlgorithmConfig(variant="IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise)
        res = run(basin, cfg, [3.0, 3.0], stop=StoppingRule(tol=None, max_iter=200))
        assert res.trigger == "max_iter"
        assert res.final.k == 200
        assert len(res.records) == 201
        assert all(np.all(np.isfinite(r.x)) for r in res.records)

    def test_gradient_eval_counts(self, sine_well):
        stop = StoppingRule(tol=None, max_iter=11)  # 10 update steps
        for variant, expected in (("IAA", 10), ("HBM", 10), ("NAG", 10),
                                  ("HBM_H", 11), ("NAG_H", 21)):
            res = run(sine_well, _bench_config(variant), [3.0], stop=stop)
            # _H variants pay one extra evaluation for g_0 = grad f(x_0)
            assert res.n_grad_evals == expected, variant

    def test_energy_recorded_only_for_iaa(self, sine_well):
        stop = StoppingRule(tol=None, max_iter=5)
        res = run(sine_well, AlgorithmConfig(**IAA_BENCH), [3.0], stop=stop)
        c = 0.2 / (0.3 / 6.0)
        for rec in res.records:
            assert rec.energy == pytest.approx(
                rec.value_error + 0.5 * c * rec.step**2, rel=1e-12
            )
        res = run(sine_well, AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0),
                  [3.0], stop=stop)
        assert all(math.isnan(rec.energy) for rec in res.records)

    def test_out_of_box_warns_but_runs(self, sine_well):
        # beta below the admissible interval's lower root at alpha = 0.45
        cfg = AlgorithmConfig(variant="IAA", alpha=0.45, beta=0.01, s=1.0 / 6.0)
        with pytest.warns(UserWarning, match="uncertified"):
            res = run(sine_well, cfg, [3.0], stop=StoppingRule(tol=None, max_iter=20))
        assert res.final.k == 20
        assert res.box_warnings

    def test_divergence(self):
        p = make_quadratic([1.0])
        cfg = AlgorithmConfig(variant="HBM", alpha=0.9, beta=1e3)
        with pytest.raises(Divergence):
            run(p, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=10_000))

    def test_nonfinite_iterate(self):
        bad = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: x * np.nan,
            gamma=1.0,
            lipschitz=1.0,
        )
        cfg = AlgorithmConfig(variant="HBM", alpha=0.5, beta=0.1)
        with pytest.raises(NonFiniteIterate) as exc:
            run(bad, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.last_finite_k == 1

    def test_infinite_iterate_is_nonfinite_not_divergence(self):
        bad = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: x * np.inf,
            gamma=1.0,
            lipschitz=1.0,
        )
        cfg = AlgorithmConfig(variant="HBM", alpha=0.5, beta=0.1)
        with pytest.raises(NonFiniteIterate) as exc:
            run(bad, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.last_finite_k == 1

    def test_nan_in_one_coordinate(self):
        # x_{k+1} = x_k / 2 from (1, 1); the gradient's second coordinate
        # turns NaN once x_k[1] < 0.3, i.e. at x_3 = (0.25, 0.25).
        def grad(x):
            return np.array([x[0], np.nan if x[1] < 0.3 else x[1]])

        bad = Problem(
            dimension=2,
            func=lambda x: float(0.5 * np.dot(x, x)),
            grad=grad,
            gamma=1.0,
            lipschitz=1.0,
        )
        cfg = AlgorithmConfig(variant="HBM", alpha=0.0, beta=0.5)
        with pytest.raises(NonFiniteIterate) as exc:
            run(bad, cfg, [1.0, 1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.last_finite_k == 3

    def test_divergence_when_is_exact(self):
        # x_{k+1} = -10 x_k exactly from x_1 = 1, so |x_13| = 1e12 is still
        # allowed and |x_14| = 1e13 is the first iterate past the guard.
        p = make_quadratic([1.0])
        cfg = AlgorithmConfig(variant="HBM", alpha=0.0, beta=11.0)
        with pytest.raises(Divergence) as exc:
            run(p, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=100))
        assert exc.value.when == 14

    @pytest.mark.parametrize("variant", ["IAA", "HBM", "NAG", "HBM_H", "NAG_H"])
    def test_records_own_their_arrays(self, variant):
        basin = builtin_problem("example52")
        noise = PerturbationSpec.gaussian(0.001, 0.01, seed=1)
        if variant == "IAA":
            cfg = AlgorithmConfig(variant="IAA", alpha=0.4, beta=0.15, s=0.125,
                                  perturb=noise)
        else:
            cfg = AlgorithmConfig(variant=variant, alpha=0.7, beta=0.04, theta=0.05,
                                  perturb=noise)
        x0 = np.array([3.0, 3.0])
        x1 = np.array([2.5, 3.0])
        for start in ((x0,), (x0, x1)):
            res = run(basin, cfg, *start, stop=StoppingRule(tol=None, max_iter=20))
            arrays = [r.x for r in res.records] + list(start)
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

    def test_unperturbed_iaa_per_is_bitwise_identical(self, sine_well):
        stop = StoppingRule(tol=None, max_iter=50)
        plain = run(sine_well, AlgorithmConfig(**IAA_BENCH), [3.0], stop=stop)
        nul = AlgorithmConfig(perturb=PerturbationSpec.gaussian(0.0, 0.01, seed=3),
                              **IAA_BENCH)
        perturbed = run(sine_well, nul, [3.0], stop=stop)
        for a, b in zip(plain.records, perturbed.records):
            assert a.x.tobytes() == b.x.tobytes()


class TestModuleAttributeContract:
    """run() looks its kernels up on the optimizers module at call time; the
    benchmark's traced run (perfbench/spans.py) replaces exactly these names."""

    @pytest.mark.parametrize("variant, step_name", [("IAA", "step_iaa"),
                                                    ("HBM", "step_baseline")])
    def test_run_resolves_kernels_at_call_time(self, monkeypatch, variant, step_name):
        calls = {"step": 0, "sample": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizers, step_name,
                            counting("step", getattr(optimizers, step_name)))
        monkeypatch.setattr(optimizers, "sample_discrete",
                            counting("sample", optimizers.sample_discrete))
        noise = PerturbationSpec.gaussian(0.001, 0.01, seed=1)
        cfg = (AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.1, s=1.0 / 6.0,
                               perturb=noise) if variant == "IAA"
               else AlgorithmConfig(variant=variant, alpha=0.7, beta=1.0 / 24.0,
                                    perturb=noise))
        res = run(builtin_problem("example51"), cfg, [3.0],
                  stop=StoppingRule(tol=None, max_iter=12))
        assert res.final.k == 12
        assert calls == {"step": 11, "sample": 11}

    def test_benchmark_shim_targets_exist(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        original = optimizers.step_baseline
        # installed() reads every attribute it replaces, so a renamed one
        # raises AttributeError here.
        with spans.installed(spans.Tracer(), {}):
            assert optimizers.step_baseline is not original
        assert optimizers.step_baseline is original


class TestReductions:
    def test_beta_zero_matches_heavy_ball(self, sine_well):
        """IAA with beta = 0 is the s-step heavy-ball recursion."""
        iaa = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.0, s=1.0 / 6.0)
        hbm = AlgorithmConfig(variant="HBM", alpha=0.3, beta=1.0 / 6.0)
        stop = StoppingRule(tol=None, max_iter=100)
        with pytest.warns(UserWarning):  # beta = 0 sits on the open T41 boundary
            a = run(sine_well, iaa, [3.0], stop=stop)
        b = run(sine_well, hbm, [3.0], stop=stop)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_allclose(ra.x, rb.x, atol=1e-12)

    def test_beta_alpha_matches_nag(self, sine_well):
        """IAA with beta = alpha is the NAG recursion with step s."""
        iaa = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.3, s=1.0 / 6.0)
        nag = AlgorithmConfig(variant="NAG", alpha=0.3, beta=1.0 / 6.0)
        stop = StoppingRule(tol=None, max_iter=100)
        with pytest.warns(UserWarning):  # beta = alpha sits on the open boundary
            a = run(sine_well, iaa, [3.0], stop=stop)
        b = run(sine_well, nag, [3.0], stop=stop)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_allclose(ra.x, rb.x, atol=1e-12)


class TestCertifiedContraction:
    def test_energy_contraction_benchmark(self, sine_well):
        consts = rate_constants(sine_well, "T41", 0.3, 0.2, 1.0 / 6.0)
        rho = consts["rho"]
        res = run(sine_well, AlgorithmConfig(**IAA_BENCH), [3.0],
                  stop=StoppingRule(tol=None, max_iter=300))
        recs = res.records
        for a, b in zip(recs[1:], recs[2:]):
            assert b.energy <= (1.0 - rho) * a.energy * (1.0 + 1e-9)

    def test_energy_contraction_random_quadratics(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            spectrum = rng.uniform(0.5, 3.0, size=3)
            p = make_quadratic(spectrum)
            alpha = float(rng.uniform(0.1, 0.45))
            from inertiq import parameter_box

            box = parameter_box(p, "T41", alpha=alpha)
            beta = box.beta.midpoint()
            cfg = AlgorithmConfig(variant="IAA", alpha=alpha, beta=beta,
                                  s=1.0 / p.lipschitz)
            consts = rate_constants(p, "T41", alpha, beta)
            rho = consts["rho"]
            x0 = rng.uniform(-5, 5, size=3)
            res = run(p, cfg, x0, stop=StoppingRule(tol=None, max_iter=200))
            recs = res.records
            for a, b in zip(recs[1:], recs[2:]):
                assert b.energy <= (1.0 - rho) * a.energy * (1.0 + 1e-9)

    def test_power_noise_rate_exponents(self, sine_well):
        """Perturbed runs inherit the forcing's power law (short in-module
        version; the acceptance suite runs 10^4 iterations)."""
        from inertiq import parameter_box

        alpha = 0.2
        beta = parameter_box(sine_well, "T42", alpha=alpha).beta.midpoint()
        cfg = AlgorithmConfig(variant="IAA", alpha=alpha, beta=beta, s=1.0 / 6.0,
                              perturb=PerturbationSpec.power(0.1, 1.0))
        res = run(sine_well, cfg, [3.0], stop=StoppingRule(tol=None, max_iter=2000))
        ks = np.array([r.k for r in res.records], dtype=float)
        fe = np.array([r.value_error for r in res.records])
        half = len(ks) // 2
        mask = fe[half:] > 0
        slope = np.polyfit(np.log(ks[half:][mask]), np.log(fe[half:][mask]), 1)[0]
        assert slope <= -2.0 + 0.4


# Reference formulas of the built-in objectives on numpy scalars.
def _example51_func_ref(x):
    return float(x[0] * x[0] + 2.0 * math.sin(x[0]) ** 2)


def _example51_grad_ref(x):
    return np.array([2.0 * x[0] + 2.0 * math.sin(2.0 * x[0])])


def _example52_func_ref(p):
    x, y = p
    u = x * x + 2.0 * y * y + 0.2
    return float(x * x / 10.0 + y * y / 5.0 - math.atan(1.0 / u))


def _example52_grad_ref(p):
    x, y = p
    u = x * x + 2.0 * y * y + 0.2
    w = 1.0 / (u * u + 1.0)
    return np.array([x / 5.0 + 2.0 * x * w, 2.0 * y / 5.0 + 4.0 * y * w])


_coords = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


class TestBuiltinObjectivesBitwise:
    """The built-in objectives equal their numpy-scalar reference formulas
    bit for bit, signed zeros included."""

    @settings(max_examples=300, database=None, derandomize=True)
    @given(st.lists(_coords, min_size=1, max_size=1))
    def test_example51(self, point):
        p = builtin_problem("example51")
        x = np.array(point)
        value = p.func(x)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(_example51_func_ref(x)).tobytes()
        assert p.grad(x).tobytes() == _example51_grad_ref(x).tobytes()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(st.lists(_coords, min_size=2, max_size=2))
    def test_example52(self, point):
        p = builtin_problem("example52")
        x = np.array(point)
        value = p.func(x)
        assert type(value) is float
        with np.errstate(over="ignore"):  # u * u overflows to inf on both sides
            func_ref, grad_ref = _example52_func_ref(x), _example52_grad_ref(x)
        assert np.float64(value).tobytes() == np.float64(func_ref).tobytes()
        assert p.grad(x).tobytes() == grad_ref.tobytes()
