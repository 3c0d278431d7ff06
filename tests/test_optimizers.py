"""Discrete algorithms: step formulas, runs, reductions, certified bounds."""

import dataclasses
import importlib.util
import itertools
import math
import struct
import warnings
import weakref
from unittest import mock
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
from inertiq import analysis, experiments, optimizers
from inertiq.errors import BLOWUP_NORM, Divergence
from inertiq.optimizers import METHODS, IterateRecord, RunResult
from inertiq.problems import Problem, as_point, state_ops
from problem_helpers import one_run_per_row, seed_rows, shifted_quadratic


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


class TestAlgorithmConfig:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["alpha", "beta", "theta"])
    def test_rejects_nan_coefficients(self, variant, name):
        coefs = dict(alpha=0.3, beta=0.2, theta=0.05, s=1.0 / 6.0)
        coefs[name] = math.nan
        with pytest.raises(ValueError, match="must be nonnegative"):
            AlgorithmConfig(variant, **coefs)


class TestStepIaa:
    def test_fixed_point(self, sine_well):
        cfg = AlgorithmConfig(**IAA_BENCH)
        xstar = np.array([0.0])
        x2 = step_iaa(sine_well.grad, cfg, xstar, xstar - xstar, None, None)
        np.testing.assert_array_equal(x2, xstar)

    def test_equal_iterates_step(self, sine_well):
        # x1 = x0 = 3: momentum vanishes, x2 = 3 - s grad f(3)
        cfg = AlgorithmConfig(**IAA_BENCH)
        x = np.array([3.0])
        x2 = step_iaa(sine_well.grad, cfg, x, x - x, None, None)
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
        x2 = step_iaa(sine_well.grad, cfg, xk, xk - xk1, None, None, eps)
        y = xk + cfg.alpha * (xk - xk1)
        np.testing.assert_allclose(x2, y, rtol=1e-12)


class TestOneStep:
    """step_iaa and step_baseline are one function, ``step``, for all five
    variants."""

    def test_both_names_are_one_function(self):
        assert optimizers.step_iaa is optimizers.step_baseline is optimizers.step

    def test_old_iaa_call_shape_raises(self, sine_well):
        # g_k and g_{k-1} are required, so an eps_k passed where
        # step_iaa(grad, cfg, x_k, d_k, eps_k) took it cannot bind to g_k.
        cfg = AlgorithmConfig(**IAA_BENCH)
        x = np.array([3.0])
        with pytest.raises(TypeError):
            step_iaa(sine_well.grad, cfg, x, x - x, np.array([0.1]))

    def test_step_baseline_steps_iaa(self, sine_well):
        cfg = AlgorithmConfig(**IAA_BENCH)
        xk, xk1, eps = np.array([2.0]), np.array([1.5]), np.array([0.25])
        x2 = step_baseline(sine_well.grad, cfg, xk, xk - xk1, None, None, eps)
        assert x2.tobytes() == _step_iaa_reference(sine_well.grad, cfg, xk, xk1, eps).tobytes()


class TestStepBaseline:
    def test_hbm_fixed_point(self, sine_well):
        cfg = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        xstar = np.array([0.0])
        g = sine_well.grad(xstar)
        x2 = step_baseline(sine_well.grad, cfg, xstar, xstar - xstar, g, g)
        np.testing.assert_array_equal(x2, xstar)

    def test_hbm_equal_iterates(self, sine_well):
        cfg = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        x = np.array([3.0])
        g = sine_well.grad(x)
        x2 = step_baseline(sine_well.grad, cfg, x, x - x, g, g)
        expected = 3.0 - (6.0 + 2.0 * math.sin(6.0)) / 24.0
        assert x2[0] == pytest.approx(expected, rel=1e-15)
        assert x2[0] == pytest.approx(2.773285, abs=1e-6)

    def test_hbm_h_theta_zero_is_hbm(self, sine_well):
        plain = AlgorithmConfig(variant="HBM", alpha=0.7, beta=1.0 / 24.0)
        hess = AlgorithmConfig(variant="HBM_H", alpha=0.7, beta=1.0 / 24.0, theta=0.0)
        xk, xk1 = np.array([2.0]), np.array([2.5])
        gk, gk1 = sine_well.grad(xk), sine_well.grad(xk1)
        a = step_baseline(sine_well.grad, plain, xk, xk - xk1, gk, gk1)
        b = step_baseline(sine_well.grad, hess, xk, xk - xk1, gk, gk1)
        np.testing.assert_array_equal(a, b)

    def test_nag_uses_extrapolated_gradient(self, sine_well):
        cfg = AlgorithmConfig(variant="NAG", alpha=0.7, beta=1.0 / 24.0)
        xk, xk1 = np.array([2.0]), np.array([2.5])
        x2 = step_baseline(sine_well.grad, cfg, xk, xk - xk1, sine_well.grad(xk),
                           sine_well.grad(xk1))
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
        x_next = step_baseline(problem.grad, cfg, x_k, x_k - x_km1, problem.grad(x_k), g_km1,
                               eps)
        ref_next, _ = _step_baseline_reference(problem, cfg, x_k, x_km1, g_km1, eps)
        assert x_next.tobytes() == ref_next.tobytes()


def _step_iaa_reference(grad, cfg, x_k, x_km1, eps_k=None):
    """The out-of-place IAA update from x_k and x_{k-1}, kept as the reference
    that ``step_iaa`` on d_k = x_k - x_{k-1} must equal bit for bit."""
    d = x_k - x_km1
    y = x_k + cfg.alpha * d
    z = x_k + cfg.beta * d
    x_next = y - cfg.s * grad(z)
    if eps_k is not None and np.count_nonzero(eps_k):
        x_next = x_next + cfg.s * eps_k
    return x_next


class TestStepIaaMatchesReference:
    @settings(max_examples=300, database=None, derandomize=True)
    @given(
        dim=st.sampled_from([1, 2, 5]),
        alpha=st.floats(min_value=0.0, max_value=2.0),
        beta=st.floats(min_value=0.0, max_value=2.0),
        s=st.floats(min_value=1e-6, max_value=1.0),
        data=st.data(),
    )
    def test_bitwise_equal(self, dim, alpha, beta, s, data):
        coord = st.floats(min_value=-10.0, max_value=10.0)
        problem = _PROBLEM_BY_DIM[dim]
        cfg = AlgorithmConfig(variant="IAA", alpha=alpha, beta=beta, s=s)
        if dim == 1:  # run() holds one-dimensional state as Python floats
            vec, zero, grad = coord, st.just(0.0), state_ops(problem).grad
        else:
            vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
            zero, grad = st.just(np.zeros(dim)), problem.grad
        x_k, x_km1 = data.draw(vec), data.draw(vec)
        eps = data.draw(st.none() | zero | vec)
        x_next = step_iaa(grad, cfg, x_k, x_k - x_km1, None, None, eps)
        ref_next = _step_iaa_reference(grad, cfg, x_k, x_km1, eps)
        assert type(x_next) is type(ref_next)
        assert np.asarray(x_next).tobytes() == np.asarray(ref_next).tobytes()


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

        def counting(grad):
            def wrapper(x):
                nonlocal count
                count += 1
                return grad(x)
            return wrapper

        # run() calls the float derivative at d = 1; count both forms.
        value, slope = sine_well.float_form
        problem = dataclasses.replace(sine_well, grad=counting(sine_well.grad),
                                      float_form=(value, counting(slope)))
        count = 0  # drop the stationarity check's calls
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

    @pytest.mark.parametrize("alpha", [0.0, 5e-324])
    def test_energy_is_nan_without_a_weight(self, sine_well, alpha):
        # c = beta/(alpha*s) needs alpha * s > 0; 5e-324 * 0.5 underflows to 0.
        cfg = AlgorithmConfig(variant="IAA", alpha=alpha, beta=1.0, s=0.5)
        stop = StoppingRule(tol=None, max_iter=5)
        with pytest.warns(UserWarning, match="outside T41 box"):
            res = run(sine_well, cfg, [1.0], stop=stop)
        rows = _one_group(sine_well, dataclasses.replace(
            cfg, perturb=PerturbationSpec.gaussian(1e-3, 0.0)), (1, 2), [1.0], stop)
        with pytest.warns(UserWarning, match="outside T42 box"):
            results = [res, *rows]
        for result in results:
            assert all(math.isnan(rec.energy) for rec in result.records)

    def test_out_of_box_warns_but_runs(self, sine_well):
        # beta below the admissible interval's lower root at alpha = 0.45
        cfg = AlgorithmConfig(variant="IAA", alpha=0.45, beta=0.01, s=1.0 / 6.0)
        with pytest.warns(UserWarning, match="uncertified"):
            res = run(sine_well, cfg, [3.0], stop=StoppingRule(tol=None, max_iter=20))
        assert res.final.k == 20
        assert res.box_warnings

    def test_infinite_lipschitz_warns_but_runs(self):
        # no finite L, so no T41 box: IAA runs uncertified with one warning
        quartic = Problem(dimension=1, func=lambda x: float(x[0] ** 2 / 2 + x[0] ** 4 / 4),
                          grad=lambda x: x + x**3, gamma=1.0, lipschitz=math.inf,
                          kappa=2.0, minimizer=[0.0], min_value=0.0)
        cfg = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=0.1)
        with pytest.warns(UserWarning, match="uncertified") as caught:
            res = run(quartic, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=20))
        assert len(caught) == 1
        assert res.final.k == 20
        assert res.box_warnings == (
            "outside T41 box: T41 needs a finite L, got L = inf; run is uncertified",)

    @pytest.mark.parametrize("case", ["alpha", "empty-beta", "beta", "step", "T42"])
    def test_box_warning_is_one_message(self, sine_well, monkeypatch, case):
        from inertiq import analysis

        cfg = AlgorithmConfig(**IAA_BENCH)
        assert optimizers.validate_against_box(sine_well, cfg) == []
        theorem = "T41"
        if case == "alpha":
            cfg = dataclasses.replace(cfg, alpha=0.6)
        elif case == "empty-beta":  # no alpha in (0, 1/2) empties the T41/T42 slice
            monkeypatch.setattr(analysis, "_beta_interval",
                                lambda *args: analysis.Interval(0.0, 0.0))
        elif case == "beta":
            cfg = dataclasses.replace(cfg, alpha=0.45, beta=0.01)
        elif case == "step":
            cfg = dataclasses.replace(cfg, s=0.1)
        else:  # beta = 0.2 lies in the T41 slice at alpha = 0.3, not in T42's
            cfg = dataclasses.replace(cfg, perturb=PerturbationSpec.power(1.0, 2.0))
            theorem = "T42"
        [msg] = optimizers.validate_against_box(sine_well, cfg)
        assert msg.startswith(f"outside {theorem} box: ") and msg.endswith("; run is uncertified")

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
        with pytest.raises(Divergence, match=r"^iterates blew up at k = 2 \(\|x\| = nan\)$") as exc:
            run(bad, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.when == 2

    def test_infinite_iterate_is_divergence(self):
        bad = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: x * np.inf,
            gamma=1.0,
            lipschitz=1.0,
        )
        cfg = AlgorithmConfig(variant="HBM", alpha=0.5, beta=0.1)
        with pytest.raises(Divergence, match=r"^iterates blew up at k = 2 \(\|x\| = inf\)$") as exc:
            run(bad, cfg, [1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.when == 2

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
        with pytest.raises(Divergence, match=r"^iterates blew up at k = 4 \(\|x\| = nan\)$") as exc:
            run(bad, cfg, [1.0, 1.0], stop=StoppingRule(tol=None, max_iter=10))
        assert exc.value.when == 4

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

    @pytest.mark.parametrize("variant, step_name", [("IAA", "step_iaa"),
                                                    ("NAG_H", "step_baseline")])
    def test_run_seeds_resolves_kernels_at_call_time(self, monkeypatch, variant, step_name):
        # One step and one draw per block step, whatever the number of seeds,
        # so the traced optimizers.step layer still sees the block's steps.
        calls = {"step": 0, "sample": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizers, step_name,
                            counting("step", getattr(optimizers, step_name)))
        monkeypatch.setattr(optimizers, "sample_discrete_rows",
                            counting("sample", optimizers.sample_discrete_rows))
        noise = PerturbationSpec.gaussian(0.001, 0.01)
        coefs = (dict(alpha=0.4, beta=0.15, s=0.125) if variant == "IAA"
                 else dict(alpha=0.7, beta=0.04, theta=0.05))  # fig45's, inside T42
        cfg = AlgorithmConfig(variant, perturb=noise, **coefs)
        results = list(_one_group(builtin_problem("example52"), cfg, (4, 2, 9), [3.0, 3.0],
                                  stop=StoppingRule(tol=None, max_iter=12)))
        assert [res.final.k for res in results] == [12, 12, 12]
        assert calls == {"step": 11, "sample": 11}

    def test_run_rows_steps_each_group_and_draws_each_spec_once(self, monkeypatch):
        # Three groups of two seeds in one block, two of them perturbed
        # alike: per block step one step call per group and one draw per
        # seedless spec, and one box check per group.
        calls = []

        def counting(name):
            fn = getattr(optimizers, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("step_iaa", "step_baseline", "sample_discrete_rows",
                     "validate_against_box"):
            monkeypatch.setattr(optimizers, name, counting(name))
        noise, drift = (PerturbationSpec.gaussian(0.001, 0.01),
                        PerturbationSpec.power(0.01, 1.5, direction="random"))
        iaa = AlgorithmConfig("IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise)
        nag_h = AlgorithmConfig("NAG_H", alpha=0.7, beta=0.04, theta=0.05, perturb=noise)
        hbm = AlgorithmConfig("HBM", alpha=0.7, beta=0.04, perturb=drift)
        stop = StoppingRule(tol=None, max_iter=12)
        runs = [(dataclasses.replace(cfg, perturb=cfg.perturb.with_seed(seed)), [3.0, 3.0], stop)
                for cfg, seed in ((iaa, 4), (hbm, 1), (nag_h, 9), (iaa, 2), (hbm, 3),
                                  (nag_h, 6))]
        results = list(optimizers.run_rows(builtin_problem("example52"), runs))
        assert [res.final.k for res in results] == [12] * 6
        assert calls.count("step_iaa") == 11
        assert calls.count("step_baseline") == 22
        assert calls.count("sample_discrete_rows") == 22
        assert calls[:3] == ["validate_against_box"] * 3
        # Each block step draws every spec before it steps any group.
        assert calls[3:8] == ["sample_discrete_rows"] * 2 + ["step_iaa"] + ["step_baseline"] * 2

    def test_benchmark_shim_targets_exist(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        original = optimizers.step_baseline, experiments.run
        # installed() reads every attribute it replaces, so a renamed one
        # raises AttributeError here.
        with spans.installed(spans.Tracer(), {}):
            assert optimizers.step_baseline is not original[0]
            assert experiments.run is not original[1]
        assert (optimizers.step_baseline, experiments.run) == original


def _run_reference(problem, cfg, x0, x1=None, stop=None):
    """The array-state run() loop and steps, kept as the reference that the
    d = 1 float-state loop must equal bit for bit."""
    stop = stop or StoppingRule()
    x_prev = as_point(x0, problem.dimension).copy()
    x_cur = as_point(x1 if x1 is not None else x0, problem.dimension).copy()
    box_warnings = optimizers.validate_against_box(problem, cfg)
    fstar = problem.min_value
    xstar = problem.minimizer
    use_value = fstar is not None
    c_energy = None
    if cfg.variant == "IAA" and use_value and cfg.alpha * cfg.s > 0:
        c_energy = cfg.beta / (cfg.alpha * cfg.s)
    method = METHODS[cfg.variant]
    records = []

    def make_record(k, x, x_before):
        fx = float(problem.func(x))
        gx = problem.grad(x)
        value_error = fx - fstar if use_value else fx
        dx = x - x_before
        step = math.sqrt(dx.dot(dx))
        if xstar is not None:
            diff = x - xstar
            dist = math.sqrt(diff.dot(diff))
        else:
            dist = float("nan")
        if c_energy is not None and c_energy > 0:
            energy = analysis._discrete_energy(value_error, c_energy, step)
        elif c_energy == 0.0:
            energy = value_error
        else:
            energy = float("nan")
        records.append(IterateRecord(k, x, value_error, math.sqrt(gx.dot(gx)), dist, step,
                                     energy, method.grad_evals(k)))
        return gx

    def step(x_k, x_km1, g_k, g_km1, eps_k):
        if method.grad_at == "z":
            d = x_k - x_km1
            y = x_k + cfg.alpha * d
            z = x_k + cfg.beta * d
            x_next = y - cfg.s * problem.grad(z)
            if eps_k is not None and np.any(eps_k):
                x_next = x_next + cfg.s * eps_k
            return x_next
        y = x_k - x_km1
        y *= cfg.alpha
        y += x_k
        if method.hessian_correction:
            y -= cfg.theta * (g_k - g_km1)
        y -= cfg.beta * (g_k if method.grad_at == "x" else problem.grad(y))
        if eps_k is not None and np.any(eps_k):
            y += cfg.beta * eps_k
        return y

    def hit_tol(rec):
        if stop.tol is None:
            return False
        return (rec.value_error if use_value else rec.grad_norm) <= stop.tol

    g_prev, g_cur = None, make_record(0, x_prev, x_prev)
    g_prev, g_cur = g_cur, make_record(1, x_cur, x_prev)
    k = 1
    while k < stop.max_iter and not hit_tol(records[-1]):
        eps = None
        if not cfg.perturb.is_zero:
            eps = optimizers.sample_discrete(cfg.perturb, k, problem.dimension)
        x_next = step(x_cur, x_prev, g_cur, g_prev, eps)
        xmax = float(np.abs(x_next).max())
        if not xmax <= BLOWUP_NORM:
            raise Divergence(f"iterates blew up at k = {k + 1} (|x| = {xmax:.3g})", when=k + 1)
        k += 1
        x_prev, x_cur = x_cur, x_next
        g_prev, g_cur = g_cur, make_record(k, x_cur, x_prev)
    trigger = "tol" if hit_tol(records[-1]) else "max_iter"
    return RunResult(records, trigger, records[-1].n_grad_evals, tuple(box_warnings))


def _overflowing_gradient(x):
    # Concave and steep: iterates pass the blow-up guard, or reach inf and NaN.
    (t,) = x.tolist()
    return np.array([-1e300 * t * abs(t)])


_ONE_D_PROBLEMS = {
    "example51": builtin_problem("example51"),
    "quadratic": make_quadratic([2.5]),
    "overflow": Problem(dimension=1, func=lambda x: float(-1e300 * x[0] ** 2),
                        grad=_overflowing_gradient, gamma=1.0, lipschitz=1.0),
}


def _run_outcome(fn, *args, **kwargs):
    """Every field of every record as bytes (arrays with shape and dtype), the
    trigger, the totals and box warnings, or the exception and its fields."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # box warnings; compared as returned
        try:
            res = fn(*args, **kwargs)
        except Divergence as exc:
            return type(exc).__name__, str(exc), exc.when
    return _result_outcome(res)


def _result_outcome(res):
    rows = [(r.k, repr((r.x.shape, r.x.dtype)), r.x.tobytes(),
             struct.pack("<5d", r.value_error, r.grad_norm, r.dist, r.step, r.energy),
             r.n_grad_evals) for r in res.records]
    return rows, res.trigger, res.n_grad_evals, res.box_warnings


class TestFloatStateMatchesReference:
    """At d = 1 run() holds its state as Python floats; records, triggers,
    counts and exceptions equal the array-state reference bit for bit."""

    @settings(max_examples=400, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ONE_D_PROBLEMS)),
        variant=st.sampled_from(VARIANTS),
        forcing=st.sampled_from(["none", "e1", "random", "tuple", "gauss"]),
        p=st.sampled_from([0.5, 1.5, 400.0]),  # at p = 400, k^p overflows from k = 7
        alpha=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=1e-3, max_value=1.5),
        s=st.floats(min_value=1e-3, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=1.0),
        x0=st.floats(min_value=-5.0, max_value=5.0) | st.sampled_from([1e-160, -0.0, 2e4]),
        x1=st.none() | st.floats(min_value=-5.0, max_value=5.0),
        tol=st.none() | st.floats(min_value=1e-12, max_value=1e-2),
        max_iter=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_bitwise_equal(self, name, variant, forcing, p, alpha, beta, s, theta, x0, x1,
                           tol, max_iter, seed):
        perturb = {
            "none": PerturbationSpec.none(),
            "e1": PerturbationSpec.power(0.3, p),
            "random": PerturbationSpec.power(0.3, p, direction="random", seed=seed),
            "tuple": PerturbationSpec.power(0.2, p, direction=(-2.0,)),
            "gauss": PerturbationSpec.gaussian(0.5, 0.1, seed=seed),
        }[forcing]
        cfg = AlgorithmConfig(variant, alpha=alpha, beta=beta, theta=theta,
                              s=s if variant == "IAA" else None, perturb=perturb)
        args = (_ONE_D_PROBLEMS[name], cfg, [x0], None if x1 is None else [x1],
                StoppingRule(tol=tol, max_iter=max_iter))
        assert _run_outcome(run, *args) == _run_outcome(_run_reference, *args)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_ending_is_reached(self, variant):
        # The finite blow-up, overflow and tolerance paths, per variant.
        quadratic, overflow = _ONE_D_PROBLEMS["quadratic"], _ONE_D_PROBLEMS["overflow"]
        cases = {  # the gradient overflows to -inf once |x| > 1.4e4
            "blow-up": (quadratic, 3.0, dict(alpha=0.9, beta=5.0, s=5.0)),
            "overflow": (overflow, 2e4, dict(alpha=0.5, beta=0.5, s=0.5)),
            "tol": (quadratic, 3.0, dict(alpha=0.3, beta=0.2, s=0.4)),
        }
        for ending, (problem, x0, coefs) in cases.items():
            cfg = AlgorithmConfig(variant, theta=0.05, **coefs)
            args = (problem, cfg, [x0], None, StoppingRule(tol=1e-10, max_iter=10_000))
            outcome = _run_outcome(run, *args)
            assert outcome == _run_outcome(_run_reference, *args)
            if ending == "tol":
                assert outcome[1] == "tol", (variant, ending)
            else:  # an overflow is told apart from a finite blow-up by its |x|
                assert outcome[0] == "Divergence", (variant, ending)
                non_finite = outcome[1].endswith(("= inf)", "= nan)"))
                assert non_finite == (ending == "overflow"), (variant, outcome)

    def test_gradient_of_wrong_length(self, sine_well):
        # a 1-D problem's gradient must have one element; it is not broadcast
        wide = dataclasses.replace(sine_well, grad=lambda x: np.array([2.0, 1.0]) * x,
                                   float_form=None)
        with pytest.raises(ValueError, match="gradient of a 1-D problem has 2 elements"):
            run(wide, _bench_config("HBM"), [3.0], stop=StoppingRule(tol=None, max_iter=5))

    def test_wider_problems_keep_arrays(self):
        basin = builtin_problem("example52")
        ops = state_ops(basin)
        assert ops.grad is basin.grad
        point = np.array([3.0, 3.0])
        assert ops.state(point) is point and ops.point(point) is point

    @settings(max_examples=300, database=None, derandomize=True)
    @given(
        variant=st.sampled_from(VARIANTS),
        x_k=st.floats(min_value=-10.0, max_value=10.0),
        x_km1=st.floats(min_value=-10.0, max_value=10.0),
        g_km1=st.floats(min_value=-10.0, max_value=10.0),
        eps=st.none() | st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_float_steps_equal_array_steps(self, sine_well, variant, x_k, x_km1, g_km1, eps):
        cfg = _bench_config(variant)
        grad = state_ops(sine_well).grad

        def vec(v):
            return None if v is None else np.array([v])

        if variant == "IAA":
            on_floats = step_iaa(grad, cfg, x_k, x_k - x_km1, None, None, eps)
            on_arrays = step_iaa(sine_well.grad, cfg, vec(x_k), vec(x_k) - vec(x_km1),
                                 None, None, vec(eps))
        else:
            on_floats = step_baseline(grad, cfg, x_k, x_k - x_km1, grad(x_k), g_km1, eps)
            on_arrays = step_baseline(sine_well.grad, cfg, vec(x_k), vec(x_k) - vec(x_km1),
                                      sine_well.grad(vec(x_k)), vec(g_km1), vec(eps))
        assert type(on_floats) is float
        assert struct.pack("<d", on_floats) == on_arrays.tobytes()


_WIDE_PROBLEMS = {
    "example52": builtin_problem("example52"),
    "quadratic5": make_quadratic([0.1, 0.5, 1.0, 2.0, 4.0]),
    "shifted3": shifted_quadratic([0.5, 1.5, 3.0], [1.0, -2.0, 0.5]),
    "negzero3": dataclasses.replace(make_quadratic([0.5, 1.5, 3.0]), minimizer=[-0.0] * 3),
}


class TestArrayStateMatchesReference:
    """At d >= 2 run() forms d_k = x_k - x_{k-1} once per iterate, for the
    record's step and the update, and takes |x| for |x - x*| when x* is all
    zeros; records, triggers, counts and blow-ups equal the reference loop,
    which subtracts x_{k-1} and x* every time, bit for bit."""

    @settings(max_examples=200, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_WIDE_PROBLEMS)),
        variant=st.sampled_from(VARIANTS),
        forcing=st.sampled_from(["none", "gauss", "e1", "random"]),
        alpha=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=1e-3, max_value=3.0),  # up to blow-ups
        s=st.floats(min_value=1e-3, max_value=3.0),
        theta=st.floats(min_value=0.0, max_value=1.0),
        tol=st.none() | st.floats(min_value=1e-12, max_value=1e-2),
        max_iter=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_bitwise_equal(self, name, variant, forcing, alpha, beta, s, theta, tol,
                           max_iter, seed, data):
        problem = _WIDE_PROBLEMS[name]
        point = st.lists(st.floats(min_value=-5.0, max_value=5.0) | st.just(-0.0),
                         min_size=problem.dimension, max_size=problem.dimension)
        x0, x1 = data.draw(point), data.draw(st.none() | point)
        perturb = {
            "none": PerturbationSpec.none(),
            "gauss": PerturbationSpec.gaussian(0.5, 0.1, seed=seed),
            "e1": PerturbationSpec.power(0.3, 1.5),
            "random": PerturbationSpec.power(0.3, 1.5, direction="random", seed=seed),
        }[forcing]
        cfg = AlgorithmConfig(variant, alpha=alpha, beta=beta, theta=theta,
                              s=s if variant == "IAA" else None, perturb=perturb)
        args = (problem, cfg, x0, x1, StoppingRule(tol=tol, max_iter=max_iter))
        assert _run_outcome(run, *args) == _run_outcome(_run_reference, *args)

    @pytest.mark.parametrize("name", sorted(_WIDE_PROBLEMS))
    def test_every_ending_is_reached(self, name):
        # At step 3 against a largest curvature of 3 to 4 every variant blows
        # up; at step 0.1 some variants reach tol.
        problem = _WIDE_PROBLEMS[name]
        x0 = [3.0] * problem.dimension
        endings = set()
        for variant, step in itertools.product(VARIANTS, (0.1, 3.0)):
            cfg = AlgorithmConfig(variant, alpha=0.3, beta=step, theta=0.05, s=step)
            args = (problem, cfg, x0, None, StoppingRule(tol=1e-10, max_iter=2000))
            outcome = _run_outcome(run, *args)
            assert outcome == _run_outcome(_run_reference, *args)
            endings.add(outcome[0] if outcome[0] == "Divergence" else outcome[1])
        assert {"Divergence", "tol"} <= endings


def _seed_outcomes(fn, *args, **kwargs):
    """_result_outcome of each result until the first Divergence or
    ValueError, and that."""
    outcomes = []
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for res in fn(*args, **kwargs):
                outcomes.append(_result_outcome(res))
        except (Divergence, ValueError) as exc:
            outcomes.append((type(exc).__name__, str(exc), getattr(exc, "when", None)))
    return outcomes


def _one_group(problem, cfg, seeds, x0, stop=None):
    """run_rows over one config's seeds: one group."""
    return optimizers.run_rows(problem, seed_rows(cfg, seeds, x0, stop))


def one_run_per_seed(problem, cfg, seeds, x0, stop=None):
    return one_run_per_row(problem, seed_rows(cfg, seeds, x0, stop))


_SEEDS_PROBLEMS = {
    "example51": builtin_problem("example51"),
    "example52": builtin_problem("example52"),
    "shifted3": _WIDE_PROBLEMS["shifted3"],
}


class TestRunSeedsMatchesRun:
    """The block engine yields, per seed, run()'s records, trigger, counts,
    box warnings and Divergence bit for bit, each row stopping on its own."""

    @settings(max_examples=200, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_SEEDS_PROBLEMS)),
        variant=st.sampled_from(VARIANTS),
        # "wild" noise (sigma 1e13) blows up some seeds and not others
        forcing=st.sampled_from(["gauss", "random", "wild"]),
        alpha=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=1e-3, max_value=3.0),
        s=st.floats(min_value=1e-3, max_value=3.0),
        theta=st.floats(min_value=0.0, max_value=1.0),
        tol=st.none() | st.floats(min_value=1e-12, max_value=1e-2),
        max_iter=st.integers(min_value=1, max_value=40),
        seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=5,
                       unique=True),
        data=st.data(),
    )
    def test_bitwise_equal(self, name, variant, forcing, alpha, beta, s, theta, tol,
                           max_iter, seeds, data):
        problem = _SEEDS_PROBLEMS[name]
        point = st.lists(st.floats(min_value=-5.0, max_value=5.0) | st.just(-0.0),
                         min_size=problem.dimension, max_size=problem.dimension)
        x0 = data.draw(point)
        perturb = {
            "gauss": PerturbationSpec.gaussian(0.5, 0.1),
            "random": PerturbationSpec.power(0.3, 1.5, direction="random"),
            "wild": PerturbationSpec.gaussian(1e13, 0.0),
        }[forcing]
        cfg = AlgorithmConfig(variant, alpha=alpha, beta=beta, theta=theta,
                              s=s if variant == "IAA" else None, perturb=perturb)
        args = (problem, cfg, seeds, x0, StoppingRule(tol=tol, max_iter=max_iter))
        outcomes = _seed_outcomes(_one_group, *args)
        assert outcomes == _seed_outcomes(one_run_per_seed, *args)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_reach_tol_at_different_k(self, variant):
        # The rows that stop leave the block, and the rest step on with
        # their own iterates, differences and gradients.
        basin = builtin_problem("example52")
        coefs = (dict(alpha=0.4, beta=0.15, s=0.125) if variant == "IAA"
                 else dict(alpha=0.7, beta=0.04, theta=0.05))
        cfg = AlgorithmConfig(variant, perturb=PerturbationSpec.gaussian(1e-3, 0.0), **coefs)
        args = (basin, cfg, range(1, 7), [3.0, 3.0], StoppingRule(tol=1e-7, max_iter=500))
        outcomes = _seed_outcomes(_one_group, *args)
        assert outcomes == _seed_outcomes(one_run_per_seed, *args)
        assert {trigger for _, trigger, _, _ in outcomes} == {"tol"}
        assert len({rows[-1][0] for rows, _, _, _ in outcomes}) > 1

    def test_middle_seed_blows_up(self):
        # Seed 1 runs its 6 iterates; seed 5 blows up at k = 6; seed 2, which
        # would run, is never reached.
        sine_well = builtin_problem("example51")
        cfg = AlgorithmConfig("HBM", alpha=0.7, beta=0.04,
                              perturb=PerturbationSpec.gaussian(1e13, 0.0))
        args = (sine_well, cfg, (1, 5, 2), [3.0], StoppingRule(tol=None, max_iter=6))
        outcomes = _seed_outcomes(_one_group, *args)
        assert outcomes == _seed_outcomes(one_run_per_seed, *args)
        assert len(outcomes) == 2 and outcomes[0][1] == "max_iter"
        assert outcomes[1][0] == "Divergence" and outcomes[1][2] == 6
        assert _seed_outcomes(one_run_per_seed, sine_well, cfg, (2,), [3.0],
                              StoppingRule(tol=None, max_iter=6))[0][1] == "max_iter"

    def test_zero_draw_is_skipped_per_row(self, monkeypatch):
        # run() skips a zero eps_k; the block adds nothing to that row while
        # the other row's draw lands, so seed 1 runs as if unperturbed.
        problem = shifted_quadratic([1.0], [-0.5])
        draw = optimizers.sample_discrete

        def one_zero_seed(spec, k, dim):
            return np.zeros(dim) if spec.seed == 1 else draw(spec, k, dim)

        monkeypatch.setattr(optimizers, "sample_discrete", one_zero_seed)
        monkeypatch.setattr(optimizers, "sample_discrete_rows", lambda spec, seeds, k, dim: (
            np.array([one_zero_seed(spec.with_seed(seed), k, dim) for seed in seeds])))
        cfg = AlgorithmConfig("HBM", alpha=0.5, beta=0.1,
                              perturb=PerturbationSpec.gaussian(0.5, 0.0))
        stop = StoppingRule(tol=None, max_iter=5)
        outcomes = _seed_outcomes(_one_group, problem, cfg, (1, 2), [0.5], stop)
        assert outcomes == _seed_outcomes(one_run_per_seed, problem, cfg, (1, 2), [0.5], stop)
        calm = dataclasses.replace(cfg, perturb=PerturbationSpec())
        assert outcomes[0] == _result_outcome(run(problem, calm, [0.5], stop=stop))
        assert outcomes[1] != outcomes[0]

    def test_large_blocks_run_one_seed_at_a_time(self, monkeypatch):
        # Columns past LOCKSTEP_FLOATS are not kept: each seed is one run().
        calls = []
        monkeypatch.setattr(optimizers, "run", lambda *args, **kwargs: (
            calls.append(args[1].perturb.seed) or run(*args, **kwargs)))
        basin = builtin_problem("example52")
        cfg = AlgorithmConfig("NAG", alpha=0.7, beta=0.04,
                              perturb=PerturbationSpec.gaussian(1e-3, 0.0))
        stop = StoppingRule(tol=None, max_iter=20)
        args = (basin, cfg, (3, 1, 2), [3.0, 3.0], stop)
        expected = _seed_outcomes(one_run_per_seed, *args)
        calls.clear()
        # 3 seeds * 20 iterates * (2 coordinates + 5 values) = 420 floats
        monkeypatch.setattr(optimizers, "LOCKSTEP_FLOATS", 420)
        assert _seed_outcomes(_one_group, *args) == expected
        assert calls == []
        monkeypatch.setattr(optimizers, "LOCKSTEP_FLOATS", 419)
        assert _seed_outcomes(_one_group, *args) == expected
        assert calls == [3, 1, 2]


# The seed whose every draw is zero, in a group whose other rows draw.
_ZERO_SEED = 0


def _draws_with_a_zero_seed():
    """sample_discrete and sample_discrete_rows, each with _ZERO_SEED's draw
    made zero, to patch into the optimizers module."""
    one, rows = optimizers.sample_discrete, optimizers.sample_discrete_rows

    def draw(spec, k, dim):
        eps = one(spec, k, dim)
        return np.zeros(dim) if spec.seed == _ZERO_SEED else eps

    def draw_rows(spec, seeds, k, dim):
        eps = rows(spec, seeds, k, dim)
        eps[[seed == _ZERO_SEED for seed in seeds]] = 0.0
        return eps

    return draw, draw_rows


_ROW_FORCINGS = {
    "gauss": PerturbationSpec.gaussian(0.5, 0.1),
    "random": PerturbationSpec.power(0.3, 1.5, direction="random"),
    "e1": PerturbationSpec.power(0.3, 1.5),  # the same draw for every seed
    "none": PerturbationSpec.none(),
    # sigma_k underflows to 0, so every row of the group draws zero
    "silent": PerturbationSpec.gaussian(1e-320, 1e300),
    # sigma 1e13 blows up some rows and not others
    "wild": PerturbationSpec.gaussian(1e13, 0.0),
}


class TestRunRowsMatchesRun:
    """One block of several setups, each a group of seeds, yields every
    run's run() result, or its Divergence in its turn, bit for bit."""

    @settings(max_examples=200, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_SEEDS_PROBLEMS)),
        setups=st.lists(st.fixed_dictionaries(dict(
            variant=st.sampled_from(VARIANTS),
            forcing=st.sampled_from(sorted(_ROW_FORCINGS)),
            alpha=st.floats(min_value=0.0, max_value=1.5),
            beta=st.floats(min_value=1e-3, max_value=3.0),
            s=st.floats(min_value=1e-3, max_value=3.0),
            theta=st.floats(min_value=0.0, max_value=1.0),
            tol=st.none() | st.floats(min_value=1e-12, max_value=1e-2),
            max_iter=st.integers(min_value=1, max_value=40),
            seeds=st.lists(st.integers(min_value=1, max_value=2**32), min_size=1,
                           max_size=3, unique=True),
        )), min_size=2, max_size=5),
        wild_at=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    def test_bitwise_equal(self, name, setups, wild_at, data):
        problem = _SEEDS_PROBLEMS[name]
        point = st.lists(st.floats(min_value=-5.0, max_value=5.0) | st.just(-0.0),
                         min_size=problem.dimension, max_size=problem.dimension)
        setups[wild_at % len(setups)]["forcing"] = "wild"
        setups[0]["seeds"] = [_ZERO_SEED, *setups[0]["seeds"]]
        runs = []
        for setup in setups:
            variant = setup["variant"]
            cfg = AlgorithmConfig(variant, alpha=setup["alpha"], beta=setup["beta"],
                                  theta=setup["theta"],
                                  s=setup["s"] if variant == "IAA" else None,
                                  perturb=_ROW_FORCINGS[setup["forcing"]])
            stop = StoppingRule(tol=setup["tol"], max_iter=setup["max_iter"])
            runs += seed_rows(cfg, setup["seeds"], data.draw(point), stop)
        draw, draw_rows = _draws_with_a_zero_seed()
        with mock.patch.object(optimizers, "sample_discrete", draw), \
                mock.patch.object(optimizers, "sample_discrete_rows", draw_rows):
            outcomes = _seed_outcomes(optimizers.run_rows, problem, runs)
            assert outcomes == _seed_outcomes(one_run_per_row, problem, runs)

    def test_setups_end_in_their_turn(self, monkeypatch):
        # Two calm groups around a wild one whose second seed blows up at
        # k = 6, and a zero-draw row: the block yields the runs before the
        # blow-up and then raises it, as one run() per run does.
        sine_well = builtin_problem("example51")
        draw, draw_rows = _draws_with_a_zero_seed()
        monkeypatch.setattr(optimizers, "sample_discrete", draw)
        monkeypatch.setattr(optimizers, "sample_discrete_rows", draw_rows)
        calm = AlgorithmConfig("IAA", alpha=0.45, beta=0.01, s=1.0 / 6.0,
                               perturb=PerturbationSpec.gaussian(1e-3, 0.01))
        drift = AlgorithmConfig("NAG_H", alpha=0.7, beta=0.04, theta=0.05,
                                perturb=PerturbationSpec.gaussian(1e-3, 0.01))
        wild = AlgorithmConfig("HBM", alpha=0.7, beta=0.04,
                               perturb=PerturbationSpec.gaussian(1e13, 0.0))
        runs = [*seed_rows(calm, (_ZERO_SEED, 3), [3.0], StoppingRule(tol=1e-6, max_iter=300)),
                *seed_rows(drift, (4,), [-1.0], StoppingRule(tol=1e-9, max_iter=250)),
                *seed_rows(wild, (1, 5, 2), [3.0], StoppingRule(tol=None, max_iter=6)),
                *seed_rows(drift, (7,), [2.0], StoppingRule(tol=None, max_iter=20))]
        outcomes = _seed_outcomes(optimizers.run_rows, sine_well, runs)
        assert outcomes == _seed_outcomes(one_run_per_row, sine_well, runs)
        assert [outcome[1] for outcome in outcomes[:4]] == ["tol", "tol", "tol", "max_iter"]
        assert outcomes[4][0] == "Divergence" and outcomes[4][2] == 6
        assert len(outcomes) == 5
        # The zero-draw row runs as if unperturbed, the other calm row does not.
        with pytest.warns(UserWarning, match="outside T41 box"):
            calm_only = _result_outcome(run(sine_well, dataclasses.replace(
                calm, perturb=PerturbationSpec()), [3.0], stop=runs[0][2]))
        assert outcomes[0][:3] == calm_only[:3] != outcomes[1][:3]

    def test_one_seed_group_is_one_run_call_in_its_turn(self, monkeypatch):
        # A group with one seed gains nothing from the block: it is one run()
        # call, made after the results before it and before those after it,
        # while the two-seed groups around it step in one block.
        events = []
        real_run = optimizers.run

        def counting_run(*args, **kwargs):
            events.append("run")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(optimizers, "run", counting_run)
        noise = PerturbationSpec.gaussian(0.001, 0.01)
        iaa = AlgorithmConfig("IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise)
        hbm = AlgorithmConfig("HBM", alpha=0.7, beta=0.04, perturb=noise)
        nag = AlgorithmConfig("NAG", alpha=0.7, beta=0.04, perturb=noise)
        block_stop, alone_stop = StoppingRule(tol=None, max_iter=12), StoppingRule(tol=None,
                                                                                  max_iter=7)
        runs = [*seed_rows(iaa, (4, 2), [3.0, 3.0], block_stop),
                *seed_rows(hbm, (1,), [3.0, 3.0], alone_stop),
                *seed_rows(nag, (9, 3), [3.0, 3.0], block_stop)]
        basin = builtin_problem("example52")
        for res in optimizers.run_rows(basin, runs):
            events.append(res.final.k)
        assert events == [12, 12, "run", 7, 12, 12]
        assert (_seed_outcomes(optimizers.run_rows, basin, runs)
                == _seed_outcomes(one_run_per_row, basin, runs))


    @pytest.mark.parametrize("x0", [[3.0, 3.0, 3.0], [3.0, math.nan]])
    def test_refused_x0_raises_in_its_turn(self, x0):
        # The second setup's x0 is refused, so its runs are not block rows:
        # each is one run() call, which raises after the first setup's results.
        noise = PerturbationSpec.gaussian(1e-3, 0.01)
        iaa = AlgorithmConfig("IAA", alpha=0.4, beta=0.15, s=0.125, perturb=noise)
        nag_h = AlgorithmConfig("NAG_H", alpha=0.7, beta=0.04, theta=0.05, perturb=noise)
        stop = StoppingRule(tol=None, max_iter=12)
        runs = [*seed_rows(iaa, (1, 2), [3.0, 3.0], stop), *seed_rows(nag_h, (1, 2), x0, stop)]
        basin = builtin_problem("example52")
        outcomes = _seed_outcomes(optimizers.run_rows, basin, runs)
        assert outcomes == _seed_outcomes(one_run_per_row, basin, runs)
        assert [outcome[1] for outcome in outcomes[:2]] == ["max_iter", "max_iter"]
        assert outcomes[2][0] == "ValueError" and len(outcomes) == 3


class TestFloatFormMatchesFallback:
    """example51's float form gives the records, trigger, counts and blow-up
    of the same problem without it, whose array func and grad run() wraps."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("noise", [None, PerturbationSpec.gaussian(0.5, 0.1, seed=7)])
    @pytest.mark.parametrize("blow_up", [False, True])
    def test_bitwise_equal(self, variant, noise, blow_up):
        example51 = builtin_problem("example51")
        fallback = dataclasses.replace(example51, float_form=None)
        cfg = dataclasses.replace(_bench_config(variant), perturb=noise or PerturbationSpec())
        if blow_up:  # step 5 against a curvature of up to 6
            cfg = dataclasses.replace(cfg, alpha=0.9, beta=5.0)
            if variant == "IAA":
                cfg = dataclasses.replace(cfg, s=5.0)
        stop = StoppingRule(tol=1e-10, max_iter=3000)
        outcome = _run_outcome(run, example51, cfg, [3.0], None, stop)
        assert outcome == _run_outcome(run, fallback, cfg, [3.0], None, stop)
        ending = "Divergence" if blow_up else "tol"
        assert ending in (outcome[0], outcome[1]), (variant, outcome[:2])


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
