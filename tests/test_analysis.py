"""Parameter boxes, certified constants, assumption checks, energies."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import inertiq
from inertiq import (
    builtin_problem,
    check_assumptions,
    continuous_energy,
    discrete_energy,
    make_quadratic,
    parameter_box,
    rate_constants,
)
from inertiq.analysis import SLACK_TOL, AssumptionReport, Interval
from inertiq.cli import main
from inertiq.errors import MissingMinimizer, OutOfBox
from inertiq.problems import Problem


@pytest.fixture(scope="module")
def sine_well():
    return builtin_problem("example51")


@pytest.fixture(scope="module")
def arctan_basin():
    return builtin_problem("example52")


_ENDS = [(False, False), (False, True), (True, False), (True, True)]


class TestInterval:
    @settings(max_examples=200, database=None, derandomize=True, deadline=None)
    @given(
        lo=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=1e-3, max_value=1e6),
        offset=st.floats(min_value=1e-3, max_value=1e6),
        ends=st.sampled_from(_ENDS),
    )
    def test_endpoint_semantics(self, lo, width, offset, ends):
        lo_open, hi_open = ends
        hi = lo + width
        iv = Interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
        assert not iv.empty
        assert iv.contains(lo) == (not lo_open)
        assert iv.contains(hi) == (not hi_open)
        assert iv.contains(iv.midpoint())
        assert not iv.contains(lo - offset)
        assert not iv.contains(hi + offset)

    @pytest.mark.parametrize("lo_open, hi_open", _ENDS)
    def test_degenerate_interval(self, lo_open, hi_open):
        point = Interval(0.25, 0.25, lo_open=lo_open, hi_open=hi_open)
        assert point.empty == (lo_open or hi_open)
        assert point.contains(0.25) == (not point.empty)
        # an empty interval contains nothing, not even points between its ends
        reversed_ = Interval(1.0, 0.0, lo_open=lo_open, hi_open=hi_open)
        assert reversed_.empty
        assert not any(reversed_.contains(x) for x in (0.0, 0.5, 1.0))

    @pytest.mark.parametrize("theorem", ["T41", "T42"])
    def test_t4x_alpha_interval_is_open(self, sine_well, theorem):
        alpha = parameter_box(sine_well, theorem).alpha
        assert (alpha.lo, alpha.hi) == (0.0, 0.5)
        assert not alpha.contains(0.0) and not alpha.contains(0.5)
        assert alpha.contains(0.25)

    def test_t31_alpha_interval_includes_upper_end(self, sine_well):
        alpha = parameter_box(sine_well, "T31").alpha
        assert alpha.contains(alpha.hi)
        assert not alpha.contains(0.0)


class TestParameterBox:
    def test_t31_alpha_upper_bound(self, sine_well):
        box = parameter_box(sine_well, "T31")
        kappa = sine_well.kappa
        expected = (kappa + 4.0) / 4.0 * math.sqrt(sine_well.gamma / kappa)
        assert box.alpha.hi == pytest.approx(expected, rel=1e-15)
        assert box.alpha.hi == pytest.approx(2.50052, abs=1e-5)
        assert box.alpha.lo == 0.0 and box.alpha.lo_open
        assert not box.alpha.hi_open

    def test_t31_beta_bound_formula(self, sine_well):
        box = parameter_box(sine_well, "T31", alpha=1.0)
        k = sine_well.kappa
        g = sine_well.gamma
        expected = (
            math.sqrt(1.0 * (k + 2) ** 4 + 16 * g * (k + 4) ** 3) - (k + 2) ** 2
        ) / (4 * g * (k + 4))
        assert box.beta.hi == pytest.approx(expected, rel=1e-15)
        assert box.beta.contains(0.0)  # closed at zero
        assert box.derived["lambda"] == pytest.approx(24.0 / 49.0, rel=1e-15)

    def test_t32_bounds(self, sine_well):
        box = parameter_box(sine_well, "T32", alpha=1.0)
        k, g = sine_well.kappa, sine_well.gamma
        a_hi = (k + 4) / 4 * math.sqrt(g / (2 * k))
        b_hi = (
            math.sqrt(2 * (k + 2) ** 4 + 27 * g * (k + 4) ** 3)
            - math.sqrt(2) * (k + 2) ** 2
        ) / (9 * math.sqrt(2) * g * (k + 4))
        assert box.alpha.hi == pytest.approx(a_hi, rel=1e-15)
        assert box.beta.hi == pytest.approx(b_hi, rel=1e-15)

    def test_t41_beta_interval_contains_benchmark(self, sine_well):
        box = parameter_box(sine_well, "T41", alpha=0.3)
        disc = math.sqrt(1.0585)
        assert box.beta.lo == pytest.approx((1.09 - disc) / 2.4, rel=1e-12)
        assert box.beta.lo == pytest.approx(0.025483, abs=1e-5)
        assert box.beta.hi == pytest.approx(0.3, rel=1e-15)  # min(alpha, upper root)
        assert box.beta.contains(0.2)
        assert box.beta.lo_open and box.beta.hi_open

    def test_t42_beta_interval_contains_benchmark(self, arctan_basin):
        box = parameter_box(arctan_basin, "T42", alpha=0.4)
        disc = math.sqrt(0.5904)
        assert box.beta.lo == pytest.approx((1.0 - disc) / 3.2, rel=1e-12)
        assert box.beta.lo == pytest.approx(0.072385, abs=1e-5)
        assert box.beta.hi == pytest.approx(0.2, rel=1e-15)  # min(alpha/2, upper root)
        assert box.beta.contains(0.15)

    def test_infeasible_alpha(self, sine_well):
        with pytest.raises(OutOfBox, match="alpha"):
            parameter_box(sine_well, "T41", alpha=0.5)  # open upper endpoint
        with pytest.raises(OutOfBox, match="alpha"):
            parameter_box(sine_well, "T31", alpha=3.0)
        with pytest.raises(OutOfBox, match="alpha"):
            parameter_box(sine_well, "T31", alpha=-0.1)

    def test_t41_stepsize_must_match(self, sine_well):
        with pytest.raises(OutOfBox):
            parameter_box(sine_well, "T41", alpha=0.3, s=0.5)

    def test_unknown_theorem(self, sine_well):
        with pytest.raises(ValueError):
            parameter_box(sine_well, "T99")


class TestRateConstants:
    def test_t41_benchmark_constants(self, sine_well):
        consts = rate_constants(sine_well, "T41", alpha=0.3, beta=0.2, s=1.0 / 6.0)
        assert consts["c"] == pytest.approx(4.0, rel=1e-12)
        # rho = min{(1/36)/48.1, 1.43/2.22}
        assert consts["rho"] == pytest.approx((1.0 / 36.0) / 48.1, rel=1e-12)
        assert consts["rho"] == pytest.approx(5.775e-4, rel=1e-3)

    def test_t31_lambda(self, sine_well):
        consts = rate_constants(sine_well, "T31", alpha=1.0, beta=0.1)
        assert consts["lambda"] == pytest.approx(24.0 / 49.0, rel=1e-15)
        # the box's lambda, bit for bit, in a dict of the caller's own
        box = parameter_box(sine_well, "T31", alpha=1.0)
        assert consts == box.derived and consts is not box.derived

    def test_t42_sigma_vanishes_at_half_alpha(self, sine_well):
        # first branch numerator (1/2 - beta/alpha) -> 0+ as beta -> alpha/2
        alpha = 0.2
        for shrink in (1e-6, 1e-9):
            beta = 0.5 * alpha * (1.0 - shrink)
            consts = rate_constants(sine_well, "T42", alpha, beta, s=1.0 / 6.0)
            assert 0.0 < consts["sigma"] < shrink

    def test_t42_n_constant(self, arctan_basin):
        consts = rate_constants(arctan_basin, "T42", alpha=0.4, beta=0.15, s=0.125)
        L = arctan_basin.lipschitz
        expected = (1.0 / L) * (0.5 + 0.15 / 0.4 + 0.4 / 0.3)
        assert consts["N"] == pytest.approx(expected, rel=1e-15)
        assert 0.0 < consts["sigma"] < 1.0

    def test_out_of_box(self, sine_well):
        with pytest.raises(OutOfBox):
            rate_constants(sine_well, "T41", alpha=0.3, beta=0.3, s=1.0 / 6.0)

    @pytest.mark.parametrize("theorem", ["T41", "T42"])
    @pytest.mark.parametrize("alpha, beta, s, message", [
        (0.6, 0.2, 1.0 / 6.0, "alpha = 0.6 outside"),
        (0.3, 0.3, 1.0 / 6.0, "beta = 0.3 outside"),
        (0.3, 0.1, 0.5, "requires s = 1/L"),
    ])
    def test_every_miss_is_out_of_box(self, sine_well, theorem, alpha, beta, s, message):
        # beta = 0.1 lies in both slices at alpha = 0.3, beta = 0.3 in neither
        with pytest.raises(OutOfBox, match=message):
            rate_constants(sine_well, theorem, alpha, beta, s)

    def test_open_endpoints_excluded(self, sine_well):
        # T41's beta interval is open: both endpoints are rejected exactly
        box = parameter_box(sine_well, "T41", alpha=0.3)
        for beta in (box.beta.lo, box.beta.hi):
            with pytest.raises(OutOfBox):
                rate_constants(sine_well, "T41", alpha=0.3, beta=beta)
        # T31's closed endpoints are admissible
        box31 = parameter_box(sine_well, "T31", alpha=1.0)
        consts = rate_constants(sine_well, "T31", alpha=1.0, beta=box31.beta.hi)
        assert consts["lambda"] == pytest.approx(24.0 / 49.0)

    @pytest.mark.parametrize("theorem", ["T41", "T42"])
    def test_inbox_samples_sign_conditions(self, sine_well, theorem):
        """10^3 random in-box (alpha, beta): sign conditions and rho/sigma in (0,1)."""
        rng = np.random.default_rng(21)
        count = 0
        while count < 1000:
            alpha = rng.uniform(0.01, 0.49)
            box = parameter_box(sine_well, theorem, alpha=alpha)
            lo, hi = box.beta.lo, box.beta.hi
            if hi <= lo:
                continue
            width = hi - lo
            beta = rng.uniform(lo + 1e-9 * width, hi - 1e-9 * width)
            if theorem == "T41":
                assert (alpha**2 + 1) * beta - 4 * alpha * beta**2 - alpha**3 > 0
                assert beta < alpha
                key = "rho"
            else:
                assert beta - 4 * alpha * beta**2 - alpha**3 > 0
                assert beta < alpha / 2
                key = "sigma"
            consts = rate_constants(sine_well, theorem, alpha, beta)
            assert 0.0 < consts[key] < 1.0
            count += 1


class TestCheckAssumptions:
    def test_sine_well_passes(self, sine_well):
        reports = check_assumptions(sine_well, (-10.0, 10.0), samples=10_000, seed=3)
        assert [r.assumption for r in reports] == ["QuadGrowth", "SQC", "PL", "A1"]
        for rep in reports:
            assert rep.passed and rep.violations == 0

    def test_identity_quadratic_passes(self):
        p = make_quadratic([1.0, 1.0])
        reports = check_assumptions(p, [(-1.0, 1.0), (-1.0, 1.0)], samples=1000, seed=4)
        assert all(r.passed for r in reports)
        assert p.kappa == 1.0

    def test_mislabeled_modulus_fails_quadratic_growth(self):
        # f(x) = x^2 claimed with gamma = 10: 10/4 x^2 > x^2 for x != 0
        p = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: 2.0 * x,
            gamma=10.0,
            lipschitz=2.0,
            minimizer=np.array([0.0]),
            min_value=0.0,
        )
        reports = check_assumptions(p, (-1.0, 1.0), samples=500, seed=5)
        quad = reports[0]
        assert quad.assumption == "QuadGrowth"
        assert not quad.passed
        assert quad.worst_margin < 0

    def test_deterministic_given_seed(self, sine_well):
        a = check_assumptions(sine_well, (-10.0, 10.0), samples=500, seed=42)
        b = check_assumptions(sine_well, (-10.0, 10.0), samples=500, seed=42)
        assert a == b
        c = check_assumptions(sine_well, (-10.0, 10.0), samples=500, seed=43)
        assert any(x.worst_margin != y.worst_margin for x, y in zip(a, c))

    def test_missing_minimizer(self):
        p = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: 2.0 * x,
            gamma=1.0,
            lipschitz=2.0,
        )
        with pytest.raises(MissingMinimizer):
            check_assumptions(p, (-1.0, 1.0), samples=10, seed=0)

    def test_nan_slack_is_a_violation(self):
        # f is NaN on x >= 0.5: QuadGrowth, PL and A1 see NaN slacks there
        p = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2) if x[0] < 0.5 else math.nan,
            grad=lambda x: 2.0 * x,
            gamma=1.0,
            lipschitz=2.0,
            minimizer=np.array([0.0]),
            min_value=0.0,
        )
        reports = {r.assumption: r for r in check_assumptions(p, (-1.0, 1.0), 400, 7)}
        for tag in ("QuadGrowth", "PL", "A1"):
            assert 0 < reports[tag].violations < 400
            assert math.isnan(reports[tag].worst_margin)
            assert not reports[tag].passed

    def test_cli_nan_slack_exits_1(self, capsys):
        # example51 overflows to f = inf on this box; inf - inf slacks are NaN
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["check", "--problem", "example51", "--box=-1e200,1e200",
                         "--samples", "100", "--quiet"])
        assert code == 1
        rows = {ln.split()[0]: ln.split()[1:] for ln in
                capsys.readouterr().out.splitlines()[1:]}
        for tag in ("QuadGrowth", "PL", "A1"):
            assert rows[tag] == ["100", "100", "nan", "False"]

    def test_cli_overflowing_box_writes_nothing_to_stderr(self):
        # The same command as above in its own process, warnings shown as
        # Python shows them by default, and no errstate around it.
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "inertiq.cli", "check",
             "--problem", "example51", "--box=-1e200,1e200", "--samples", "100"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(inertiq.__file__).parents[1])},
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        rows = [ln.split() for ln in proc.stdout.splitlines()[1:]]
        assert rows == [[tag, "100", "100", "nan", "False"]
                        for tag in ("QuadGrowth", "SQC", "PL", "A1")]

    @pytest.mark.parametrize("box", [
        (-1e308, 1e308),
        (-math.inf, 0.0),
        [(-1.0, 1.0), (0.0, math.inf)],
    ])
    def test_box_without_finite_width(self, arctan_basin, box):
        with pytest.raises(ValueError, match="finite width"):
            check_assumptions(arctan_basin, box, samples=10, seed=0)

    @pytest.mark.parametrize("box", ["-1e308,1e308", "-inf,inf"])
    def test_cli_box_without_finite_width(self, capsys, box):
        code = main(["check", "--problem", "example51", f"--box={box}", "--quiet"])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err


def _check_assumptions_reference(problem, box, samples, seed):
    """The per-sample loop that ``check_assumptions`` replaced, kept as the
    reference its array expressions must equal bit for bit."""
    box = np.asarray(box, dtype=np.float64)
    if box.shape == (2,):
        box = np.tile(box, (problem.dimension, 1))
    rng = np.random.default_rng(seed)
    xstar, fstar = problem.minimizer, problem.min_value
    gamma, L, kappa = problem.gamma, problem.lipschitz, problem.kappa

    singles = rng.uniform(box[:, 0], box[:, 1], size=(samples, problem.dimension))
    qg, pl, a1 = np.empty(samples), np.empty(samples), np.empty(samples)
    for i, x in enumerate(singles):
        fx = float(problem.func(x))
        gx = problem.grad(x)
        diff = x - xstar
        d2 = float(np.dot(diff, diff))
        qg[i] = fx - fstar - 0.25 * gamma * d2
        pl[i] = float(np.dot(gx, gx)) - gamma**2 / (2.0 * L) * (fx - fstar)
        a1[i] = float(np.dot(gx, diff)) - kappa * (fx - fstar)

    pairs = rng.uniform(box[:, 0], box[:, 1], size=(samples, 2, problem.dimension))
    sqc = np.empty(samples)
    for i, (a, b) in enumerate(pairs):
        fa, fb = float(problem.func(a)), float(problem.func(b))
        x, y = (a, b) if fa <= fb else (b, a)
        diff = y - x
        sqc[i] = -0.5 * gamma * float(np.dot(diff, diff)) - float(
            np.dot(problem.grad(y), x - y)
        )

    return [
        AssumptionReport(tag, samples, int(np.sum(~(s >= SLACK_TOL))), float(s.min()))
        for tag, s in (("QuadGrowth", qg), ("SQC", sqc), ("PL", pl), ("A1", a1))
    ]


def _soft_well():
    """A custom 3-D problem: sum(x^2/2 + 0.1 sin^2 x), minimizer 0."""
    return Problem(
        dimension=3,
        func=lambda x: float(0.5 * np.dot(x, x) + 0.1 * np.sum(np.sin(x) ** 2)),
        grad=lambda x: x + 0.1 * np.sin(2.0 * x),
        gamma=0.5,
        lipschitz=1.2,
        minimizer=np.zeros(3),
    )


_CHECK_PROBLEMS = {
    "example51": builtin_problem("example51"),
    "example52": builtin_problem("example52"),
    "quadratic1": make_quadratic([0.7]),
    "quadratic2": make_quadratic([0.1, 3.0]),
    "quadratic5": make_quadratic([0.1, 0.5, 1.0, 2.0, 4.0]),
    "custom3": _soft_well(),
}


class TestCheckAssumptionsMatchesReference:
    @settings(max_examples=60, database=None, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_CHECK_PROBLEMS)),
        samples=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        per_axis=st.booleans(),
        data=st.data(),
    )
    def test_bitwise_equal(self, name, samples, seed, per_axis, data):
        problem = _CHECK_PROBLEMS[name]
        axis = st.tuples(
            st.floats(min_value=-20.0, max_value=5.0),
            st.floats(min_value=1e-3, max_value=25.0),
        ).map(lambda lw: (lw[0], lw[0] + lw[1]))
        box = (
            data.draw(st.lists(axis, min_size=problem.dimension,
                               max_size=problem.dimension))
            if per_axis else data.draw(axis)
        )
        got = check_assumptions(problem, box, samples=samples, seed=seed)
        ref = _check_assumptions_reference(problem, box, samples, seed)
        for g, r in zip(got, ref, strict=True):
            assert (g.assumption, g.samples, g.violations) == (
                r.assumption, r.samples, r.violations)
            assert np.float64(g.worst_margin).tobytes() == np.float64(
                r.worst_margin).tobytes()


class TestEnergies:
    def test_continuous_zero_at_rest_point(self, sine_well):
        assert continuous_energy(sine_well, 1.0, 0.1, [0.0], [0.0]) == 0.0

    def test_continuous_benchmark_value(self, sine_well):
        # x=3, v=0: E = f(3) + (1/2)(3 lam)^2 + (lam^2/2) 9 = f(3) + 9 lam^2
        lam = 24.0 / 49.0
        expected = (9.0 + 2.0 * math.sin(3.0) ** 2) + 9.0 * lam**2
        e = continuous_energy(sine_well, 1.0, 0.2, [3.0], [0.0])
        assert e == pytest.approx(expected, rel=1e-14)
        assert e == pytest.approx(11.19893, abs=1e-4)

    def test_continuous_velocity_cancellation(self, sine_well):
        # v = -lam (x - x*) zeroes the |v(t)|^2 term at any scale of x
        lam = 2.0 * 1.0 / (sine_well.kappa + 4.0)
        for x in (1.0, 2.0, 4.0):
            v = -lam * x
            e = continuous_energy(sine_well, 1.0, 0.1, [x], [v])
            expected = float(sine_well.func(np.array([x + 0.1 * v]))) + lam**2 / 2 * x**2
            assert e == pytest.approx(expected, rel=1e-14)

    def test_discrete_values(self, sine_well):
        assert discrete_energy(sine_well, 4.0, [0.0], [0.0]) == 0.0
        e = discrete_energy(sine_well, 4.0, [3.0], [3.0])
        assert e == pytest.approx(9.0 + 2.0 * math.sin(3.0) ** 2, rel=1e-15)
        e = discrete_energy(sine_well, 4.0, [1.0], [0.0])
        assert e == pytest.approx(1.0 + 2.0 * math.sin(1.0) ** 2 + 2.0, rel=1e-15)
        assert e == pytest.approx(4.416147, abs=1e-6)

    @pytest.mark.parametrize("name, alpha, beta, s, x0", [
        ("example51", 0.3, 0.2, 1.0 / 6.0, [3.0]),
        ("example52", 0.4, 0.15, 0.125, [3.0, 3.0]),
        ("quadratic(3,[1,2,4])", 0.3, 0.2, 0.25, [3.0, -2.0, 1.0]),
    ])
    def test_discrete_equals_run_records(self, name, alpha, beta, s, x0):
        # The energy run() records for IAA is discrete_energy, bit for bit.
        problem = builtin_problem(name)
        cfg = inertiq.AlgorithmConfig(variant="IAA", alpha=alpha, beta=beta, s=s)
        stop = inertiq.StoppingRule(tol=None, max_iter=400)
        records = inertiq.run(problem, cfg, x0, stop=stop).records
        c = beta / (alpha * s)
        for prev, rec in zip([records[0], *records], records):
            assert discrete_energy(problem, c, rec.x, prev.x) == rec.energy, rec.k

    def test_nonnegative_on_samples(self, sine_well):
        rng = np.random.default_rng(31)
        for _ in range(500):
            x, v = rng.uniform(-10, 10, size=2)
            assert continuous_energy(sine_well, 1.0, 0.1, [x], [v]) >= 0.0
            xk, xk1 = rng.uniform(-10, 10, size=2)
            assert discrete_energy(sine_well, 4.0, [xk], [xk1]) >= 0.0

    def test_missing_minimizer(self):
        p = Problem(
            dimension=1,
            func=lambda x: float(x[0] ** 2),
            grad=lambda x: 2.0 * x,
            gamma=1.0,
            lipschitz=2.0,
        )
        with pytest.raises(MissingMinimizer):
            continuous_energy(p, 1.0, 0.0, [1.0], [0.0])
        with pytest.raises(MissingMinimizer):
            discrete_energy(p, 1.0, [1.0], [0.0])
