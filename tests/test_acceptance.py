"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 2 and 8 are split so their independent clauses report
separately.
"""

import math
import time

import numpy as np
import pytest

from inertiq import (
    AlgorithmConfig,
    PerturbationSpec,
    StoppingRule,
    builtin_problem,
    check_assumptions,
    execute,
    fit_rate,
    geometric_sum_oracle,
    integrate,
    make_quadratic,
    parameter_box,
    preset,
    rate_certificate,
    rate_constants,
    run,
)

REL = 1.0 + 1e-9  # shared relative slack on certified bounds


def report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {label}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def sine_well():
    return builtin_problem("example51")


def test_criterion_1_contraction_bound_suite(sine_well):
    """Per-step energy contraction and the three certified decay bounds
    along the benchmark run, k <= 2000, relative slack 1e-9."""
    t0 = time.time()
    consts = rate_constants(sine_well, "T41", 0.3, 0.2, 1.0 / 6.0)
    rho = consts["rho"]
    assert rho == pytest.approx(5.775e-4, rel=1e-3)
    res = run(
        sine_well,
        AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0),
        [3.0],
        stop=StoppingRule(tol=None, max_iter=2001),
    )
    recs = res.records
    e1 = recs[1].energy
    assert e1 == pytest.approx(9.039829, abs=1e-6)
    gamma, L, alpha, beta = sine_well.gamma, sine_well.lipschitz, 0.3, 0.2

    failures = []
    for a, b in zip(recs[1:2001], recs[2:2002]):
        if b.energy > (1.0 - rho) * a.energy * REL:
            failures.append(f"contraction at k={a.k}")
            break
    for rec in recs[1:2001]:
        decay = (1.0 - rho) ** (rec.k - 1)
        if rec.value_error > e1 * decay * REL:
            failures.append(f"value bound at k={rec.k}")
            break
        if rec.dist**2 > (4.0 * e1 / gamma) * decay * REL:
            failures.append(f"distance bound at k={rec.k}")
            break
        if rec.step**2 > (2.0 * alpha * e1 / (L * beta)) * decay * REL:
            failures.append(f"step bound at k={rec.k}")
            break
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "discrete contraction + rate bounds (k <= 2000)", not failures,
           f"rho={rho:.4g}, E1={e1:.6f}, {elapsed:.2f}s")
    assert not failures, failures


def _fig12_stats():
    summary = execute(preset("fig12"))
    by_label = {s.label: s for s in summary.stats}
    return by_label


def test_criterion_2_iterations_ordering():
    """All five benchmark algorithms converge to 1e-10 and the extrapolated
    method needs strictly fewer iterations than every baseline."""
    t0 = time.time()
    stats = _fig12_stats()
    failures = []
    for label, s in stats.items():
        if not s.reached_tol:
            failures.append(f"{label} did not reach tol")
    iaa = stats["IAA"].iterations
    for label in ("HBM", "NAG", "HBM-H", "NAG-H"):
        if not iaa < stats[label].iterations:
            failures.append(f"IAA {iaa} !< {label} {stats[label].iterations}")
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    detail = ", ".join(f"{l}={s.iterations}" for l, s in stats.items())
    report("2a", "tolerance reached, fastest-iterations ordering", not failures, detail)
    assert not failures, failures


def test_criterion_2_oscillation_ordering():
    """Reversal-fraction ordering on the tolerance runs.

    Known-red: near the minimizer the extrapolated method's linearized
    iteration matrix has complex eigenvalues rotating ~81 deg/step (s*L = 1
    exactly), so it reverses direction every ~2 steps at rapidly vanishing
    amplitude, while the baselines rotate 28-30 deg/step and reverse every
    ~6 steps at much larger amplitude.  A per-step reversal count therefore
    ranks the extrapolated method as most oscillatory even though its
    oscillation amplitude is orders of magnitude smaller (compare the
    trajectory CSVs); no windowing or normalization of the reversal count
    inverts this.
    """
    stats = _fig12_stats()
    iaa = stats["IAA"].oscillation
    failures = []
    for label in ("HBM", "NAG", "HBM-H", "NAG-H"):
        if not iaa <= stats[label].oscillation:
            failures.append(
                f"IAA osc {iaa:.3f} > {label} {stats[label].oscillation:.3f}"
            )
    detail = ", ".join(f"{l}={s.oscillation:.3f}" for l, s in stats.items())
    report("2b", "reversal-fraction ordering", not failures, detail)
    assert not failures, failures


def test_criterion_3_continuous_certificate(sine_well):
    """Energy monotonicity and the exponential certificate along the
    damped flow, alpha=1, beta=0.1, t in [0, 40], dt=1e-3."""
    t0 = time.time()
    lam, kappa = 24.0 / 49.0, 1.0 / 12.0
    assert sine_well.kappa == pytest.approx(kappa)
    recs = integrate(
        sine_well, 1.0, 0.1, PerturbationSpec.none(),
        [3.0], [0.0], t0=0.0, t_end=40.0, dt=1e-3, record_every=1,
    )
    e = np.array([r.energy for r in recs])
    failures = []
    if not np.all(np.diff(e) <= 1e-6 * e[0]):
        failures.append("energy increased beyond slack")
    passed, worst = rate_certificate(recs, lam, kappa)
    if not passed:
        failures.append(f"exponential bound violated (worst slack {worst:.3e})")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report(3, "continuous energy certificate", not failures,
           f"E0={e[0]:.5f}, worst_slack={worst:.3e}, {elapsed:.2f}s")
    assert not failures, failures


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_criterion_4_perturbed_power_rates(sine_well, p):
    """10^4 perturbed iterations with eps_k = 0.1/k^p: fitted log-log slopes
    of the value error and the distance match the forcing's power law."""
    t0 = time.time()
    alpha = 0.2
    box = parameter_box(sine_well, "T42", alpha=alpha)
    beta = box.beta.midpoint()
    assert box.beta.contains(beta)
    cfg = AlgorithmConfig(
        variant="IAA", alpha=alpha, beta=beta, s=1.0 / 6.0,
        perturb=PerturbationSpec.power(0.1, p),
    )
    res = run(sine_well, cfg, [3.0], stop=StoppingRule(tol=None, max_iter=10_000))
    value_series = [(r.k, r.value_error) for r in res.records]
    dist_series = [(r.k, r.dist) for r in res.records]
    # floor=0: the forced response is positive but sinks far below 1e-15
    # for p=2 while staying numerically meaningful (f* = 0 exactly).
    value_slope = -fit_rate(value_series, "power", 0.5, floor=0.0).rate
    dist_slope = -fit_rate(dist_series, "power", 0.5, floor=0.0).rate
    failures = []
    if not value_slope <= -2.0 * p + 0.4:
        failures.append(f"value slope {value_slope:.3f} > {-2 * p + 0.4}")
    if not dist_slope <= -p + 0.3:
        failures.append(f"dist slope {dist_slope:.3f} > {-p + 0.3}")
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(4, f"perturbed discrete power rates (p={p:g})", not failures,
           f"value {value_slope:.3f} <= {-2 * p + 0.4}, dist {dist_slope:.3f} <= {-p + 0.3}, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_5_continuous_power_rate(sine_well):
    """Perturbed flow with eps(t) = 0.1/t over [1, 200]: trajectory error
    decays at the forcing's rate over the second half."""
    t0 = time.time()
    alpha, beta, p = 1.0, 0.1, 1.0
    box = parameter_box(sine_well, "T32", alpha=alpha)
    assert box.beta.contains(beta)
    recs = integrate(
        sine_well, alpha, beta, PerturbationSpec.power(0.1, p),
        [3.0], [0.0], t0=1.0, t_end=200.0, dt=1e-3, record_every=100,
    )
    series = [(r.t, r.traj_error) for r in recs if r.t >= 100.0]
    slope = -fit_rate(series, "power", 1.0).rate
    elapsed = time.time() - t0
    failures = []
    if not slope <= -p + 0.5:
        failures.append(f"slope {slope:.3f} > {-p + 0.5}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    report(5, "continuous power rate (p=1)", not failures,
           f"slope={slope:.3f} <= {-p + 0.5}, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_6_assumption_suite(sine_well):
    """Zero violations of all four structural inequalities on both
    benchmark problems at 10^4 samples."""
    t0 = time.time()
    failures = []
    for label, prob, box in (("example51", sine_well, (-10.0, 10.0)),
                             ("example52", builtin_problem("example52"), (-5.0, 5.0))):
        reports = check_assumptions(prob, box, samples=10_000, seed=2024)
        for rep in reports:
            if not rep.passed:
                failures.append(
                    f"{label}/{rep.assumption}: {rep.violations} violations "
                    f"(worst {rep.worst_margin:.3e})"
                )
    elapsed = time.time() - t0
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s >= 2s")
    report(6, "assumption suite on both problems", not failures, f"{elapsed:.2f}s")
    assert not failures, failures


def test_criterion_7_geometric_sum_oracle():
    """Geometric-tail sums stay bounded for 20 random (theta, q) pairs."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    failures = []
    for _ in range(20):
        theta = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.5, 3.0))
        _, bounded = geometric_sum_oracle(theta, q, 10_000)
        if not bounded:
            failures.append(f"unbounded at theta={theta:.3f}, q={q:.3f}")
    elapsed = time.time() - t0
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s >= 2s")
    report(7, "geometric-tail oracle, 20 random pairs", not failures, f"{elapsed:.2f}s")
    assert not failures, failures


# Frozen from the reference run of this preset (seeds 1..10); the runs are
# deterministic, so the observed mean reproduces exactly (9.687e-5).
FIG45_MEAN_FINAL_DIST_GOLDEN = 1.0e-4


def _fig45_means():
    summary = execute(preset("fig45"))
    labels = ("IAA-Per", "HBM-Per", "NAG-Per", "HBM-H-Per", "NAG-H-Per")
    dists, oscs, iters = {}, {}, {}
    for label in labels:
        per = summary.stats_for(label)
        dists[label] = float(np.mean([s.final_dist for s in per]))
        oscs[label] = float(np.mean([s.oscillation for s in per]))
        iters[label] = {s.iterations for s in per}
    return dists, oscs, iters


def test_criterion_8_perturbed_reproduction():
    """fig45 preset over 10 seeds: every run completes 200 finite iterations
    and the perturbed extrapolated method lands below the frozen golden
    mean-final-distance threshold."""
    t0 = time.time()
    dists, _, iters = _fig45_means()
    failures = []
    for label, its in iters.items():
        if its != {200}:
            failures.append(f"{label} iterations {its} != 200")
    if not dists["IAA-Per"] <= FIG45_MEAN_FINAL_DIST_GOLDEN:
        failures.append(
            f"mean final dist {dists['IAA-Per']:.4e} > golden {FIG45_MEAN_FINAL_DIST_GOLDEN:.1e}"
        )
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report("8a", "perturbed 200-iteration reproduction + golden threshold",
           not failures,
           f"mean_dist={dists['IAA-Per']:.4e} <= {FIG45_MEAN_FINAL_DIST_GOLDEN:.1e}, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_8_perturbed_oscillation_ordering():
    """Mean reversal-fraction ordering across the perturbed runs.

    Known-red for the same structural reason as the unperturbed ordering:
    at the noise floor each method reverses at a frequency set by its
    linearized rotation angle, and the extrapolated method (s*lambda_max
    = 0.53 at the minimizer) rotates ~46 deg/step versus ~24 deg for the
    small-step baselines, independent of seed.
    """
    _, oscs, _ = _fig45_means()
    iaa = oscs["IAA-Per"]
    failures = []
    for label in ("HBM-Per", "NAG-Per", "HBM-H-Per", "NAG-H-Per"):
        if not iaa <= oscs[label]:
            failures.append(f"IAA-Per osc {iaa:.3f} > {label} {oscs[label]:.3f}")
    detail = ", ".join(f"{l}={v:.3f}" for l, v in oscs.items())
    report("8b", "perturbed reversal-fraction ordering", not failures, detail)
    assert not failures, failures


def test_criterion_9_integrator_order():
    """Halving dt cuts the max error against the closed-form damped
    oscillator by at least 12x (4th-order behavior)."""
    t0 = time.time()
    prob = make_quadratic([1.0])
    om = math.sqrt(3.0) / 2.0

    def exact(t):
        return math.exp(-0.5 * t) * (math.cos(om * t) + (0.5 / om) * math.sin(om * t))

    def max_error(dt):
        recs = integrate(prob, 1.0, 0.0, PerturbationSpec.none(),
                         [1.0], [0.0], t_end=10.0, dt=dt)
        return max(abs(r.x[0] - exact(r.t)) for r in recs)

    e_coarse = max_error(1e-2)
    e_fine = max_error(5e-3)
    factor = e_coarse / e_fine
    elapsed = time.time() - t0
    failures = []
    if not factor >= 12.0:
        failures.append(f"error factor {factor:.2f} < 12")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(9, "integrator 4th-order behavior", not failures,
           f"factor={factor:.2f}, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_10_reduction_identities(sine_well):
    """beta=0 reproduces the s-step heavy-ball recursion and beta=alpha the
    extrapolated-gradient recursion, sequence-equal over 100 iterations."""
    t0 = time.time()
    stop = StoppingRule(tol=None, max_iter=100)
    failures = []
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary coefficients are uncertified
        hb_like = run(sine_well,
                      AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.0, s=1.0 / 6.0),
                      [3.0], stop=stop)
        nag_like = run(sine_well,
                       AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.3, s=1.0 / 6.0),
                       [3.0], stop=stop)
    hbm = run(sine_well, AlgorithmConfig(variant="HBM", alpha=0.3, beta=1.0 / 6.0),
              [3.0], stop=stop)
    nag = run(sine_well, AlgorithmConfig(variant="NAG", alpha=0.3, beta=1.0 / 6.0),
              [3.0], stop=stop)
    for name, a, b in (("beta=0 vs HBM", hb_like, hbm),
                       ("beta=alpha vs NAG", nag_like, nag)):
        diff = max(
            float(np.max(np.abs(ra.x - rb.x)))
            for ra, rb in zip(a.records, b.records)
        )
        if diff > 1e-12:
            failures.append(f"{name}: max deviation {diff:.3e}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(10, "reduction identities over 100 iterations", not failures,
           f"{elapsed:.2f}s")
    assert not failures, failures
