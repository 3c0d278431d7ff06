"""Presets, experiment execution, CSV/summary/checks emission, CLI surface."""

import hashlib
import importlib.util
import json
import re
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from inertiq import (
    AlgorithmConfig,
    ExperimentConfig,
    PerturbationSpec,
    StoppingRule,
    builtin_problem,
    execute,
    integrate,
    preset,
    read_config,
    run,
)
from inertiq import experiments
from inertiq.cli import _load_series, main
from inertiq.errors import Divergence
from problem_helpers import one_run_per_row
from inertiq.experiments import _t41_checks, render_summary, write_records_csv

_NOISE = PerturbationSpec.gaussian(sigma0=0.001, decay=0.01)
_NONE = PerturbationSpec.none()
_SINE_WELL_LINEUP = [
    ("IAA", "IAA", 0.3, 0.2, 0.0, 0.16666666666666666, _NONE),
    ("HBM", "HBM", 0.7, 0.041666666666666664, 0.0, None, _NONE),
    ("NAG", "NAG", 0.7, 0.041666666666666664, 0.0, None, _NONE),
    ("HBM-H", "HBM_H", 0.7, 0.041666666666666664, 0.05, None, _NONE),
    ("NAG-H", "NAG_H", 0.7, 0.041666666666666664, 0.05, None, _NONE),
]
# (label, variant, alpha, beta, theta, s, perturb) of every preset run, as
# the presets spelled them out one by one.
LINEUPS = {
    "fig12": _SINE_WELL_LINEUP,
    "fig34": _SINE_WELL_LINEUP,
    "fig45": [
        ("IAA-Per", "IAA", 0.4, 0.15, 0.0, 0.125, _NOISE),
        ("HBM-Per", "HBM", 0.7, 0.04, 0.0, None, _NOISE),
        ("NAG-Per", "NAG", 0.7, 0.04, 0.0, None, _NOISE),
        ("HBM-H-Per", "HBM_H", 0.7, 0.04, 0.05, None, _NOISE),
        ("NAG-H-Per", "NAG_H", 0.7, 0.04, 0.05, None, _NOISE),
    ],
}


class TestPresets:
    @pytest.mark.parametrize("name", sorted(LINEUPS))
    def test_lineup_pinned(self, name):
        got = [(r.label, c.variant, c.alpha, c.beta, c.theta, c.s, c.perturb)
               for r in preset(name).runs for c in [r.config]]
        assert got == LINEUPS[name]

    def test_fig12_structure(self):
        cfg = preset("fig12")
        assert cfg.problem == "example51"
        assert [r.label for r in cfg.runs] == ["IAA", "HBM", "NAG", "HBM-H", "NAG-H"]
        for r in cfg.runs:
            assert r.stop.tol == 1e-10
            assert r.x0 == (3.0,)
        iaa = cfg.runs[0].config
        assert (iaa.alpha, iaa.beta, iaa.s) == (0.3, 0.2, 1.0 / 6.0)
        hbm = cfg.runs[1].config
        assert (hbm.alpha, hbm.beta) == (0.7, 1.0 / 24.0)
        assert cfg.runs[3].config.theta == 0.05

    def test_fig34_structure(self):
        cfg = preset("fig34")
        for r in cfg.runs:
            assert r.stop.tol is None
            assert r.stop.max_iter == 50

    def test_fig45_structure(self):
        cfg = preset("fig45")
        assert cfg.problem == "example52"
        assert cfg.seeds == tuple(range(1, 11))
        assert len(cfg.runs) == 5
        for r in cfg.runs:
            assert r.stop.max_iter == 200
            pert = r.config.perturb
            assert pert.model == "gaussian_decay"
            assert pert.sigma0 == 0.001 and pert.decay == 0.01
            assert r.x0 == (3.0, 3.0)
        iaa = cfg.runs[0].config
        assert (iaa.alpha, iaa.beta, iaa.s) == (0.4, 0.15, 0.125)
        assert cfg.runs[1].config.beta == 0.04

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown preset 'fig99'; expected one of"):
            preset("fig99")


class TestExecute:
    def test_fig12_outputs_and_ordering(self, tmp_path):
        summary = execute(preset("fig12"), out_dir=tmp_path)
        assert summary.ordering[0] == "IAA"
        assert all(s.reached_tol for s in summary.stats)
        assert (tmp_path / "IAA.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        checks = (tmp_path / "checks.txt").read_text()
        assert "PASS T41_energy_contraction[IAA]" in checks
        assert "PASS T41_rate_bounds[IAA]" in checks
        assert summary.all_checks_passed

    def test_rerun_is_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        execute(preset("fig45"), out_dir=a_dir)
        execute(preset("fig45"), out_dir=b_dir)
        a_files = sorted(f.name for f in a_dir.iterdir())
        b_files = sorted(f.name for f in b_dir.iterdir())
        assert a_files == b_files
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_fig45_per_seed_csvs(self, tmp_path):
        summary = execute(preset("fig45"), out_dir=tmp_path)
        assert (tmp_path / "IAA-Per_seed1.csv").exists()
        assert (tmp_path / "IAA-Per_seed10.csv").exists()
        per = summary.stats_for("IAA-Per")
        assert len(per) == 10
        assert all(s.iterations == 200 for s in per)

    def test_fig34_captures_fixed_horizon(self, tmp_path):
        summary = execute(preset("fig34"), out_dir=tmp_path)
        assert all(s.iterations == 50 for s in summary.stats)
        assert all(s.trigger == "max_iter" for s in summary.stats)
        lines = (tmp_path / "IAA.csv").read_text().splitlines()
        assert len(lines) == 2 + 51  # comment + header + k = 0..50

    def test_empty_runs(self):
        cfg = ExperimentConfig(problem="example51", runs=())
        summary = execute(cfg)
        assert summary.stats == ()
        assert summary.all_checks_passed

    def test_duplicate_labels_rejected(self):
        runs = preset("fig12").runs
        with pytest.raises(ValueError):
            ExperimentConfig(problem="example51", runs=(runs[0], runs[0]))

    def test_empty_seed_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seeds must not be empty"):
            ExperimentConfig(problem="example51", runs=(), seeds=())
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nseeds =\n[run r]\nalgo = hbm\nbeta = 0.04\n")
        with pytest.raises(ValueError, match="seeds must not be empty"):
            read_config(path)

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"seeds must be unique, got \[3, 3\]"):
            ExperimentConfig(problem="example51", runs=(), seeds=(3, 3))
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nseeds = 1 1\n[run r]\nalgo = hbm\nbeta = 0.04\n"
                        "perturb = gauss:sigma0=0.001,decay=0.01\n")
        for argv in (["exp", "fig45", "--seeds", "3,3"], ["exp", str(path)]):
            assert main([*argv, "--out-dir", str(tmp_path / "out"), "--quiet"]) == 2
            assert capsys.readouterr().err.startswith("usage error: seeds must be unique")
        assert not (tmp_path / "out").exists()

    # Runs whose seeds all finish, a deterministic run between them, one
    # whose middle seed blows up, and one whose every draw fails.
    LOCKSTEP_RUNS = {
        "calm": """\
            algo = iaa
            alpha = 0.45
            beta = 0.01
            step = 0.16666666666666666
            x0 = 3
            tol = 1e-6
            max_iter = 300
            perturb = gauss:sigma0=0.001,decay=0.01
            """,
        "plain": """\
            algo = nag
            alpha = 0.7
            beta = 0.04
            x0 = 3
            tol = 1e-6
            max_iter = 300
            """,
        "wild": """\
            algo = hbm
            alpha = 0.7
            beta = 0.04
            x0 = 3
            max_iter = 6
            perturb = gauss:sigma0=1e13,decay=0
            """,
        "drift": """\
            algo = hbm-h
            alpha = 0.7
            beta = 0.04
            theta = 0.05
            x0 = -2
            tol = 1e-8
            max_iter = 200
            perturb = power:c0=0.01,p=1.5,dir=random
            """,
        "broken": """\
            algo = nag-h
            alpha = 0.7
            beta = 0.04
            theta = 0.05
            x0 = 1
            max_iter = 50
            perturb = power:c0=inf,p=1,dir=random
            """,
    }

    def _lockstep_against_sequential(self, tmp_path, monkeypatch, labels, seeds):
        """The summary, or the exception, and every file written before it,
        of the config file with ``labels``' runs and the seed list ``seeds``,
        from run_rows and from one run() per (run, seed)."""
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nproblem = example51\nseeds = {seeds}\n" + "".join(
            f"\n[run {label}]\n" + textwrap.dedent(self.LOCKSTEP_RUNS[label])
            for label in labels))
        return self._engines_agree(tmp_path, monkeypatch, read_config(path))

    @staticmethod
    def _engines_agree(tmp_path, monkeypatch, cfg):
        """``cfg``'s summary, or exception, and the files written before it,
        after checking that one run() per (run, seed) gives the same bytes."""
        outputs = []
        for engine in ("run_rows", "sequential"):
            if engine == "sequential":
                monkeypatch.setattr(experiments, "run_rows", one_run_per_row)
            out = tmp_path / engine
            try:
                ending = render_summary(execute(cfg, out_dir=out))
            except (Divergence, ValueError) as exc:
                ending = (type(exc).__name__, str(exc), getattr(exc, "when", None))
            outputs.append((ending, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        assert outputs[0] == outputs[1]
        return outputs[0]

    @pytest.mark.parametrize("wild", [False, True])
    def test_lockstep_seeds_write_what_one_run_per_seed_writes(self, tmp_path, monkeypatch,
                                                               wild):
        # Two stochastic runs step in one block, with a deterministic run
        # between them; a third, after a blow-up, is never written.
        labels = ("calm", "plain", "wild", "drift") if wild else ("calm", "plain", "drift")
        ending, files = self._lockstep_against_sequential(tmp_path, monkeypatch, labels,
                                                          "1 5 2")
        calm = ["calm_seed1.csv", "calm_seed2.csv", "calm_seed5.csv"]
        if wild:
            assert ending == ("Divergence", "iterates blew up at k = 6 (|x| = 1.36e+12)", 6)
            assert sorted(files) == [*calm, "plain.csv", "wild_seed1.csv"]
        else:
            assert ending.count("warning: calm: outside T42 box") == 3
            assert sorted(files) == [*calm, "checks.txt", "drift_seed1.csv",
                                     "drift_seed2.csv", "drift_seed5.csv", "plain.csv",
                                     "summary.txt"]

    @pytest.mark.parametrize("labels, written", [
        (("calm", "plain", "broken", "wild"), ["plain.csv"]),
        (("calm", "plain", "wild", "broken"), ["plain.csv", "wild_seed1.csv"]),
    ])
    def test_lockstep_ends_where_the_first_failing_run_ends(self, tmp_path, monkeypatch,
                                                            labels, written):
        # broken's draws raise from k = 1 and wild blows up at k = 6; the run
        # that comes first ends the experiment, as it does one run at a time.
        ending, files = self._lockstep_against_sequential(tmp_path, monkeypatch, labels,
                                                          "1 5 2")
        if labels[2] == "broken":
            assert ending == ("ValueError", "power perturbation c0/t^p = inf/1 = inf is not "
                              "finite at t = 1, p = 1", None)
        else:
            assert ending[0] == "Divergence" and ending[2] == 6
        assert sorted(files) == ["calm_seed1.csv", "calm_seed2.csv", "calm_seed5.csv",
                                 *written]

    def test_one_seed_runs_write_what_one_run_per_seed_writes(self, tmp_path, monkeypatch):
        # With one seed no config has seeds to step together: each stochastic
        # run is one run() call, beside the deterministic one.
        ending, files = self._lockstep_against_sequential(
            tmp_path, monkeypatch, ("calm", "plain", "drift"), "5")
        assert ending.count("warning: calm: outside T42 box") == 1
        assert sorted(files) == ["calm_seed5.csv", "checks.txt", "drift_seed5.csv",
                                 "plain.csv", "summary.txt"]

    def test_fig45_with_one_seed_writes_what_one_run_per_seed_writes(self, tmp_path,
                                                                     monkeypatch):
        # exp fig45 --seeds 1: five one-seed configs.
        ending, files = self._engines_agree(tmp_path, monkeypatch,
                                            replace(preset("fig45"), seeds=(1,)))
        assert "IAA-Per" in ending
        assert sorted(files) == sorted([f"{label}_seed1.csv" for label, *_ in LINEUPS["fig45"]]
                                       + ["checks.txt", "summary.txt"])

    def test_refused_x0_ends_the_experiment_in_its_turn(self, tmp_path, monkeypatch):
        # B's x0 has three coordinates on the 2-D example52: A's two seeds are
        # written, as one run() per run writes them, and then B's first run
        # raises, so exp exits 2 with the same files.
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblem = example52\nseeds = 1 2\n" + "".join(
            f"\n[run {label}]\nalgo = {algo}\nalpha = 0.4\nbeta = 0.15\nstep = 0.125\n"
            f"x0 = {x0}\nmax_iter = 50\nperturb = gauss:sigma0=0.001,decay=0.01\n"
            for label, algo, x0 in (("A", "iaa", "3 3"), ("B", "hbm", "3 3 3"))))
        ending, files = self._engines_agree(tmp_path, monkeypatch, read_config(path))
        assert ending == ("ValueError", "expected length 2, got 3", None)
        assert sorted(files) == ["A_seed1.csv", "A_seed2.csv"]
        monkeypatch.undo()
        out = tmp_path / "cli"
        assert main(["exp", str(path), "--out-dir", str(out), "--quiet"]) == 2
        assert {f.name: f.read_bytes() for f in sorted(out.iterdir())} == files

    def test_csv_columns(self, tmp_path):
        execute(preset("fig12"), out_dir=tmp_path)
        lines = (tmp_path / "IAA.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "k,x,value_error,grad_norm,dist,step,energy,n_grad_evals"
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 3.0

    def test_csv_columns_2d(self, tmp_path):
        execute(preset("fig45"), out_dir=tmp_path)
        lines = (tmp_path / "IAA-Per_seed1.csv").read_text().splitlines()
        assert lines[1] == "k,x0,x1,value_error,grad_norm,dist,step,energy,n_grad_evals"

    def test_uncertified_config_warning_in_summary(self):
        from inertiq import AlgorithmConfig, RunSetup, StoppingRule

        cfg = ExperimentConfig(
            problem="example51",
            runs=(RunSetup(
                "wild",
                AlgorithmConfig(variant="IAA", alpha=0.45, beta=0.01, s=1.0 / 6.0),
                (3.0,),
                StoppingRule(tol=None, max_iter=10),
            ),),
        )
        summary = execute(cfg)
        assert any("uncertified" in w for w in summary.warnings)
        from inertiq.experiments import render_summary

        assert "warning:" in render_summary(summary)


class TestT41Checks:
    @staticmethod
    def _single(alpha, beta, perturb="none"):
        from inertiq import AlgorithmConfig, RunSetup, StoppingRule, parse_perturbation

        cfg = AlgorithmConfig(variant="IAA", alpha=alpha, beta=beta, s=1.0 / 6.0,
                              perturb=parse_perturbation(perturb))
        stop = StoppingRule(tol=None, max_iter=30)
        return ExperimentConfig(
            problem="example51", runs=(RunSetup("run", cfg, (3.0,), stop),)
        )

    def test_in_box_run_has_both_checks(self):
        summary = execute(self._single(0.3, 0.2))
        assert [c.name for c in summary.checks] == [
            "T41_energy_contraction[run]",
            "T41_rate_bounds[run]",
        ]

    @pytest.mark.parametrize("perturb", ["power:c0=0,p=1", "gauss:sigma0=0,decay=0.01"])
    def test_zero_magnitude_perturbation_is_unperturbed(self, perturb):
        plain = execute(self._single(0.3, 0.2)).checks
        assert len(plain) == 2
        assert execute(self._single(0.3, 0.2, perturb)).checks == plain

    def test_out_of_box_run_has_none(self):
        summary = execute(self._single(0.45, 0.01))
        assert summary.checks == ()

    def _doctored_checks(self, doctor):
        """The check lines of an IAA run at fig12's coefficients, 30
        iterations, after ``doctor`` edits its list of records."""
        setup = replace(self._single(0.3, 0.2).runs[0], label="IAA")
        problem = builtin_problem("example51")
        result = run(problem, setup.config, setup.x0, stop=setup.stop)
        doctored = replace(result, records=doctor(list(result.records)))
        return [str(c) for c in _t41_checks(problem, setup, doctored)]

    def test_violations_name_their_k(self):
        # 1 - rho = 0.99942, so a 10x inflation of one record trips neither check
        def doctor(recs):
            recs[5] = recs[5]._replace(energy=2.0 * recs[4].energy,
                                       value_error=2.0 * recs[1].energy)
            return recs

        assert self._doctored_checks(doctor) == [
            "FAIL T41_energy_contraction[IAA] (rho=0.000577501, first violation after k=4)",
            "FAIL T41_rate_bounds[IAA] (E1=9.03983, violated at k=5)",
        ]

    def test_nan_records_violate(self):
        nan = float("nan")

        def doctor(recs):
            return [r._replace(value_error=nan, dist=nan, step=nan, energy=nan) for r in recs]

        assert self._doctored_checks(doctor) == [
            "FAIL T41_energy_contraction[IAA] (rho=0.000577501, first violation after k=1)",
            "FAIL T41_rate_bounds[IAA] (E1=nan, violated at k=1)",
        ]

    def test_other_errors_propagate(self, monkeypatch):
        from inertiq import analysis

        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug in rate_constants")

        monkeypatch.setattr(analysis, "rate_constants", broken)
        with pytest.raises(ZeroDivisionError):
            execute(self._single(0.3, 0.2))


class TestConfigFile:
    CONFIG = """
[experiment]
problem = example51
seeds = 0

[run iaa-demo]
algo = iaa
alpha = 0.3
beta = 0.2
step = 0.16666666666666666
x0 = 3
tol = 1e-10
max_iter = 1000
perturb = none

[run hbm-demo]
algo = hbm
alpha = 0.7
beta = 0.041666666666666664
x0 = 3
tol = 1e-10
max_iter = 100000
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(self.CONFIG)
        cfg = read_config(path)
        assert cfg.problem == "example51"
        assert [r.label for r in cfg.runs] == ["iaa-demo", "hbm-demo"]
        assert cfg.runs[0].config.variant == "IAA"
        assert cfg.runs[1].config.variant == "HBM"
        summary = execute(cfg, out_dir=tmp_path / "out")
        assert summary.ordering[0] == "iaa-demo"

    PERTURBED_CONFIG = """
[experiment]
problem = example52
seeds = 1 2

[run noisy]
algo = iaa
alpha = 0.4
beta = 0.15
step = 0.125
x0 = 3 3
tol = none
max_iter = 50
perturb = gauss:sigma0=0.001,decay=0.01
"""

    def test_perturbed_config_runs_per_seed(self, tmp_path):
        path = tmp_path / "noisy.ini"
        path.write_text(self.PERTURBED_CONFIG)
        cfg = read_config(path)
        assert cfg.seeds == (1, 2)
        summary = execute(cfg, out_dir=tmp_path / "out")
        per = summary.stats_for("noisy")
        assert [s.seed for s in per] == [1, 2]
        assert (tmp_path / "out" / "noisy_seed2.csv").exists()
        # different seeds produce different endpoints
        assert per[0].final_dist != per[1].final_dist

    def test_seed_list_takes_commas(self, tmp_path):
        path = tmp_path / "noisy.ini"
        summaries = []
        for seeds in ("1 2", "1,2"):
            path.write_text(self.PERTURBED_CONFIG.replace("seeds = 1 2", f"seeds = {seeds}"))
            summaries.append(render_summary(execute(read_config(path))))
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("text, message", [
        ("[experiment]\n[run IAA]\nalpah = 0.3\n", r"unknown key 'alpah' in \[run IAA\]"),
        ("[experiment]\nseed = 3\n", r"unknown key 'seed' in \[experiment\]"),
        ("[experiment]\nalgo = hbm\n", r"unknown key 'algo' in \[experiment\]"),
        ("[experiment]\n[run r]\nseeds = 3\n", r"unknown key 'seeds' in \[run r\]"),
        ("[DEFAULT]\nalpah = 0.3\n[experiment]\n", r"unknown key 'alpah' in \[DEFAULT\]"),
        ("[experiment]\n[runs r]\nalgo = hbm\n", r"unknown section \[runs r\]"),
        ("[experiment]\n[plot]\n", r"unknown section \[plot\]"),
        ("[experiment]\nemit = csv\n", r"unknown key 'emit' in \[experiment\]"),
        ("[experiment]\noutputs = out\n", r"unknown key 'outputs' in \[experiment\]"),
    ], ids=["run", "experiment", "run-key-in-experiment", "experiment-key-in-run", "default",
            "run-prefix", "other-section", "emit", "outputs"])
    def test_unknown_key_or_section_rejected(self, tmp_path, text, message):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_config(path)

    # configparser's own parse errors, and a stray "%" that its default
    # interpolation would reject at .get() time
    MALFORMED = {
        "duplicate-section": ("[experiment]\n[run a]\nalgo = hbm\n[run a]\nalgo = nag\n",
                              r"section 'run a' already exists"),
        "key-before-header": ("problem = example51\n[experiment]\n",
                              r"no section headers"),
        "duplicate-option": ("[experiment]\nproblem = example51\nproblem = example52\n",
                             r"option 'problem' in section 'experiment' already exists"),
        "percent": ("[experiment]\n[run r]\nperturb = power:c0=1%,p=1\n",
                    r"could not convert string to float: '1%'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_value_error(self, tmp_path, case):
        text, message = self.MALFORMED[case]
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_config(path)

    @pytest.mark.parametrize("section, key, raw", [
        ("experiment", "seeds", "1 x"),
        ("run r", "alpha", "0.3x"),
        ("run r", "beta", "-"),
        ("run r", "theta", "1e"),
        ("run r", "step", "1/8"),
        ("run r", "tol", "1e-10x"),
        ("run r", "max_iter", "1e3"),
        ("run r", "x0", "3;3"),
        ("run r", "perturb", "power:c0=1%,p=1"),
    ])
    def test_bad_value_names_file_section_and_key(self, tmp_path, section, key, raw):
        path = tmp_path / "exp.ini"
        sections = {"experiment": {}, "run r": {"algo": "hbm", "beta": "0.04"}}
        sections[section][key] = raw
        path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                                for name, body in sections.items()))
        prefix = re.escape(f"{path}: bad {key} in [{section}]: ")
        with pytest.raises(ValueError, match=f"^{prefix}"):
            read_config(path)

    @pytest.mark.parametrize("body, message", [
        ("algo = hbm\nbeta = -1\n", "alpha, beta, theta must be nonnegative"),
        ("algo = iaa\n", "IAA needs a positive step size s"),
        ("algo = hbm\nbeta = 0.04\nmax_iter = 0\n", "max_iter must be a positive integer"),
        ("algo = hbm\nbeta = 0.04\ntol = -1\n", r"tol must be positive \(or None\)"),
    ], ids=["beta", "step", "max_iter", "tol"])
    def test_invalid_run_names_file_and_section(self, tmp_path, body, message):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n[run r]\n{body}")
        prefix = re.escape(f"{path}: bad values in [run r]: ")
        with pytest.raises(ValueError, match=f"^{prefix}{message}$"):
            read_config(path)

    def test_docstring_example_reads(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(textwrap.dedent(read_config.__doc__.split("::", 1)[1]))
        cfg = read_config(path)
        assert cfg.problem == "example51"
        assert cfg.seeds == (1, 2, 3)
        assert [r.label for r in cfg.runs] == ["IAA"]

    def test_default_keys_may_serve_either_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[DEFAULT]\nproblem = example52\nx0 = 3,3\n[experiment]\n"
                        "[run r]\nalgo = hbm\nbeta = 0.04\n")
        cfg = read_config(path)
        assert cfg.problem == "example52"
        assert cfg.runs[0].x0 == (3.0, 3.0)

    def test_cli_exp_with_config_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(self.CONFIG)
        code = main(["exp", str(path), "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "summary.txt").exists()


class TestCli:
    def test_opt_and_rate(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "opt", "--problem", "example51", "--algo", "iaa",
            "--alpha", "0.3", "--beta", "0.2", "--step", "0.16666666666666666",
            "--x0", "3", "--tol", "1e-10", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert out.exists()
        code = main(["rate", str(out), "--column", "value_error",
                     "--window", "1.0", "--min-rate", "1e-4"])
        assert code == 0
        code = main(["rate", str(out), "--column", "value_error",
                     "--window", "1.0", "--min-rate", "1e9"])
        assert code == 1

    def test_ode_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "ode", "--problem", "example51", "--alpha", "1.0", "--beta", "0.1",
            "--x0", "3", "--t-end", "1.0", "--dt", "0.001",
            "--record-every", "100", "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,x,v,value_error,traj_error,speed,energy"
        assert len(lines) == 2 + 11  # comment + header + t0 + 10 records

    def test_ode_csv_2d(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "ode", "--problem", "example52", "--alpha", "1.0", "--x0", "3,3",
            "--v0", "0 1", "--t-end", "0.1", "--dt", "0.01", "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,x0,x1,v0,v1,value_error,traj_error,speed,energy"
        assert lines[2].split(",")[:5] == ["0", "3", "3", "0", "1"]

    @pytest.mark.parametrize("command", ["opt", "ode"])
    def test_rate_reads_every_float_column(self, tmp_path, capsys, command):
        out = tmp_path / f"{command}.csv"
        if command == "opt":
            cfg = AlgorithmConfig(variant="IAA", alpha=0.3, beta=0.2, s=1.0 / 6.0)
            records = run(builtin_problem("example51"), cfg, [3.0],
                          stop=StoppingRule(tol=None, max_iter=40)).records
            columns = ["x", "value_error", "grad_norm", "dist", "step", "energy"]
            argv = ["opt", "--alpha", "0.3", "--beta", "0.2", "--step", "0.16666666666666666",
                    "--x0", "3", "--no-tol", "--max-iter", "40"]
        else:
            records = integrate(builtin_problem("example52"), 1.0, 0.1, PerturbationSpec.none(),
                                [3.0, 3.0], [0.0, 0.0], t0=0.0, t_end=0.5, dt=0.01)
            columns = ["x0", "x1", "v0", "v1", "value_error", "traj_error", "speed", "energy"]
            argv = ["ode", "--problem", "example52", "--alpha", "1", "--beta", "0.1",
                    "--x0", "3,3", "--t-end", "0.5", "--dt", "0.01"]
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        index = [float(r.k if command == "opt" else r.t) for r in records]
        for column in columns:
            # Every value reads back as the record holds it, bit for bit.
            if hasattr(records[0], column):
                values = [np.ravel(getattr(r, column))[0] for r in records]
            else:
                values = [getattr(r, column[0])[int(column[1:])] for r in records]
            assert _load_series(str(out), column) == list(zip(index, values)), column
            capsys.readouterr()
            assert main(["rate", str(out), "--column", column, "--window", "1.0"]) != 2
            assert not capsys.readouterr().err.startswith("usage error"), column

    def test_check_passes(self):
        code = main(["check", "--problem", "example51", "--box=-10,10",
                     "--samples", "2000", "--quiet"])
        assert code == 0

    def test_check_theorem_box(self, capsys):
        code = main(["check", "--problem", "example51", "--theorem", "T41",
                     "--alpha", "0.3", "--beta", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho" in out

    def test_exp_preset(self, tmp_path):
        code = main(["exp", "fig12", "--out-dir", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "checks.txt").exists()

    def test_exp_seeds_override(self, tmp_path):
        # fig12 has no stochastic run, so --seeds would be ignored there: it
        # is a usage error (test_usage_errors)
        assert main(["exp", "fig45", "--seeds", "3", "--out-dir", str(tmp_path / "b"),
                     "--quiet"]) == 0
        names = sorted(f.name for f in (tmp_path / "b").glob("IAA-Per*.csv"))
        assert names == ["IAA-Per_seed3.csv"]

    @pytest.mark.parametrize("spelling, variant", [
        ("iaa", "IAA"), ("hbm", "HBM"), ("nag", "NAG"), ("hbm-h", "HBM_H"),
        ("nag-h", "NAG_H"),
    ])
    def test_algo_spellings(self, tmp_path, spelling, variant):
        out = tmp_path / "run.csv"
        code = main([
            "opt", "--problem", "example51", "--algo", spelling, "--alpha", "0.3",
            "--beta", "0.04", "--theta", "0.05", "--step", "0.16666666666666666",
            "--x0", "3", "--no-tol", "--max-iter", "5", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert f" variant={variant} " in out.read_text().splitlines()[0]
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n[run r]\nalgo = {spelling}\nbeta = 0.04\n"
                        "step = 0.16666666666666666\n")
        assert read_config(path).runs[0].config.variant == variant

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["exp", "fig99", "--quiet"]) == 2
        assert main(["opt", "--problem", "nosuch", "--x0", "1", "--quiet"]) == 2
        assert main(["nonsense"]) == 2
        empty = tmp_path / "empty.ini"
        empty.write_text("[experiment]\nseeds =\n[run r]\nalgo = hbm\nbeta = 0.04\n")
        comments = tmp_path / "comments.csv"
        comments.write_text("# no header\n# nor rows\n")
        (tmp_path / "unseeded.ini").write_text(
            "[experiment]\nseeds = 1 2\n[run r]\nalgo = hbm\nbeta = 0.04\nmax_iter = 3\n")
        typo = tmp_path / "typo.ini"
        typo.write_text("[experiment]\n[run IAA]\nalgo = iaa\nalpah = 0.3\nbeta = 0.2\n"
                        "step = 0.16666666666666666\nx0 = 3\nmax_iter = 5\n")
        wide_x0 = tmp_path / "wide_x0.ini"
        wide_x0.write_text("[experiment]\n[run r]\nalgo = hbm\nbeta = 0.04\nx0 = 1 2\n"
                           "max_iter = 3\n")
        nodir = tmp_path / "nodir"
        malformed = []
        for case, (text, _) in sorted(TestConfigFile.MALFORMED.items()):
            malformed.append(tmp_path / f"{case}.ini")
            malformed[-1].write_text(text)
        capsys.readouterr()
        for argv in (
            # empty seed lists, from the command line and from a config file
            ["exp", "fig45", "--seeds", ",", "--quiet"],
            ["exp", str(empty), "--quiet"],
            # a seed list no run of the target reads
            ["exp", "fig12", "--seeds", "5,6", "--out-dir", str(nodir), "--quiet"],
            ["exp", "fig34", "--seeds", "", "--out-dir", str(nodir), "--quiet"],
            ["exp", str(tmp_path / "unseeded.ini"), "--seeds", "1", "--quiet"],
            # a key its config section does not read
            ["exp", str(typo), "--quiet"],
            # config files configparser cannot parse, or a stray "%"
            *(["exp", str(path), "--quiet"] for path in malformed),
            # files that cannot be read or written
            ["rate", str(tmp_path / "missing.csv")],
            ["rate", str(comments)],
            ["opt", "--algo", "hbm", "--beta", "0.04", "--x0", "3", "--max-iter", "3",
             "--out", str(nodir / "run.csv"), "--quiet"],
            ["ode", "--alpha", "1", "--x0", "3", "--t-end", "0.01",
             "--out", str(nodir / "ode.csv"), "--quiet"],
            ["check", "--samples", "10", "--csv", str(nodir / "c.csv"), "--quiet"],
            # points of the wrong length or with NaN, from flags and from a file
            ["opt", "--problem", "example51", "--algo", "hbm", "--beta", "0.04",
             "--x0", "1,2", "--quiet"],
            ["opt", "--problem", "example52", "--step", "0.125", "--x0", "nan,1",
             "--quiet"],
            ["ode", "--problem", "example51", "--alpha", "1", "--x0", "3", "--v0", "1,2",
             "--t-end", "0.01", "--quiet"],
            ["exp", str(wide_x0), "--quiet"],
            # check options that would be ignored: no --theorem, no --alpha, s under T32
            ["check", "--alpha", "0.3", "--samples", "10", "--quiet"],
            ["check", "--theorem", "T41", "--beta", "0.2", "--quiet"],
            ["check", "--theorem", "T32", "--alpha", "1", "--step", "0.5", "--quiet"],
            # a power perturbation evaluated at t = 0
            ["ode", "--alpha", "1", "--x0", "3", "--t-end", "2",
             "--perturb", "power:c0=1,p=1", "--t0", "0", "--quiet"],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("usage error: "), argv
        assert not nodir.exists()

    @pytest.mark.parametrize("label", ["", ".", "..", "a/b", "../escaped"])
    def test_label_that_is_no_file_name_is_refused(self, label):
        setup = experiments.RunSetup(label, AlgorithmConfig("HBM", beta=0.04), (3.0,),
                                     StoppingRule())
        with pytest.raises(ValueError, match=re.escape(f"run label {label!r} is not a file")):
            ExperimentConfig(problem="example51", runs=(setup,))

    def test_exp_refuses_a_path_label_and_writes_nothing(self, tmp_path, capsys):
        # execute joins each run label to --out-dir, so a label that is a
        # path would write outside it.
        config = tmp_path / "cfg" / "exp.ini"
        config.parent.mkdir()
        config.write_text("[experiment]\n[run ../escaped]\nalgo = hbm\nbeta = 0.04\nx0 = 3\n"
                          "max_iter = 3\n")
        out = tmp_path / "cfg" / "out"
        assert main(["exp", str(config), "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "usage error: run label '../escaped' is not a file name\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "exp.ini"]

    _COLLIDING = textwrap.dedent("""\
        [experiment]
        seeds = 1
        [run a]
        algo = hbm
        beta = 0.04
        x0 = 3
        max_iter = 5
        perturb = gauss:sigma0=0.001,decay=0.01
        [run a_seed1]
        algo = hbm
        beta = 0.04
        x0 = 3
        max_iter = 14
        """)

    def test_runs_that_would_write_one_csv_are_refused(self, tmp_path):
        # A stochastic [run a] at seed 1 writes a_seed1.csv, as a deterministic
        # [run a_seed1] does; in either order the second would overwrite the first.
        first, second = self._COLLIDING.split("[run a_seed1]\n")
        swapped = tmp_path / "swapped.ini"
        swapped.write_text(first.replace("[run a]\n", "[run a_seed1]\n" + second + "[run a]\n"))
        path = tmp_path / "exp.ini"
        path.write_text(self._COLLIDING)
        for config, labels in ((path, "'a' and 'a_seed1'"), (swapped, "'a_seed1' and 'a'")):
            with pytest.raises(ValueError, match=f"^runs {labels} would both write a_seed1.csv$"):
                read_config(config)

    def test_exp_refuses_runs_that_would_write_one_csv_and_writes_nothing(self, tmp_path,
                                                                          capsys):
        config = tmp_path / "exp.ini"
        config.write_text(self._COLLIDING.replace("seeds = 1", "seeds = 2"))
        out = tmp_path / "out"
        # Seed 2 names a_seed2.csv, so the file runs; --seeds 1 collides.
        assert main(["exp", str(config), "--quiet"]) == 0
        assert main(["exp", str(config), "--seeds", "3,1", "--out-dir", str(out),
                     "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "usage error: runs 'a' and 'a_seed1' would both write a_seed1.csv\n")
        config.write_text(self._COLLIDING)
        assert main(["exp", str(config), "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "usage error: runs 'a' and 'a_seed1' would both write a_seed1.csv\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["exp.ini"]

    def test_ode_prints_its_last_record(self, capsys):
        assert main(["ode", "--problem", "example51", "--alpha", "1", "--beta", "0.1",
                     "--x0", "3", "--t-end", "1", "--dt", "0.001",
                     "--record-every", "100"]) == 0
        records = integrate(builtin_problem("example51"), 1.0, 0.1, PerturbationSpec.none(),
                            [3.0], [0.0], t0=0.0, t_end=1.0, dt=0.001, record_every=100)
        last = records[-1]
        assert len(records) == 11
        assert capsys.readouterr().out == (
            f"t=1 value_error={last.value_error:.6e} traj_error={last.traj_error:.6e} "
            f"speed={last.speed:.6e} energy={last.energy:.6e} (11 records)\n")

    def test_opt_power_forcing_overflowing_t_p(self, capsys):
        # 7^400 overflows the float range at k = 7; the draw is then zero
        code = main(["opt", "--problem", "example51", "--algo", "iaa", "--alpha", "0.3",
                     "--beta", "0.2", "--step", "0.16666666666666666", "--x0", "3",
                     "--max-iter", "20", "--no-tol", "--perturb", "power:c0=1,p=400"])
        assert code == 0
        assert capsys.readouterr().out.startswith("iaa: k=20 trigger=max_iter ")

    @pytest.mark.parametrize("perturb, name", [
        ("power:c0=1,pp=3", "'pp'"),
        ("gauss:sigma0=1,decay=0,dir=random", "'dir'"),
        ("power:c0=1,p=1,dir=foo", "'foo'"),
    ])
    def test_opt_rejects_unread_perturbation_before_running(self, capsys, perturb, name):
        # beta = 0.5 is out of the box: a run would warn before its first draw
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["opt", "--beta", "0.5", "--step", "0.16666666666666666",
                         "--x0", "3", "--max-iter", "3", "--perturb", perturb])
        assert code == 2
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and name in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha, beta, theta must be nonnegative"),
        ("--beta", "nan", "alpha, beta, theta must be nonnegative"),
        ("--theta", "nan", "alpha, beta, theta must be nonnegative"),
        ("--perturb", "power:c0=nan,p=1", "c0 must be nonnegative"),
        ("--perturb", "gauss:sigma0=nan,decay=0", "sigma0 and decay must be nonnegative"),
        ("--perturb", "gauss:sigma0=1,decay=nan", "sigma0 and decay must be nonnegative"),
    ])
    def test_opt_rejects_nan_before_running(self, capsys, monkeypatch, flag, value, message):
        from inertiq import optimizers

        def no_run(*args, **kwargs):
            raise AssertionError("run() was called")

        monkeypatch.setattr(optimizers, "run", no_run)
        code = main(["opt", "--step", "0.16666666666666666", "--x0", "3", "--max-iter", "3",
                     f"{flag}={value}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["ode", "--alpha", "1", "--x0", "3", "--t-end", "inf"], "t_end must be finite, got inf"),
        (["ode", "--alpha", "1", "--x0", "3", "--t0=-inf", "--t-end", "1"],
         "t0 must be finite, got -inf"),
        (["ode", "--alpha", "1", "--x0", "3", "--t-end", "1", "--dt", "1e-320"],
         "the step count (t_end - t0)/dt must be finite, got inf"),
        (["ode", "--alpha", "1", "--x0", "3", "--t-end", "1", "--dt", "inf"],
         "dt must be finite, got inf"),
        (["ode", "--alpha", "inf", "--x0", "3", "--t-end", "1"], "alpha must be finite, got inf"),
        (["ode", "--alpha", "1", "--beta", "inf", "--x0", "3", "--t-end", "1"],
         "beta must be finite, got inf"),
        # NaN is not < 0, so only the finiteness check catches it (it read as divergence)
        (["ode", "--alpha", "1", "--beta", "nan", "--x0", "3", "--t-end", "1"],
         "beta must be finite, got nan"),
        (["opt", "--x0", "3", "--step", "0.16", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["opt", "--x0", "3", "--step", "0.16", "--beta", "inf"], "beta must be finite, got inf"),
        (["opt", "--x0", "3", "--step", "0.16", "--theta", "inf"], "theta must be finite, got inf"),
        (["opt", "--x0", "3", "--step", "inf"], "s must be finite, got inf"),
        (["opt", "--x0", "3", "--algo", "hbm", "--beta", "inf"], "beta must be finite, got inf"),
    ])
    def test_non_finite_argument_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_opt_prints_box_warning_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["opt", "--beta", "0.5", "--step", "0.16666666666666666",
                         "--x0", "3", "--max-iter", "3"])
        assert code == 0
        assert caught == []
        out, err = capsys.readouterr()
        lines = [ln for ln in out.splitlines() if ln.startswith("warning:")]
        assert len(lines) == 1 and "outside T41 box" in lines[0]
        assert "warning" not in err.lower()

    @pytest.mark.parametrize("t0", ["1e-200", "1e-160"])
    def test_ode_power_forcing_not_finite_at_t0(self, capsys, t0):
        # (1e-200)^2 underflows to 0; 1/(1e-160)^2 overflows to inf
        code = main(["ode", "--problem", "example51", "--alpha", "1", "--beta", "0.1",
                     "--x0", "1", "--t0", t0, "--t-end", "1", "--dt", "0.25",
                     "--perturb", "power:c0=1,p=2", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: power perturbation c0/t^p = 1/"), err
        assert f"= inf is not finite at t = {float(t0):g}, p = 2" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--out-dir", "out"],
        ["ode", "--alpha", "1", "--x0", "3", "--t-end", "1", "--out-dir", "out"],
        ["opt", "--x0", "3", "--out-dir", "out"],
        ["exp", "fig12", "--seed", "3"],
        ["rate", "run.csv", "--seed", "1"],
        ["rate", "run.csv", "--out-dir", "out"],
        ["rate", "run.csv", "--quiet"],
    ])
    def test_option_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_divergence_exit_code(self, capsys):
        code = main([
            "opt", "--problem", "quadratic(1,[1])", "--algo", "hbm",
            "--alpha", "0.9", "--beta", "1000", "--x0", "1",
            "--no-tol", "--max-iter", "5000", "--quiet",
        ])
        assert code == 3
        capsys.readouterr()
        # x_2 overflows to inf: a divergence, as a finite blow-up is
        assert main(["opt", "--algo", "hbm", "--beta", "1e308", "--x0", "3", "--quiet"]) == 3
        assert capsys.readouterr().err == "divergence: iterates blew up at k = 2 (|x| = inf)\n"
        # example51's formulas are NaN at +-inf, where math.sin raises
        assert main(["opt", "--step", "0.16666666666666666", "--beta", "1e308",
                     "--x0", "3"]) == 3
        assert capsys.readouterr().err == "divergence: iterates blew up at k = 3 (|x| = nan)\n"
        assert main(["ode", "--alpha", "1", "--beta", "1e308", "--x0", "3",
                     "--t-end", "0.01"]) == 3
        assert capsys.readouterr().err == (
            "divergence: trajectory blew up at t = 0.001 (|x|=nan, |v|=nan)\n")
        # alpha * s underflows to 0, so IAA's energy weight beta/(alpha*s) is
        # undefined: the energies are NaN and the run goes on to its blow-up.
        assert main(["opt", "--algo", "iaa", "--alpha", "5e-324", "--beta", "1",
                     "--step", "0.5", "--x0", "1"]) == 3
        assert capsys.readouterr().err == (
            "divergence: iterates blew up at k = 59 (|x| = 1.15e+12)\n")


class TestOdeCsvPinned:
    """SHA-256 of trajectory CSVs, fixed before the run and trajectory CSV
    writers became one (x86-64, IEEE-754 doubles)."""

    PERTURB = {
        "none": "none",
        "power_random": "power:c0=0.1,p=1,dir=random",
        "gauss": "gauss:sigma0=0.01,decay=0.01",
    }
    PINNED = {
        ("example51", "none"):
            "7c89e9988c7d28ca3d7ae620c48cb5146e6a1537dde9e3e701e96464cc8eb790",
        ("example51", "power_random"):
            "755722748fbb9b6e65a8aea1907b9fa20d04ec010bbe484bcee5659d57174ef6",
        ("example51", "gauss"):
            "50cf4e9f9d170fb20428527d3fc2dcf3ef7589ec04e84719c31bd1a03f278a59",
        ("example52", "none"):
            "06022eba98bef127587ce63c8200f04b734afd50d7837dd0e2b27ca10aed1eed",
        ("example52", "power_random"):
            "11c62943c4521be4ffea44d16a2e963a7cac27f65b53d453b0042d07a0272202",
        ("example52", "gauss"):
            "b99e340bb915179725eab0ad3f00a9fd519e59b45f19b708ab53ceb6af7a8ef3",
    }

    @pytest.mark.parametrize("name, pert", sorted(PINNED))
    def test_ode_out(self, tmp_path, name, pert):
        out = tmp_path / "traj.csv"
        x0 = ",".join(["3"] * builtin_problem(name).dimension)
        code = main([
            "ode", "--problem", name, "--alpha", "1", "--beta", "0.1",
            "--perturb", self.PERTURB[pert], "--seed", "3", "--x0", x0, "--t-end", "3",
            "--dt", "0.01", "--record-every", "7", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[(name, pert)]

    def test_int_t0(self, tmp_path):
        # Record 0's t is the int t0; every later time still prints as a float.
        records = integrate(builtin_problem("example51"), 1.0, 0.1, PerturbationSpec.none(),
                            [3.0], [0.0], t0=0, t_end=1.0, dt=0.01)
        assert type(records[0].t) is int and type(records[7].t) is float
        out = tmp_path / "traj.csv"
        write_records_csv(out, records)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3ca1e910453598f2fc8c93e51b2cff96de0ff3b91c3a3d2a25f40e69e99b9c60"
        )


class TestOptCsvPinned:
    """SHA-256 of run CSVs from ``opt --out`` at d = 1 (column ``x``) and
    d = 2 (``x0,x1``), fixed while records were still dataclasses (x86-64,
    IEEE-754 doubles)."""

    ALGO = {
        "iaa": ["--alpha", "0.3", "--beta", "0.2", "--step", "0.125"],
        "hbm-h": ["--alpha", "0.7", "--beta", "0.04", "--theta", "0.05"],
    }
    PERTURB = {"none": "none", "gauss": "gauss:sigma0=0.01,decay=0.01"}
    PINNED = {
        ("example51", "iaa", "none"):
            "d02a14b538c78ebd28ad025611ab75649fd1898ada0e450f2de88214749f57e9",
        ("example51", "iaa", "gauss"):
            "fa1a5d1e75e7b49af6bdd1d5ee729c5cc015de07a4704988d04ba6a924c0d8f8",
        ("example51", "hbm-h", "none"):
            "1cb7d8ffd8f4d8ab05a7a4c30d8db81c755cf59ef12574ffaa2ebcd36971f825",
        ("example51", "hbm-h", "gauss"):
            "11b9eb685e9519fb0bcddfb296d76f5201e1d4d13d050114e103e3799e9e1db6",
        ("example52", "iaa", "none"):
            "e0035b27501e915c622e767fc394afb7573d31aa4027df13fc998dc133db7355",
        ("example52", "iaa", "gauss"):
            "51aefc022c1502a82b62f047f3e7745f6c48cc29bcf25db15e9ef0c7cef99b5d",
        ("example52", "hbm-h", "none"):
            "173cdc78e9d6d854c7373f3d5b8dc29f9f3cea2aba881a2bb7af07ff20724ba2",
        ("example52", "hbm-h", "gauss"):
            "1f4ccc13838a6139c19f7fc7092093d6d88b78a8f96f2e2472de3419e2aa6959",
    }

    @pytest.mark.parametrize("name, algo, pert", sorted(PINNED))
    def test_opt_out(self, tmp_path, name, algo, pert):
        out = tmp_path / "run.csv"
        x0 = ",".join(["3"] * builtin_problem(name).dimension)
        code = main([
            "opt", "--problem", name, "--algo", algo, *self.ALGO[algo],
            "--perturb", self.PERTURB[pert], "--seed", "3", "--x0", x0, "--max-iter", "40",
            "--no-tol", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[(name, algo, pert)]


class TestPaperOutputsPinned:
    """The benchmark's paper workload at seed 0, through its own tasks,
    digests and check (perfbench/workloads.py): exit codes, stdout and the
    SHA-256 of every file the presets write equal perfbench/reference.json."""

    def test_paper_outputs_match_the_benchmark_reference(self, tmp_path):
        root = Path(__file__).resolve().parents[1] / "perfbench"
        reference = json.loads((root / "reference.json").read_text())["paper"]
        expected = {**reference["*"], **reference["0"]}
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      root / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paper = workloads.Paper(0)
        outcomes = {name: thunk() for name, thunk in paper.tasks(tmp_path)}
        paper.finish(outcomes, tmp_path)
        assert sorted(outcomes) == sorted(expected)
        for name, outcome in outcomes.items():
            assert paper.check(name, outcome, expected[name]) is None, name
