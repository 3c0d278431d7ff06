"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

spans, workloads = run.load_library()
run.RESULTS.mkdir(exist_ok=True)
NAMES = list(workloads.WORKLOADS)


def _one_pass(workload, scratch: Path) -> dict:
    scratch.mkdir()
    runner = run.Runner(workload, {}, scratch)
    runner.one_pass()
    assert runner.failures == []
    return runner.outcomes


@pytest.fixture(scope="module", params=NAMES)
def passes(request):
    """Outcomes of an untraced pass and of two traced passes, and the
    per-layer metrics and spans of the traced ones, each from a fresh
    workload."""
    outcomes, metrics, recorded = [], [], []
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as scratch:
        for i in range(3):
            workload = workloads.WORKLOADS[request.param](0)
            if i == 0:
                outcomes.append(_one_pass(workload, Path(scratch) / "untraced"))
                continue
            tracer = spans.Tracer()
            with spans.installed(tracer, workload.problems):
                outcomes.append(_one_pass(workload, Path(scratch) / f"traced{i}"))
                metrics.append(spans.pass_metrics(tracer))
                recorded.append(tracer.spans())
    return outcomes, metrics, recorded


def test_traced_pass_has_untraced_outputs(passes):
    untraced, *traced = passes[0]
    assert traced == [untraced, untraced]


def test_traced_counts_repeat_exactly(passes):
    first, second = passes[1]
    counts = {k for k, v in first.items() if isinstance(v, int)}
    assert counts, "no count metrics"
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_copying_a_problem_records_no_spans(passes):
    """A traced copy of a problem checks stationarity through the traced
    grad.  Those calls are not the program's: on paper they would show as
    grad spans under cli.main or experiments.execute, where
    builtin_problem is called."""
    ids = spans.Tracer().ids
    for recorded in passes[2]:
        names, parent = recorded["name_id"], recorded["parent"]
        grads = (names == ids["problems.grad"]) & (parent >= 0)
        parents = set(names[parent[grads]].tolist())
        assert not parents & {ids["cli.main"], ids["experiments.execute"]}
    tracer = spans.Tracer()
    tracer.problem(workloads.problems.builtin_problem("example51"))
    assert len(tracer.name_id) == 0


def test_shims_are_removed_after_the_traced_run():
    modules = [spans.analysis, spans.cli, spans.dynamics, spans.experiments,
               spans.optimizers, spans.perturbations, spans.rates]
    snapshot = [dict(vars(m)) for m in modules]
    problems = {"p": workloads.problems.builtin_problem("example51")}
    original = problems["p"]
    with spans.installed(spans.Tracer(), problems):
        assert problems["p"] is not original
        assert spans.optimizers.run is not snapshot[4]["run"]
    assert [dict(vars(m)) for m in modules] == snapshot
    assert problems["p"] is original


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert spans.self_times(parent, end - start).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_pass_metrics_of_a_synthetic_trace():
    tracer = spans.Tracer()
    ids = tracer.ids
    # run [0, 10] -> step [1, 3] -> grad [1.5, 2.5]; run -> grad [4, 5];
    # a grad outside any run [11, 12].
    rows = [
        ("optimizers.run", -1, 0.0, 10.0),
        ("optimizers.step", 0, 1.0, 3.0),
        ("problems.grad", 1, 1.5, 2.5),
        ("problems.grad", 0, 4.0, 5.0),
        ("problems.grad", -1, 11.0, 12.0),
    ]
    for name, parent, t0, t1 in rows:
        tracer.name_id.append(ids[name])
        tracer.parent.append(parent)
        tracer.start.append(t0)
        tracer.end.append(t1)
    tracer.counters["optimizers.iters"] = 4
    tracer.counters["optimizers.n_grad_evals"] = 1
    m = spans.pass_metrics(tracer)
    assert m["optimizers.run.calls"] == 1
    assert m["optimizers.run.self_s"] == 7.0
    assert m["optimizers.step.self_s"] == 1.0
    assert m["problems.grad.calls"] == 3
    assert m["problems.grad.self_s"] == 3.0
    assert m["optimizers.record_grad_calls"] == 1
    assert m["problems.grad.useful_ratio"] == 0.5
    assert m["optimizers.run.us_per_iter"] == 10.0 / 4 * 1e6
    assert m["dynamics.us_per_step"] == 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_metric_is_emitted(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in run.SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result."""
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
