"""Benchmark of inertiq: one workload per call, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload {paper,sweep,flow,wide} --seed N \
        --seconds S --trace {0,1}

The workload draws its inputs from the seed, runs one untimed warm-up pass
and then repeats passes for S seconds in a single thread.  Every pass is
checked against the reference outputs of the seed commit (where the seed
has them) and against the invariants that hold on every seed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median over fresh processes, timed between the passes, of the time from
process start to ready), ``wall_s`` (median time of a pass), ``work_per_s``
(work of one pass over ``wall_s``) and ``peak_rss_mb``.  ``--trace 1``
spends half the time untraced and half with the span shims installed, and
reports the per-layer metrics.  The last line of standard output is one JSON object; a
results file with an environment stamp goes to perfbench/results/.
"""

from __future__ import annotations

import os

# Before numpy is imported: one thread for BLAS and OpenMP.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 11
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_library():
    """Import the benchmark modules and inertiq from this checkout's src/."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import inertiq
        import spans
        import workloads
    except ImportError as exc:
        sys.exit(f"cannot import inertiq from {SRC}: {exc}")
    if Path(inertiq.__file__).resolve().parent.parent != SRC:
        sys.exit(f"inertiq was imported from {inertiq.__file__}, not from {SRC}")
    return spans, workloads


def load_reference(name: str, seed: int) -> dict:
    """Reference outcomes for this seed; "*" holds the seed-independent ones."""
    table = json.loads((HERE / "reference.json").read_text())[name]
    return {**table.get("*", {}), **table.get(str(seed), {})}


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh process to its workload being ready, and
    the CPU time that process used in all."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--setup-only"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        sys.exit(f"set-up process failed with exit code {proc.returncode}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return elapsed, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, workload, reference: dict, scratch: Path):
        self.workload = workload
        self.reference = reference
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self.work: set[int] = set()
        self.passes = 0
        self.outcomes: dict = {}  # of the last pass

    def one_pass(self) -> tuple[dict[str, float], dict[str, float]]:
        """Run and check one pass; return the wall time and the thread CPU
        time of each task."""
        out_dir = self.scratch / f"pass{self.passes}"
        out_dir.mkdir()
        self.passes += 1
        tasks = list(self.workload.tasks(out_dir))
        outcomes, elapsed, cpu = {}, {}, {}
        for task, thunk in tasks:
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                outcomes[task] = thunk()
            except Exception as exc:  # a failed task is counted; the pass goes on
                outcomes[task] = exc
            elapsed[task] = time.perf_counter() - t0
            cpu[task] = time.thread_time() - c0
        self.work.add(self.workload.finish(outcomes, out_dir))
        self.outcomes = outcomes
        for task, outcome in outcomes.items():
            self.attempted += 1
            if isinstance(outcome, Exception):
                problem = f"{type(outcome).__name__}: {outcome}"
            else:
                problem = self.workload.check(task, outcome, self.reference.get(task))
            if problem is not None:
                self.failures.append(f"{task}: {problem}")
        shutil.rmtree(out_dir)
        return elapsed, cpu

    def timed(self, seconds: float, after_pass=None):
        """Passes until they have taken ``seconds`` (at least one); the wall
        and the CPU times of each pass's tasks.  ``after_pass(spent)`` runs
        between passes, outside the measured time."""
        gc.collect()
        wall: list[dict[str, float]] = []
        cpu: list[dict[str, float]] = []
        spent = 0.0
        while not wall or spent < seconds:
            t0 = time.perf_counter()
            elapsed, used = self.one_pass()
            spent += time.perf_counter() - t0
            wall.append(elapsed)
            cpu.append(used)
            if after_pass is not None:
                after_pass(spent)
            gc.collect()
        return wall, cpu


def pass_time(passes: list[dict[str, float]]) -> float:
    """Median over the passes of the time a pass's tasks take."""
    return statistics.median(sum(p.values()) for p in passes)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def emit(kind: str, values: dict, runner: Runner, extra: dict, args) -> None:
    """Print the metrics of BENCHMARK.json's ``kind`` list and write the results file."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    attempted, failed = runner.attempted, len(runner.failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), **result, **extra,
        "fail_frac": failed / attempted, "failures": runner.failures[:20],
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    for name, metric in metrics.items():
        alias = f" ({extra['throughput']})" if name == "work_per_s" else ""
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}{alias}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spans, workloads = load_library()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    reference = load_reference(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as scratch:
        runner = Runner(workload, reference, Path(scratch))
        runner.one_pass()  # warm-up
        if args.trace == 0:
            setup: list[tuple[float, float]] = []

            def spread_setup(spent):
                # Set-up is timed between passes, spread over the run, because
                # the machine's speed changes from one second to the next.
                share = min(1.0, spent / args.seconds) if args.seconds > 0 else 1.0
                while len(setup) < SETUP_REPEATS * share:
                    setup.append(measure_setup(args.workload, args.seed))

            times, cpu = runner.timed(args.seconds, after_pass=spread_setup)
            spread_setup(args.seconds)
            wall = pass_time(times)
            values = {
                "setup_s": statistics.median(t for t, _ in setup),
                "wall_s": wall,
                "work_per_s": max(runner.work) / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            extra = {"throughput": workload.throughput,
                     "setup_wall_s": [t for t, _ in setup],
                     "setup_cpu_s": [c for _, c in setup],
                     "task_s": {task: [p[task] for p in times] for task in times[0]},
                     "task_cpu_s": {task: [p[task] for p in cpu] for task in cpu[0]},
                     "work_per_pass": sorted(runner.work)}
        else:
            untraced, _ = runner.timed(args.seconds / 2)
            tracer = spans.Tracer()
            per_pass, last = [], {}

            def collect(spent):
                per_pass.append(spans.pass_metrics(tracer))
                last.update(tracer.spans())
                tracer.clear()

            with spans.installed(tracer, workload.problems):
                traced, _ = runner.timed(args.seconds / 2, after_pass=collect)
            values, unstable = spans.combine(per_pass)
            runner.failures += [f"count differs by pass: {u}" for u in unstable]
            values["trace.overhead_s"] = pass_time(traced) - pass_time(untraced)
            span_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
            numpy.savez(span_file, names=numpy.array(spans.SPAN_NAMES), **last)
            extra = {"untraced_pass_s": [sum(p.values()) for p in untraced],
                     "traced_pass_s": [sum(p.values()) for p in traced],
                     "all_layer_metrics": values,
                     "spans_of_last_pass": str(span_file.relative_to(ROOT))}
        if len(runner.work) > 1:
            runner.failures.append(f"work per pass differs: {sorted(runner.work)}")
    emit("end_to_end" if args.trace == 0 else "per_layer", values, runner, extra, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
