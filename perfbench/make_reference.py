"""Regenerate perfbench/reference.json, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are the accepted ones (the reference
was made at the commit that added the benchmark); a change that is meant to
keep outputs identical must pass against the existing file instead.  Stores
one pass of every workload for seeds 0-4; outcomes that are the same on
every seed go under "*".
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(5)


def main() -> int:
    _, workloads = run.load_library()
    run.RESULTS.mkdir(exist_ok=True)
    table = {}
    for name in workloads.WORKLOADS:
        by_seed = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.RESULTS) as scratch:
                runner = run.Runner(workloads.WORKLOADS[name](seed), {}, Path(scratch))
                runner.one_pass()
            if runner.failures:
                sys.exit(f"{name} seed {seed}: {runner.failures[:3]}")
            by_seed[str(seed)] = runner.outcomes
            print(f"{name} seed {seed}: {len(runner.outcomes)} tasks", file=sys.stderr)
        shared = {
            task: outcome for task, outcome in by_seed["0"].items()
            if all(outcomes[task] == outcome for outcomes in by_seed.values())
        }
        table[name] = {"*": shared} if shared else {}
        for seed, outcomes in by_seed.items():
            rest = {task: o for task, o in outcomes.items() if task not in shared}
            if rest:
                table[name][seed] = rest
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
