#!/usr/bin/env python3
"""Gate on the benchmark's exact work counts.

    python3 tools/check_work_counts.py            # compare with the committed file
    python3 tools/check_work_counts.py --record   # rewrite the committed file

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`
for each workload from the root of this checkout and keeps the counts that
say how much work a run did: solver iterations and edge updates, simulator
runs and ticks, Monte-Carlo samples, every batch stage's executed and hit
counts, and the daemon's solve-cache hits, executions and evictions.  Counts
do not drift with the machine, so any difference from
bench/baselines/work_counts.json means the program did different work, and
the script exits 1 naming each count that moved.  It only reads perfbench's
output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "baselines" / "work_counts.json"
WORKLOADS = ("solve_paper", "eval_grid", "daemon_loop")
COUNTS = ("mrf.iterations", "mrf.edge_updates", "sim.runs", "sim.ticks", "bayes.samples",
          "api.solve_cache.hits", "api.solve_cache.executed", "api.solve_cache.evicted")


def is_count(name):
    return name in COUNTS or name.startswith("runner.stage.")


def run_counts(workload):
    """The work counts of one traced seed-1 run of `workload`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: perfbench reports an incorrect run: "
                         f"{done.stdout.strip().splitlines()[0]}")
    return {name: int(metric["value"]) for name, metric in sorted(result["metrics"].items())
            if is_count(name)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the counts of this checkout to the committed file")
    args = parser.parse_args()

    counts = {workload: run_counts(workload) for workload in WORKLOADS}
    if args.record:
        BASELINE.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
        print(f"recorded {BASELINE.relative_to(ROOT)}")
        return 0

    expected = json.loads(BASELINE.read_text())
    moved = []
    for workload in WORKLOADS:
        want = expected.get(workload, {})
        got = counts[workload]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                moved.append(f"{workload} {name}: expected {want.get(name)}, got {got.get(name)}")
    for line in moved:
        print(line)
    if moved:
        print(f"{len(moved)} work count(s) differ from {BASELINE.relative_to(ROOT)}")
        return 1
    print(f"work counts match {BASELINE.relative_to(ROOT)} "
          f"({sum(len(c) for c in counts.values())} counts, {len(WORKLOADS)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
