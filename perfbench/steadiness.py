#!/usr/bin/env python3
"""Runs sets of benchmark runs and reports how steady their metrics are.

    python3 perfbench/steadiness.py run --out SET.jsonl [--workloads a,b]
                                     [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 perfbench/steadiness.py report SET.jsonl [SECOND_SET.jsonl]

`run` invokes run.py once per workload and seed, one run at a time, and
appends each run's detail and result lines to SET.jsonl.  `report` prints,
per workload and metric, the median, the quartiles and IQR/median as
statistics.quantiles(values, n=4) gives them, and flags every end-to-end
metric whose IQR/median exceeds 0.10 or (setup_s aside, whose spread is not
gated) a third of its bound in BENCHMARK.json.  Given a second set, it also prints how far each median
moved in the metric's worse direction, against the bound.
"""

import argparse
import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

FLAG_SPREAD = 0.10


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_set(args):
    workloads = args.workloads.split(",")
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                     str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    cwd=HERE.parent, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "exit": proc.returncode}
                if proc.returncode == 0 and len(lines) >= 2:
                    record["detail"] = json.loads(lines[-2])["detail"]
                    record["result"] = json.loads(lines[-1])
                else:
                    record["stderr"] = proc.stderr[-2000:]
                out.write(json.dumps(record) + "\n")
                out.flush()
                result = record.get("result", {})
                print(f"{workload} seed {seed}: exit {proc.returncode} "
                      f"correct {result.get('correct')} failed {result.get('failed')}",
                      file=sys.stderr)


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def benchmark_spec():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def series(records):
    """{workload: {metric: [values]}}, plus detail-line class percentiles."""
    table = {}
    for record in records:
        if "result" not in record:
            continue
        metrics = table.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
        for cls, entry in record["detail"].get("classes", {}).items():
            for key, value in entry.items():
                if key != "samples":
                    metrics.setdefault(f"(detail) {cls}_{key}", []).append(value)
    return table


def report(args):
    first = load(args.sets[0])
    spec = benchmark_spec()
    bad = [r for r in first if r.get("exit") != 0 or not r.get("result", {}).get("correct")]
    print(f"{args.sets[0]}: {len(first)} runs, {len(bad)} failed or incorrect")
    for record in bad:
        print(f"  {record['workload']} seed {record['seed']}: exit {record.get('exit')} "
              f"{record.get('detail', {}).get('failures', record.get('stderr', ''))}")
    second = series(load(args.sets[1])) if len(args.sets) > 1 else None
    flagged = 0
    for workload, metrics in series(first).items():
        print(f"\n{workload}")
        header = f"  {'metric':34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
        if second is not None:
            header += f" {'worse by':>9}"
        print(header)
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, q2, q3 = stats.quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            line = f"  {name:34} {len(values):>3} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}"
            if second is not None and name in second.get(workload, {}):
                other = stats.median(second[workload][name])
                better = spec.get(name, {}).get("better", "lower")
                worse = (other - q2) / q2 if better == "lower" else (q2 - other) / q2
                line += f" {worse:>9.3f}"
            notes = []
            if name in spec:
                bound = spec[name]["bound"]
                if spread > FLAG_SPREAD:
                    notes.append(f"FLAG iqr/median > {FLAG_SPREAD}")
                if name != "setup_s" and spread > bound / 3:
                    notes.append(f"above a third of bound {bound}")
                if second is not None and name in second.get(workload, {}) and worse > bound:
                    notes.append(f"median worse than bound {bound}")
            if notes:
                flagged += 1
                line += "  <- " + "; ".join(notes)
            print(line)
    print(f"\n{flagged} flagged")
    return 1 if flagged or bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--workloads", default="solve_paper,eval_grid,daemon_loop")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=float, default=20)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report")
    rep.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        run_set(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
