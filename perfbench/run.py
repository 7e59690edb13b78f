#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and builds
the benchmark binary (perfbench/CMakeLists.txt, the icsdiv library and icsdivd) into
.bench_build/perfbench.  The workload runs in fresh child processes with a
budget of two busy compute threads.  stdout gets one detail line (provenance,
per-class statistics, failures), then the result as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced replay and writes its spans as a Chrome trace-event file.
"""

import argparse
import collections
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("solve_paper", "eval_grid", "daemon_loop")
THREADS = 2          # compute threads of every timed run
TIME_LIMIT_S = 170   # the children of one run, after the build, end within this
BUILD_JOBS = "2"

# (name, unit).  BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
_SPAN_TIMES = (  # per-layer metric in seconds, span name
    ("core.model_parse_s", "core.model_parse"),
    ("core.problem_s", "core.problem"),
    ("core.decode_s", "core.decode"),
    ("mrf.extract_s", "mrf.extract"),
    ("mrf.compile_s", "mrf.compile"),
    ("mrf.trws_s", "mrf.trws"),
    ("mrf.icm_s", "mrf.icm"),
    ("sim.channels_s", "sim.channels"),
    ("sim.mttc_s", "sim.mttc"),
    ("bayes.compile_s", "bayes.compile"),
    ("bayes.mc_s", "bayes.mc"),
)
LAYERS = ("api", "core", "mrf", "runner", "sim", "bayes", "daemon", "support")
_STAGES = ("workload", "problem", "solve", "channels", "attack", "metric")
PER_LAYER = (
    (("core.model_parse_s", "s"), ("support.json_dump_s", "s"))
    + tuple((f"support.json_parse_ms.{c}", "ms") for c in ("warm", "cold"))
    + tuple((f"api.wire_ms.{c}", "ms") for c in ("warm", "cold"))
    + (("api.warm_execute_ms", "ms"), ("api.cold_execute_ms", "ms"))
    + tuple((f"daemon.transport_ms.{c}", "ms") for c in ("warm", "cold"))
    + tuple((f"daemon.{k}_bytes.{c}", "bytes") for k in ("request", "reply")
            for c in ("warm", "cold"))
    + tuple((f"api.solve_cache.{k}", "count") for k in ("hits", "executed", "evicted"))
    + (("core.problem_s", "s"), ("mrf.extract_s", "s"), ("mrf.compile_s", "s"),
       ("mrf.trws_s", "s"), ("mrf.icm_s", "s"), ("mrf.iterations", "count"),
       ("mrf.edge_updates", "count"), ("mrf.msg_bytes", "bytes"), ("core.decode_s", "s"),
       ("runner.generate_s", "s"))
    + tuple((f"runner.stage.{s}.{k}", "count") for s in _STAGES for k in ("executed", "hits"))
    + (("runner.overhead_s", "s"), ("sim.channels_s", "s"), ("sim.mttc_s", "s"),
       ("sim.runs", "count"), ("sim.ticks", "count"), ("bayes.compile_s", "s"),
       ("bayes.mc_s", "s"), ("bayes.samples", "count"), ("support.serial_s", "s"),
       ("support.pool_speedup", "x"), ("trace.e2e_s", "s"), ("trace.replay_s", "s"),
       ("trace.overhead_s", "s"), ("trace.uncovered_s", "s"), ("trace.layer_sum_ratio", "x"))
    + tuple((f"self.{layer}_s", "s") for layer in LAYERS)
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and provenance

def build():
    """Configures (once) and builds the benchmark binary; returns (binary, icsdivd)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no icsdiv sources at {ROOT}: run from a source checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([cmake, "--build", str(BUILD), "-j", BUILD_JOBS], check=True, env=env,
                   stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "icsdiv_perfbench", BUILD / "icsdiv" / "tools" / "icsdivd"


def source_digest():
    """SHA-256 over the files the build and the run read, so a result names
    the code it measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt", HERE / "run.py", HERE / "stats.py"]
    for directory in (ROOT / "src", ROOT / "tools", HERE / "src"):
        files += sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                  capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown"


def pin_cpus():
    """Pins this process, and with it every child, to the last THREADS of
    the CPUs it may use, and returns them.  Unpinned, where the scheduler
    placed client and daemon threads moved daemon_loop's warm p50 between
    runs of one seed by up to a quarter (README, design rule 2)."""
    cpus = sorted(os.sched_getaffinity(0))[-THREADS:]
    os.sched_setaffinity(0, cpus)
    return cpus


def loadavg():
    with open("/proc/loadavg") as handle:
        return [float(x) for x in handle.read().split()[:3]]


# ---------------------------------------------------------------------------
# Children

def run_child(binary, args, deadline):
    """Runs the benchmark binary with `args`; returns its raw result document."""
    out = BUILD / f"raw-{os.getpid()}-{time.monotonic_ns()}.json"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    try:
        subprocess.run([str(binary), *args, "--out", str(out)], cwd=ROOT, check=True,
                       timeout=remaining, stdout=sys.stderr, stderr=sys.stderr)
        with open(out) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"benchmark binary ran past the {TIME_LIMIT_S} s limit") from error
    except subprocess.CalledProcessError as error:
        raise BenchError(f"benchmark binary failed with exit code {error.returncode}") from error
    finally:
        out.unlink(missing_ok=True)


def socket_path():
    # Relative to the checkout root (the children's cwd): unix socket paths
    # are limited to about 100 bytes, checkout paths are not.
    return str((BUILD / f"icsdivd-{os.getpid()}.sock").relative_to(ROOT))


def remove_socket(path):
    for leftover in (ROOT / path, ROOT / (path + ".lock")):
        leftover.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Metrics

class Metrics:
    def __init__(self, table):
        self.units = dict(table)
        self.values = {}
        self.missing = []
        self.invalid = {}

    def set(self, name, value):
        if name not in self.units:
            raise BenchError(f"metric {name} is not declared")
        self.values[name] = float(value)

    def set_remainder(self, name, value):
        """A remainder (an operation's time minus the replayed calls in it)
        cannot be negative.  A negative one is noise larger than the
        remainder: it is left unreported and listed as invalid."""
        if value < 0:
            self.invalid[name] = value
        else:
            self.set(name, value)

    def document(self):
        for name in self.units:
            if name not in self.values:
                self.missing.append(name)
                self.values[name] = 0.0
        return {name: {"value": self.values[name], "unit": self.units[name]}
                for name in self.units}


def class_stats(samples_ms):
    """Median and the highest reportable tail percentile, with the count."""
    n = len(samples_ms)
    entry = {"samples": n}
    if n:
        entry["p50_ms"] = stats.median(samples_ms)
        tail = stats.highest_reportable(n)
        if tail is not None:
            entry[f"p{tail}_ms"] = stats.percentile(samples_ms, tail)
    return entry


def block_rates(done_s, block=100):
    """Completions per second over each run of `block` consecutive
    completions: one rate per block, none from a partial block."""
    times = sorted(done_s)
    return [block / (times[i + block] - times[i])
            for i in range(0, len(times) - block, block) if times[i + block] > times[i]]


def end_to_end(workload, raw, metrics, detail):
    """Fills the end-to-end metrics; False when one cannot be measured."""
    samples = raw["samples"]
    metrics.set("setup_s", stats.median(raw["setup_s"]))
    metrics.set("peak_rss_mb", raw["peak_rss_mb"])
    if workload == "daemon_loop":
        classes = {c: class_stats(samples[f"{c}_ms"]) for c in ("warm", "cold")}
        detail["classes"] = classes
        detail["solve_cache"] = samples["counts"]
        rates = block_rates(samples["done_s"])
        detail["block_rates"] = {"blocks": len(rates), "min": min(rates, default=0.0),
                                 "max": max(rates, default=0.0)}
        if "p50_ms" in classes["warm"]:
            metrics.set("latency_p50_ms", classes["warm"]["p50_ms"])
        if rates:
            metrics.set("throughput_per_s", stats.median(rates))
        return all("p90_ms" in entry for entry in classes.values()) and bool(rates)
    op_s = samples["op_s"]
    detail["operations"] = {"samples": len(op_s), "op_s": op_s}
    if not op_s:
        return False
    per_op = 1 if workload == "solve_paper" else samples["cells_per_op"]
    metrics.set("latency_p50_ms", stats.median(op_s) * 1e3)
    metrics.set("throughput_per_s", stats.median([per_op / s for s in op_s]))
    return True


# One traced operation: its duration, and per span name the summed self
# times and durations of its spans, all in us.
Profile = collections.namedtuple("Profile", "duration selfs totals uncovered")


def op_profiles(trace, labels):
    """A Profile per traced operation whose label is in `labels`."""
    spans = trace["spans"]
    selfs = stats.self_times(spans)
    by_op = {}
    for span in spans:
        by_op.setdefault(span["op"], []).append(span)
    profiles = []
    for index, op in enumerate(trace["ops"]):
        if op["label"] not in labels:
            continue
        own = by_op.get(index, [])
        self_by_name, total_by_name = {}, {}
        for span in own:
            self_by_name[span["name"]] = self_by_name.get(span["name"], 0.0) + selfs[span["id"]]
            total_by_name[span["name"]] = (total_by_name.get(span["name"], 0.0)
                                           + span["end_us"] - span["start_us"])
        profiles.append(Profile(op["end_us"] - op["start_us"], self_by_name, total_by_name,
                                stats.uncovered(own, op["start_us"], op["end_us"])))
    return profiles


def layer_selfs(self_by_name):
    totals = {layer: 0.0 for layer in LAYERS}
    for name, us in self_by_name.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += us
    return totals


def daemon_layers(samples, trace, metrics):
    """daemon_loop: each traced call paired with its in-process replay."""
    pairs = {}
    for cls in ("warm", "cold"):
        # Call i of a class and replay i of that class are one request.
        pairs[cls] = list(zip(op_profiles(trace, (cls,)), op_profiles(trace, (f"{cls}-replay",))))
        if not pairs[cls]:
            continue

        def med(f, pairs=pairs[cls]):
            return stats.median([f(call, replay) for call, replay in pairs])

        metrics.set(f"support.json_parse_ms.{cls}",
                    med(lambda c, r: r.selfs.get("support.json_parse", 0.0)) / 1e3)
        metrics.set(f"api.wire_ms.{cls}", med(lambda c, r: r.selfs.get("api.from_wire", 0.0)
                                             + r.selfs.get("api.to_wire", 0.0)) / 1e3)
        metrics.set(f"api.{cls}_execute_ms",
                    med(lambda c, r: r.totals.get("api.execute", 0.0)) / 1e3)
        metrics.set_remainder(f"daemon.transport_ms.{cls}",
                              med(lambda c, r: c.totals["daemon.call"] - sum(r.selfs.values())) / 1e3)
        if cls == "cold":
            # A cache miss replays the solve's own calls.
            for name, span in _SPAN_TIMES:
                if any(span in r.selfs for _, r in pairs[cls]):
                    metrics.set(name, med(lambda c, r, s=span: r.selfs.get(s, 0.0)) / 1e6)

    e2e = samples["e2e_ms"]
    metrics.set("trace.e2e_s", stats.median(e2e["warm"]) / 1e3)
    warm = pairs["warm"]
    if warm:
        # The daemon's own share of a call is the call minus the replayed
        # in-process work, so the layers add up to the call.
        def layers_of(call, replay):
            totals = layer_selfs(replay.selfs)
            totals["daemon"] += call.totals["daemon.call"] - sum(replay.selfs.values())
            return totals
        for layer in LAYERS:
            metrics.set(f"self.{layer}_s",
                        stats.median([layers_of(c, r)[layer] for c, r in warm]) / 1e6)
        # Untraced call j and traced call j ran in the same round.
        paired = list(zip([ms * 1e3 for ms in e2e["warm"]], warm))
        metrics.set("trace.replay_s",
                    stats.median([c.totals["daemon.call"] for c, _ in warm]) / 1e6)
        metrics.set("trace.overhead_s", stats.median(
            [c.totals["daemon.call"] - u for u, (c, _) in paired]) / 1e6)
        metrics.set("trace.uncovered_s", stats.median([c.uncovered for c, _ in warm]) / 1e6)
        metrics.set("trace.layer_sum_ratio", stats.median(
            [sum(layers_of(c, r).values()) / u for u, (c, r) in paired]))
    probes = op_profiles(trace, ("probe",))
    if probes:
        metrics.set("support.json_dump_s",
                    stats.median([p.selfs.get("support.json_dump", 0.0) for p in probes]) / 1e6)


def operation_layers(workload, samples, trace, wide, metrics):
    """solve_paper and eval_grid: each untraced operation followed by its replay."""
    e2e = samples["e2e_s"]
    e2e_s = stats.median(e2e)
    metrics.set("trace.e2e_s", e2e_s)
    metrics.set("support.serial_s", e2e_s)
    if wide is not None and wide["samples"]["e2e_s"]:
        metrics.set("support.pool_speedup", e2e_s / stats.median(wide["samples"]["e2e_s"]))
    replays = op_profiles(trace, ("replay",))
    if not replays:
        return

    def med(f):
        return stats.median([f(p) for p in replays])

    for name, span in _SPAN_TIMES:
        metrics.set(name, med(lambda p, s=span: p.selfs.get(s, 0.0)) / 1e6)
    metrics.set("support.json_dump_s", med(lambda p: p.selfs.get("support.json_dump", 0.0)) / 1e6)
    metrics.set("runner.generate_s", med(lambda p: p.selfs.get("runner.generate", 0.0)) / 1e6)
    for layer in LAYERS:
        metrics.set(f"self.{layer}_s", med(lambda p, l=layer: layer_selfs(p.selfs)[l]) / 1e6)
    metrics.set("trace.replay_s", med(lambda p: p.duration) / 1e6)
    metrics.set("trace.uncovered_s", med(lambda p: p.uncovered) / 1e6)
    # Operation i and replay i ran next to each other, so pairwise
    # differences and ratios cancel drift in machine speed between pairs.
    pairs = [(s, p.duration / 1e6, sum(p.selfs.values()) / 1e6) for s, p in zip(e2e, replays)]
    metrics.set("trace.overhead_s", stats.median([replay - s for s, replay, _ in pairs]))
    metrics.set("trace.layer_sum_ratio", stats.median([covered / s for s, _, covered in pairs]))
    if workload == "eval_grid":
        metrics.set_remainder("runner.overhead_s",
                              stats.median([s - covered for s, _, covered in pairs]))


def per_layer(workload, traced, wide, metrics):
    """Per-layer metrics of a traced run (`traced`, one thread) and the
    two-thread end-to-end run (`wide`, None for daemon_loop)."""
    samples = traced["samples"]
    trace = samples.get("trace", {"ops": [], "spans": []})
    for name, value in samples.get("counts", {}).items():
        metrics.set(name, value)
    if workload == "daemon_loop":
        daemon_layers(samples, trace, metrics)
    else:
        operation_layers(workload, samples, trace, wide, metrics)
    # Set-up generates the models of solve_paper and daemon_loop.
    generate = [p.selfs.get("runner.generate", 0.0) for p in op_profiles(trace, ("setup",))]
    if generate:
        metrics.set("runner.generate_s", stats.median(generate) / 1e6)


def write_chrome_trace(path, trace):
    """Spans as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)."""
    events = []
    for index, op in enumerate(trace["ops"]):
        events.append({"name": f"op:{op['label']}", "cat": "op", "ph": "X", "pid": 1, "tid": 1,
                       "ts": op["start_us"], "dur": op["end_us"] - op["start_us"],
                       "args": {"op": index}})
    for span in trace["spans"]:
        events.append({"name": span["name"], "cat": span["name"].split(".", 1)[0], "ph": "X",
                       "pid": 1, "tid": 1, "ts": span["start_us"],
                       "dur": span["end_us"] - span["start_us"],
                       "args": {"span": span["id"], "parent": span["parent"], "op": span["op"]}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------

def measure(args, binary, common, detail, deadline):
    """Runs the children of one run; returns (metrics, raw results, complete)."""
    if args.trace == 0:
        metrics = Metrics(END_TO_END)
        raw = run_child(binary, ["--mode", "timed", "--seconds", str(args.seconds),
                                 "--threads", str(THREADS), *common], deadline)
        detail["threads"] = THREADS
        return metrics, [raw], end_to_end(args.workload, raw, metrics, detail)

    # One thread: the untraced operation alternating with its traced replay.
    # Two threads (not for daemon_loop): the untraced operation again, for
    # support.pool_speedup.
    metrics = Metrics(PER_LAYER)
    reps = {"solve_paper": "7", "eval_grid": "7", "daemon_loop": "40"}[args.workload]
    traced = run_child(binary, ["--mode", "traced", "--threads", "1", "--reps", reps, *common],
                       deadline)
    runs = [traced]
    wide = None
    if args.workload != "daemon_loop":
        wide = run_child(binary, ["--mode", "traced", "--threads", str(THREADS), "--reps", "2",
                                  "--replay", "0", *common], deadline)
        runs.append(wide)
    per_layer(args.workload, traced, wide, metrics)
    trace_path = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
    write_chrome_trace(trace_path, traced["samples"].get("trace", {"ops": [], "spans": []}))
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    detail["threads"] = 1
    return metrics, runs, True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = loadavg()
    binary, icsdivd = build()
    deadline = time.monotonic() + TIME_LIMIT_S
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commit": commit(), "source_sha256": source_digest(),
              "nproc": len(os.sched_getaffinity(0)), "load_before": load_before}
    detail["cpus"] = pin_cpus()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    socket = socket_path()
    if args.workload == "daemon_loop":
        common += ["--icsdivd", str(icsdivd), "--socket", socket]
    try:
        metrics, runs, complete = measure(args, binary, common, detail, deadline)
    finally:
        remove_socket(socket)

    document = metrics.document()
    detail["simd"] = runs[0]["simd"]
    detail["load_after"] = loadavg()
    detail["failures"] = [reason for run in runs for reason in run["failures"]]
    detail["missing_metrics"] = metrics.missing
    detail["invalid_metrics"] = metrics.invalid
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    names_ok = all(stats.valid_name(n) and stats.valid_unit(u["unit"])
                   for n, u in document.items())
    # A per-layer metric a workload never reaches reads 0; an end-to-end
    # metric must always be measured.
    correct = failed == 0 and complete and names_ok and not (
        args.trace == 0 and metrics.missing)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": document}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
