#!/usr/bin/env python3
"""End-to-end output pins for the built binaries.

Three groups of checks, each driving a real executable:

  reports   `icsdiv_cli batch --report deterministic` on four example
            grids, at --threads 1 and 4; the CSV and JSON bytes must equal
            the goldens under tests/goldens/.
  examples  the stdout of five examples must equal
            tests/goldens/examples/<name>.txt, and daemon_quickstart must
            solve once and serve the repeat from the warm cache (skipped
            when the examples are not built, i.e. no --examples directory
            is given).
  flags     icsdiv_cli and icsdivd reject flags they do not read, out-of-
            range --timeout-ms and --threads values (in every batch mode,
            a shard that owns no cell included), `batch --shard` without
            --store, and `icsdivd --max-connections 0`, with exit code 2 and
            a message naming the flag, before doing any work.  icsdiv_cli
            prints its usage text after an error in the command line
            itself, and only then: a --threads value the engine refuses
            at run time prints its own line alone.
  store     a shard over a store whose MANIFEST names another format
            version fails with exit 5, naming the directory and the line,
            and writes nothing there; a `--report deterministic` run over
            the same store treats it as a cache it cannot use and still
            writes the golden report.

Usage:
  end_to_end_test.py --cli ICSDIV_CLI --icsdivd ICSDIVD [--examples DIR]
  end_to_end_test.py ... --record

--record rewrites the report and example goldens from this build.  Do it
only when a change alters results on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from typing import List, Optional

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = REPO / "tests" / "goldens"
GRIDS = ("sweep_small", "attack_sweep", "metric_sweep", "daemon_smoke")
THREADS = (1, 4)
EXAMPLES = ("quickstart", "enterprise_network", "ics_case_study", "attack_simulation",
            "nvd_pipeline")
USAGE_ERROR = 2  # api::StatusCode::InvalidArgument's exit code
INFEASIBLE = 5  # api::StatusCode::Infeasible's exit code


def grid_path(name: str) -> str:
    return str(REPO / "examples" / "grids" / f"{name}.json")


def run(command: List[str], cwd: pathlib.Path, timeout: float = 600.0):
    return subprocess.run(command, cwd=cwd, capture_output=True, timeout=timeout)


def check_reports(cli: str, work: pathlib.Path, record: bool) -> List[str]:
    failures = []
    for grid in GRIDS:
        for threads in THREADS:
            csv_path = work / f"{grid}.t{threads}.csv"
            json_path = work / f"{grid}.t{threads}.json"
            result = run([cli, "batch", "--grid", grid_path(grid), "--report", "deterministic",
                          "--threads", str(threads), "--csv", str(csv_path),
                          "--json", str(json_path)], work)
            if result.returncode != 0:
                failures.append(f"{grid} --threads {threads}: exit {result.returncode}: "
                                f"{result.stderr.decode(errors='replace')[-400:]}")
                continue
            for produced, suffix in ((csv_path, "csv"), (json_path, "json")):
                golden = GOLDENS / f"{grid}.{suffix}"
                if record and threads == THREADS[0]:
                    golden.write_bytes(produced.read_bytes())
                elif produced.read_bytes() != golden.read_bytes():
                    failures.append(f"{grid} --threads {threads}: {suffix} differs from {golden}")
    return failures


def check_examples(examples: pathlib.Path, work: pathlib.Path, record: bool) -> List[str]:
    failures = []
    if record:
        (GOLDENS / "examples").mkdir(exist_ok=True)
    for name in EXAMPLES:
        result = run([str(examples / name)], work)
        if result.returncode != 0:
            failures.append(f"example {name}: exit {result.returncode}")
            continue
        golden = GOLDENS / "examples" / f"{name}.txt"
        if record:
            golden.write_bytes(result.stdout)
        elif result.stdout != golden.read_bytes():
            failures.append(f"example {name}: stdout differs from {golden}")
    if not record:
        failures += check_daemon_quickstart(examples, work)
    return failures


def check_daemon_quickstart(examples: pathlib.Path, work: pathlib.Path) -> List[str]:
    """Server, Client and the warm solve cache together.  Its socket path
    and timings vary, so the lines are matched, not compared to a golden."""
    result = run([str(examples / "daemon_quickstart")], work, timeout=60.0)
    if result.returncode != 0:
        return [f"example daemon_quickstart: exit {result.returncode}"]
    lines = result.stdout.decode(errors="replace").splitlines()
    expected = {
        "optimize #1": lambda line: line.startswith("optimize #1:") and line.endswith("[solved]"),
        "optimize #2": lambda line: (line.startswith("optimize #2:")
                                     and line.endswith("[served from cache]")),
        "status": lambda line: (line.startswith("status:")
                                and " solve planned/executed/hits=2/1/1 " in line),
    }
    return [f"example daemon_quickstart: no {label} line as expected"
            for label, matches in expected.items() if not any(map(matches, lines))]


def tiny_documents(work: pathlib.Path):
    """A four-host catalog and network, written to `work`."""
    catalog = {
        "format": "icsdiv-catalog",
        "services": [{"name": "OS", "products": ["os1", "os2"],
                      "similarity": [{"a": "os1", "b": "os2", "value": 0.3}]}],
    }
    network = {
        "format": "icsdiv-network",
        "hosts": [{"name": f"h{i}", "services": [{"service": "OS", "candidates": ["os1", "os2"]}]}
                  for i in range(4)],
        "links": [["h0", "h1"], ["h1", "h2"], ["h2", "h3"]],
    }
    catalog_path = work / "catalog.json"
    network_path = work / "network.json"
    catalog_path.write_text(json.dumps(catalog))
    network_path.write_text(json.dumps(network))
    return str(catalog_path), str(network_path)


def expect_usage_error(command: List[str], flags: List[str], work: pathlib.Path,
                       must_not_exist: List[pathlib.Path],
                       usage: Optional[bool]) -> List[str]:
    """Exit 2 naming each of `flags`, leaving none of `must_not_exist`;
    `usage` says whether the usage text must follow (None: not checked)."""
    label = " ".join(pathlib.Path(part).name if part.startswith("/") else part
                     for part in command)
    try:
        result = run(command, work, timeout=30.0)
    except subprocess.TimeoutExpired:
        return [f"`{label}`: still running after 30 s (expected exit {USAGE_ERROR})"]
    failures = []
    output = (result.stdout + result.stderr).decode(errors="replace")
    # The usage text names every flag, so only what precedes it counts.
    message = output.split("usage:", 1)[0]
    if result.returncode != USAGE_ERROR:
        failures.append(f"`{label}`: exit {result.returncode}, expected {USAGE_ERROR}")
    for flag in flags:
        if flag not in message:
            failures.append(f"`{label}`: message does not name {flag}")
    for path in must_not_exist:
        if path.exists():
            failures.append(f"`{label}`: created {path.name}")
    if usage is not None and ("usage:" in output) != usage:
        failures.append(f"`{label}`: usage text {'missing' if usage else 'printed'}")
    return failures


def check_flags(cli: str, icsdivd: str, work: pathlib.Path) -> List[str]:
    catalog, network = tiny_documents(work)
    shard_json = work / "shard.json"
    stray_csv = work / "stray.csv"
    session_csv = work / "threads_session.csv"
    local_csv = work / "threads_local.csv"
    store = work / "store"
    socket_path = work / "refused.sock"
    # (command, text the message must name, paths it must not create,
    #  whether icsdiv_cli's usage text follows; icsdivd's is not checked)
    cases = [
        ([cli, "optimize", "--catalog", catalog, "--network", network, "--max-iteration", "1",
          "--solverr", "icm"], ["--max-iteration", "--solverr"], [], True),
        # Past INT64_MAX, the wire's signed timeout_ms.
        ([cli, "optimize", "--catalog", catalog, "--network", network,
          "--timeout-ms", "9223372036854775808"], ["--timeout-ms"], [], True),
        # One past the batch worker ceiling, in the session path and both
        # local modes; the engine refuses it at run time, so no usage text.
        # Shard 999/1000 owns no cell of sweep_small and still refuses it.
        ([cli, "batch", "--grid", grid_path("sweep_small"), "--threads", "257",
          "--csv", str(session_csv)], ["threads", "256"], [session_csv], False),
        ([cli, "batch", "--grid", grid_path("sweep_small"), "--report", "deterministic",
          "--threads", "257", "--csv", str(local_csv)], ["threads", "256"], [local_csv], False),
        ([cli, "batch", "--grid", grid_path("sweep_small"), "--shard", "999/1000",
          "--store", str(store), "--threads", "257"], ["threads", "256"], [store], False),
        # A shard writes its results to the store and nowhere else.  The
        # grid does not exist: --store is checked before it is read.
        ([cli, "batch", "--grid", str(work / "no_grid.json"), "--shard", "0/2"], ["--store"], [],
         True),
        ([cli, "batch", "--grid", grid_path("sweep_small"), "--shard", "0/2", "--store",
          str(store), "--json", str(shard_json), "--csv", str(stray_csv)], ["--csv", "--json"],
         [store, shard_json, stray_csv], True),
        ([cli, "batch", "--grid", grid_path("sweep_small"), "--report", "deterministic",
          "--timeout-ms", "1", "--format", "json", "--csv", str(stray_csv)],
         ["--timeout-ms", "--format"], [stray_csv], True),
        ([cli, "version", "--bogus", "1"], ["--bogus"], [], True),
        ([icsdivd, "--socket", str(socket_path), "--max-connections", "0"],
         ["--max-connections"], [socket_path], None),
    ]
    failures = []
    for command, flags, must_not_exist, usage in cases:
        failures += expect_usage_error(command, flags, work, must_not_exist, usage)
    return failures


def check_unusable_store(cli: str, work: pathlib.Path) -> List[str]:
    """A store the engine refuses is a shard's only output, so the shard
    must fail before computing anything; a cache-mode run goes on without
    it."""
    store = work / "foreign_store"
    store.mkdir()
    manifest_line = "icsdiv-store 999"
    (store / "MANIFEST").write_text(manifest_line + "\n")
    failures = []
    shard = run([cli, "batch", "--grid", grid_path("sweep_small"), "--shard", "0/2",
                 "--store", str(store)], work, timeout=60.0)
    output = (shard.stdout + shard.stderr).decode(errors="replace")
    if shard.returncode != INFEASIBLE:
        failures.append(f"shard over a foreign store: exit {shard.returncode}, "
                        f"expected {INFEASIBLE}")
    for text in (str(store), manifest_line):
        if text not in output:
            failures.append(f"shard over a foreign store: message does not name {text}")
    if "usage:" in output:
        failures.append("shard over a foreign store: usage text printed")
    objects = store / "objects"
    if objects.exists() and any(objects.iterdir()):
        failures.append("shard over a foreign store: wrote records into it")
    csv_path = work / "foreign_store.csv"
    cached = run([cli, "batch", "--grid", grid_path("sweep_small"), "--store", str(store),
                  "--report", "deterministic", "--csv", str(csv_path)], work, timeout=60.0)
    if cached.returncode != 0:
        failures.append(f"--report deterministic over a foreign store: exit {cached.returncode}")
    elif csv_path.read_bytes() != (GOLDENS / "sweep_small.csv").read_bytes():
        failures.append("--report deterministic over a foreign store: csv differs from golden")
    if (store / "MANIFEST").read_text() != manifest_line + "\n":
        failures.append("a foreign store's MANIFEST was rewritten")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="path to icsdiv_cli")
    parser.add_argument("--icsdivd", required=True, help="path to icsdivd")
    parser.add_argument("--examples", help="directory holding the built examples")
    parser.add_argument("--record", action="store_true", help="rewrite the goldens")
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="icsdiv-e2e-") as tmp:
        work = pathlib.Path(tmp)
        failures += check_reports(args.cli, work, args.record)
        if args.examples:
            failures += check_examples(pathlib.Path(args.examples), work, args.record)
        else:
            print("examples: skipped (not built)")
        if not args.record:
            failures += check_flags(args.cli, args.icsdivd, work)
            failures += check_unusable_store(args.cli, work)

    for failure in failures:
        print("FAIL:", failure)
    print(f"end_to_end: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
