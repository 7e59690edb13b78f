#!/usr/bin/env python3
"""Chaos smoke test for icsdivd: fault injection under concurrent load.

Runs the daemon twice over the wire protocol (raw length-prefixed JSON
frames, no icsdiv code on this side):

  1. a fault-free baseline run recording the canonical reply for every
     request in the mix, and
  2. a chaos run with ICSDIV_FAILPOINTS arming every injection site —
     socket read/write errors, cache-insert failures, compute delays,
     and scenario-stage faults — while several clients hammer the same
     request mix concurrently.

Assertions: the daemon never hangs or crashes, error replies are
well-formed envelopes, every *successful* reply is bit-identical to the
fault-free baseline (modulo timings), a frame of arrays nested past the
parser's depth limit gets a parse_error envelope from a daemon that
lives on, and SIGTERM still drains cleanly to exit 0 with the socket
file removed.

Usage: chaos_smoke.py ICSDIVD_BIN
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

PROTOCOL = 1
NESTED_FRAME_BYTES = 100_000  # of '[': far past the parser's 512 levels
CLIENTS = 4
ROUNDS = 6
CALL_TIMEOUT = 20.0
ATTEMPTS = 8

FAILPOINTS = ";".join(
    [
        "socket.read=error(0.05)",
        "socket.write=error(0.05)",
        "cache.insert=error(0.2)",
        "session.compute=delay(5,0.5)",
        "stage.workload=error(0.2)",
        "stage.solve=delay(10,0.5)",
    ]
)


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def tiny_documents():
    """A six-host deployment in the icsdiv catalog/network JSON schema."""
    catalog = {
        "format": "icsdiv-catalog",
        "services": [
            {
                "name": "WB",
                "products": ["wb1", "wb2", "wb3"],
                "similarity": [
                    {"a": "wb1", "b": "wb2", "value": 0.35},
                    {"a": "wb2", "b": "wb3", "value": 0.10},
                ],
            },
            {
                "name": "DB",
                "products": ["db1", "db2", "db3"],
                "similarity": [{"a": "db1", "b": "db2", "value": 0.20}],
            },
        ],
    }
    hosts = []
    for index in range(6):
        hosts.append(
            {
                "name": f"h{index}",
                "services": [
                    {"service": "WB", "candidates": ["wb1", "wb2", "wb3"]},
                    {"service": "DB", "candidates": ["db1", "db2", "db3"]},
                ],
            }
        )
    network = {
        "format": "icsdiv-network",
        "hosts": hosts,
        "links": [["h0", "h1"], ["h1", "h2"], ["h2", "h3"], ["h3", "h4"],
                  ["h4", "h5"], ["h5", "h0"], ["h1", "h4"]],
    }
    return catalog, network


def request_mix():
    """The request set both runs replay; keys name baseline entries."""
    catalog, network = tiny_documents()
    grid = {
        "name": "chaos",
        "hosts": [6],
        "degrees": [3],
        "services": [2],
        "products_per_service": [2],
        "solvers": ["icm"],
        "constraints": ["none"],
        "seeds": [1],
        "max_iterations": 10,
        "tolerance": 1e-6,
    }
    mix = {
        "version": {"icsdivd": PROTOCOL, "request": "version"},
        "optimize-icm": {
            "icsdivd": PROTOCOL,
            "request": "optimize",
            "catalog": catalog,
            "network": network,
            "solver": "icm",
        },
        "optimize-trws": {
            "icsdivd": PROTOCOL,
            "request": "optimize",
            "catalog": catalog,
            "network": network,
            "solver": "trws",
        },
        "batch": {"icsdivd": PROTOCOL, "request": "batch", "grid": grid, "threads": 1},
    }
    return mix


def strip_volatile(value):
    """Drop timing and concurrency keys that legitimately differ per run.

    The batch "csv" rendering embeds per-stage timings inside one string,
    so it is dropped wholesale; its stable content is compared through
    the structured "results" rows.
    """
    if isinstance(value, dict):
        return {
            key: strip_volatile(item)
            for key, item in value.items()
            if "seconds" not in key and key not in ("threads", "cached", "csv")
        }
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def call_once(socket_path, request):
    """One connect/request/reply exchange; any socket error propagates."""
    return call_payload(socket_path, json.dumps(request).encode())


def call_payload(socket_path, payload):
    """call_once for a frame payload given as bytes."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(CALL_TIMEOUT)
    try:
        sock.connect(socket_path)
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        data = b""
        while len(data) < 4:
            chunk = sock.recv(4 - len(data))
            if not chunk:
                raise ConnectionError("daemon closed the connection mid-reply")
            data += chunk
        (length,) = struct.unpack(">I", data)
        body = b""
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                raise ConnectionError("daemon closed the connection mid-reply")
            body += chunk
        return json.loads(body)
    finally:
        sock.close()


def call_tolerant(socket_path, request):
    """Retries through injected connection faults; never through hangs.

    Returns the last reply envelope (ok or error), or None when every
    attempt died on the transport.
    """
    reply = None
    for _ in range(ATTEMPTS):
        try:
            reply = call_once(socket_path, request)
        except (ConnectionError, socket.timeout, OSError):
            time.sleep(0.01)
            continue
        if reply.get("status") == "ok":
            return reply
        # An error envelope still proves the server survived: keep it,
        # but retry for a success (the fault draw differs per hit).
        expect("error" in reply, f"error reply without a body: {reply}")
        time.sleep(0.01)
    return reply


def start_daemon(icsdivd, socket_path, env=None):
    daemon = subprocess.Popen([icsdivd, "--socket", socket_path], env=env)
    deadline = time.time() + 10.0
    while not os.path.exists(socket_path):
        expect(daemon.poll() is None, "daemon exited before binding")
        expect(time.time() < deadline, "daemon never bound its socket")
        time.sleep(0.05)
    return daemon


def stop_daemon(daemon, socket_path):
    daemon.send_signal(signal.SIGTERM)
    expect(daemon.wait(timeout=30) == 0, f"daemon exited {daemon.returncode}")
    expect(not os.path.exists(socket_path), "daemon leaked its socket file")


def record_baseline(icsdivd, workdir):
    """Fault-free replies for every request in the mix, then the
    deeply nested frame."""
    socket_path = os.path.join(workdir, "baseline.sock")
    daemon = start_daemon(icsdivd, socket_path)
    try:
        baseline = {}
        for name, request in request_mix().items():
            reply = call_once(socket_path, request)
            expect(reply.get("status") == "ok", f"baseline {name} failed: {reply}")
            baseline[name] = strip_volatile(reply["result"])
        check_nested_frame(socket_path, daemon)
        return baseline
    finally:
        stop_daemon(daemon, socket_path)


def check_nested_frame(socket_path, daemon):
    """Nesting past the limit is a malformed payload, not a crash."""
    reply = call_payload(socket_path, b"[" * NESTED_FRAME_BYTES)
    expect(reply.get("status") == "parse_error", f"nested frame: {reply}")
    message = reply.get("error", {}).get("message", "")
    expect("nesting deeper than" in message, f"nested frame message: {message}")
    expect(daemon.poll() is None, f"daemon died on a nested frame: {daemon.returncode}")
    version = call_once(socket_path, {"icsdivd": PROTOCOL, "request": "version"})
    expect(version.get("status") == "ok", f"version after the nested frame: {version}")


def chaos_worker(socket_path, baseline, failures, mismatches, successes):
    for _ in range(ROUNDS):
        for name, request in request_mix().items():
            reply = call_tolerant(socket_path, request)
            if reply is None or reply.get("status") != "ok":
                failures.append(name)
                continue
            successes.append(name)
            result = strip_volatile(reply["result"])
            if name == "batch" and result.get("failed", 0) != 0:
                # Injected stage faults legitimately fail cells; such a
                # report cannot match the fault-free baseline.
                continue
            if result != baseline[name]:
                mismatches.append((name, result))


def run_chaos(icsdivd, workdir, baseline):
    socket_path = os.path.join(workdir, "chaos.sock")
    env = dict(os.environ)
    env["ICSDIV_FAILPOINTS"] = FAILPOINTS
    env["ICSDIV_FAILPOINTS_SEED"] = "1337"
    daemon = start_daemon(icsdivd, socket_path, env=env)
    failures, mismatches, successes = [], [], []
    try:
        workers = [
            threading.Thread(
                target=chaos_worker,
                args=(socket_path, baseline, failures, mismatches, successes),
            )
            for _ in range(CLIENTS)
        ]
        for worker in workers:
            worker.start()
        deadline = time.time() + 180.0
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.time()))
            expect(not worker.is_alive(), "chaos worker hung — daemon stopped answering")
        expect(daemon.poll() is None, f"daemon crashed under faults: {daemon.returncode}")
        expect(successes, "no request ever succeeded under injected faults")
        expect(not mismatches,
               f"successful replies diverged from the fault-free baseline: {mismatches[:2]}")
    finally:
        if daemon.poll() is None:
            stop_daemon(daemon, socket_path)  # SIGTERM drain must still exit 0
    return len(successes), len(failures)


def main() -> int:
    icsdivd = sys.argv[1]
    workdir = tempfile.mkdtemp(prefix="icsdivd_chaos_")
    baseline = record_baseline(icsdivd, workdir)
    succeeded, failed = run_chaos(icsdivd, workdir, baseline)
    print(f"chaos smoke ok: {succeeded} replies matched baseline, "
          f"{failed} calls lost to injected faults (sites: {FAILPOINTS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
