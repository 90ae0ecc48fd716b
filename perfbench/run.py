#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

The perfbench binary (perfbench/src) is compiled together with the engine
sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) the first time, and incrementally afterwards. Build
output goes to stderr. The binary's report goes to stdout; its last line is
one JSON object with the keys correct, attempted, failed and metrics. That line is printed only
after checking that its metrics are exactly the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) listed in BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "serve_mixed", "ingest_restart")
# A run must finish within three minutes; leave room for this wrapper.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    env=env, cwd=ROOT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                fail(f"build step failed ({rc}): {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    if not os.path.isfile(os.path.join(ROOT, "src", "common", "status.h")):
        fail("engine sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    os.makedirs(build_root, exist_ok=True)
    binary = build(build_root)
    expected = expected_metrics(args.trace)

    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              env=dict(os.environ, PERFBENCH_OUT=spans_dir),
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):  # 1: ran, but an output was wrong
        fail(f"workload {args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the binary's last line is not a JSON object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}, units "
             f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    print(json.dumps(result))
    if proc.returncode != 0 or result["correct"] is not True:
        sys.exit(1)


if __name__ == "__main__":
    main()
