#!/usr/bin/env python3
"""Builds prague_bench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), configured Release on first use. The binary's
human-readable lines are passed through; the last line printed is one JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Every record
is also appended to <build dir>/results.jsonl, and a traced run's spans go
to <build dir>/trace-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no sources at %s/src; run from a full checkout" % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "prague_bench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "prague_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("run.py: build failed: %s" % err)
        sys.exit(2)

    data_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--out=" + os.path.join(build_dir, "results.jsonl"),
           "--data-dir=" + data_dir]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: prague_bench exceeded %d s" % BINARY_TIMEOUT_S)
        sys.exit(1)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    record = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"header"'):
            record = json.loads(line)
        else:
            print(line)
    if record is None:
        log("run.py: prague_bench exited %d without a result" % proc.returncode)
        sys.exit(1)
    result = {
        "correct": bool(record["correct"]) and proc.returncode == 0,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": record["per_layer"] if args.trace else record["metrics"],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
