#!/usr/bin/env python3
"""Builds and runs the SUDAF end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <explore|scan|serve|append> \
        --seed <n> --seconds <s> --trace <0|1>

The library (src/) and the benchmark program are compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the current directory; later
runs rebuild incrementally. Build output goes to stderr. The last line on
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "scan", "serve", "append")


def build(build_dir):
    """Configures and builds the benchmark program; returns its path or None."""
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "sudaf_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except OSError as err:  # cmake missing
        print("build failed: %s" % err, file=sys.stderr)
        return 1
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("benchmark exited with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
