#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload serve-write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. With --trace 1
the spans are written to <build dir>/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-write", "bulk")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        print("run.py: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="test the benchmark's own output checks")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
