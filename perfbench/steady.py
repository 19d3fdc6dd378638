#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared per metric.

    python3 perfbench/steady.py [--runs 10] [--workloads serve-write,bulk]
                                [--seconds S]

Run from the root of a checkout. For each workload, set A runs on seeds
1..N and set B on seeds N+1..2N, each run through BENCHMARK.json's command.
For every end-to-end metric it prints both medians and each set's spread
(the distance between the first and third quartile as a share of the
median), then whether each spread is within the metric's bound (setup_s is
exempt) and whether B's median is no worse than A's by more than the bound.
It also checks that the share of failed operations is the same in both sets.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for base in (1, args.runs + 1):
            sets.append([run_once(spec, workload, seed, args.seconds, 0)
                         for seed in range(base, base + args.runs)])
        print(f"== {workload}: {args.runs} runs per set, {args.seconds:g} s each")
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append(failed / attempted if attempted else 1.0)
            if not all(r["correct"] for r in runs):
                print("  FAIL  a run reported wrong results")
                ok = False
        same_share = shares[0] == shares[1]
        ok &= same_share
        print(f"  {'ok  ' if same_share else 'FAIL'}  failed share {shares[0]:.6f} / "
              f"{shares[1]:.6f}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            med_a, spread_a = spread(a)
            med_b, spread_b = spread(b)
            change = worse_by(med_a, med_b, metric["better"])
            spread_ok = name == "setup_s" or (spread_a <= bound and spread_b <= bound)
            median_ok = change <= bound
            ok &= spread_ok and median_ok
            print(f"  {'ok  ' if spread_ok and median_ok else 'FAIL'}  {name:16s} "
                  f"median {med_a:12.5g} -> {med_b:12.5g} {metric['unit']:12s} "
                  f"worse by {change:+.3f} (bound {bound}); spread {spread_a:.3f} / "
                  f"{spread_b:.3f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
