#!/usr/bin/env python3
"""Steadiness check for the served-editor benchmark.

Runs two sets of runs of every workload (each run with its own --seed)
and prints, for every end-to-end metric, each set's median and
quartiles, the spread (interquartile distance as a share of the
median), and whether the two sets agree within the metric's bound from
BENCHMARK.json: every spread, set-up time's included, must be within
the bound, and the two medians must differ by at most the bound, in
either direction. It also checks that every run was correct and that
the share of failed operations is exactly the same in every run. Runs
last BENCHMARK.json's run_seconds.

    python3 servebench/steady.py [--runs N] [--workloads a,b] [--first-seed N]

Run from the repository root. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        shares = set()
        walls = []
        for _ in range(SETS):
            runs = []
            for _ in range(args.runs):
                result, wall = run_once(bench["command"], workload, seed, seconds)
                seed += 1
                walls.append(wall)
                if not result["correct"]:
                    print(f"{workload}: run with seed {seed - 1} is not correct")
                    ok = False
                shares.add(Fraction(result["failed"], result["attempted"]))
                runs.append(result["metrics"])
            sets.append(runs)
        print(f"\n== {workload}: {SETS} sets x {args.runs} runs, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f}s, "
              f"failed share {sorted(str(s) for s in shares)}")
        if len(shares) != 1:
            print("   failed share differs between runs")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for runs in sets:
                q1, q2, q3, spread = describe([r[name]["value"] for r in runs])
                medians.append(q2)
                cells.append(f"med {q2:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}")
                if spread > bound:
                    ok = False
            everything = [r[name]["value"] for runs in sets for r in runs]
            _, _, _, spread_all = describe(everything)
            cells.append(f"all {len(everything)}: spread {spread_all:.3f}")
            differ = abs(medians[1] - medians[0]) / medians[0]
            agree = differ <= bound
            ok = ok and agree
            print(f"   {name:20s} bound {bound:<5} | " + " | ".join(cells)
                  + f" | sets {'agree' if agree else 'DISAGREE'} ({differ:.3f})")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
