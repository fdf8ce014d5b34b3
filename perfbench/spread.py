#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py                      # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads sort-file --seeds 1-5
    python3 perfbench/spread.py --held-out           # seeds 9001-9010
    python3 perfbench/spread.py --trace 1 --seeds 1-2

Run from the repository root.  For each workload and metric it prints the
median over the seeds, the first and third quartiles (statistics.quantiles
with n=4) and their distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  Seeds 1-10 are the development seeds; seeds
9001-9010 are held out, so that a claimed change can be re-checked on inputs
that were not used while it was written.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

HELD_OUT = list(range(9001, 9011))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--held-out", action="store_true", help="use seeds 9001-9010")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = HELD_OUT if args.held_out else args.seeds
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    worst = 0.0
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            result, elapsed = run_once(bench, workload, seed, seconds, args.trace)
            walls.append(elapsed)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{workload}: {len(seeds)} seeds, process wall "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if m["name"] != "setup_s":
                    worst = max(worst, spread / bound)
                flag = "" if spread <= bound / 3 else "  > bound/3"
            print(f"  {m['name']:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.trace == 0:
        print(f"\nlargest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
