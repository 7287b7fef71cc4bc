#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each metric's
median and spread (the distance between the first and third quartile,
as a share of the median), the figures BENCHMARK.json's bounds are set
against. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads enum-serial,...]

Each run's JSON result is appended to .bench_results/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_results", exist_ok=True)
    log = open(os.path.join(".bench_results", "spread.jsonl"), "a")

    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - start)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "wall_s": walls[-1], "result": result}) + "\n")
            log.flush()
            if not result["correct"]:
                print("%s seed %d: incorrect" % (workload, seed))
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, failed share %s, wall %.1f-%.1f s" % (
            workload, args.runs, sorted(shares), min(walls), max(walls)))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            print("  %-32s median %14.6g  spread %6.3f  min %12.6g  max %12.6g"
                  "  %s" % (name, med, spread, min(vals), max(vals), flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
