#!/usr/bin/env python3
"""End-to-end benchmark of the CSCE library.

Run from the repository root:

    python3 perfbench/run.py --workload enum-serial --seed 1 --seconds 30 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds.

Builds perfbench (a CMake project over ../src) into .bench_build, writes
the workload's generated inputs into a scratch directory under
.bench_work, runs the measurement in a fresh process and prints its JSON
result as the last line of stdout. --trace 1 makes the traced run: it
prints the per-layer metrics instead of the end-to-end ones and writes
the spans to .bench_traces/<workload>-seed<N>.json.

Other entry points:
    python3 perfbench/run.py --selftest   # every check fires on a wrong count
    python3 perfbench/run.py --oracle     # rebuild perfbench/queries.tsv
    python3 perfbench/run.py --info       # machine fingerprint
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("enum-serial", "enum-parallel", "session-mix")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd):
    """Runs cmd to completion with stdout sent to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if call(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    if call(["cmake", "--build", build_dir, "-j", jobs,
             "--target", "perfbench"]) != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run_seconds():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--info", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    table = os.path.join(BENCH_DIR, "queries.tsv")
    build_dir = os.path.join(root, ".bench_build")
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1

    if args.selftest:
        return call([binary, "selftest"])
    if args.oracle:
        return call([binary, "oracle", "--out=" + table])
    if args.info:
        return call([binary, "info"])
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else run_seconds()

    work = os.path.join(root, ".bench_work",
                        "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        common = ["--workload=" + args.workload, "--table=" + table,
                  "--dir=" + work]
        if call([binary, "gen"] + common) != 0:
            log("perfbench: input generation failed")
            return 1
        cmd = [binary, "run"] + common + [
            "--seed=%d" % args.seed, "--seconds=%g" % seconds,
            "--trace=%d" % args.trace]
        if args.trace:
            cmd.append("--trace-out=" + os.path.join(
                root, ".bench_traces",
                "%s-seed%d.json" % (args.workload, args.seed)))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench: run failed (exit %d)" % proc.returncode)
            return 1
        print(lines[-1], flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
