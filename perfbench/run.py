#!/usr/bin/env python3
"""Serving benchmark of sim::ServingWorld.

    python3 perfbench/run.py --workload serve-flood --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench_serve (and the qcp2p
libraries) under .bench_build/perfbench, runs the workload, checks the
serves agree, and prints one JSON object as the last stdout line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/LAYERS.md for what each metric should move.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import bench_lib

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_serve"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "sim" / "serving.hpp").is_file():
        fail(f"no qcp2p sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_serve",
         "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_bench(args):
    cmd = [str(BINARY), "--mode", "trace" if args.trace else "serve",
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += bench_lib.workload_flags(args.workload)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=False)
    if done.returncode != 0:
        fail(f"perfbench_serve exited with {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_lib.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    records = run_bench(args)
    engine = bench_lib.WORKLOADS[args.workload]["engine"]

    if args.trace:
        (layer,) = [r for r in records if r["kind"] == "layer"]
        problems = bench_lib.aggregate_mismatches(
            [layer["aggregate1"], layer["aggregate2"]])
        attempted = 2 * layer["aggregate1"]["stream_queries"]
        values = bench_lib.trace_metrics(layer, engine)
        table = bench_lib.PER_LAYER
    else:
        serves = [r for r in records if r["kind"] == "serve"]
        (pooled,) = [r for r in records if r["kind"] == "pooled"]
        worlds = bench_lib.WORKLOADS[args.workload]["worlds"]
        problems = bench_lib.world_mismatches(serves, worlds)
        attempted = sum(s["aggregate"]["stream_queries"] for s in serves)
        values = bench_lib.serve_metrics(serves, pooled, worlds)
        table = bench_lib.END_TO_END

    for p in problems:
        print(f"perfbench: MISMATCH {p}", file=sys.stderr)
    # A mismatch fails every query of the workload; found_rate never does.
    failed = attempted if problems else 0
    for name, (unit, _) in table.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps(bench_lib.result(values, table, attempted, failed)))


if __name__ == "__main__":
    main()
