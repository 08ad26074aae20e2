#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the simulator sources
it compiles) into .bench_build/ with CMake, runs one workload in its own
process with a pinned host thread count, checks that the reported metrics
are exactly the ones BENCHMARK.json declares for the mode, and relays the
driver's output. The last line of standard output is the result JSON.
Build output goes to standard error. Exits non-zero, without a result, when
the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "swgmx_perfbench")
# Host threads for every run: pinned so runs compare, and no more than the
# machine has. On a 4-vCPU VM, 3 lanes left one vCPU for the OS and this
# script and cut the run-to-run range of pme_ranks8 host throughput from 10%
# to 6% (5 interleaved runs each).
MAX_THREADS = 3


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "swgmx_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    """Name -> unit for the mode, after checking that perfbench/metrics.json
    (clock, workloads, what each metric moves) declares the same metrics."""
    kind = "per_layer" if trace else "end_to_end"
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(os.path.dirname(__file__), "metrics.json"), encoding="utf-8") as f:
        catalogue = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(catalogue[kind]) != set(declared):
        sys.exit(f"run.py: perfbench/metrics.json and BENCHMARK.json disagree on {kind}: "
                 f"{sorted(set(catalogue[kind]) ^ set(declared))}")
    return declared


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = declared_metrics(args.trace == 1)
    build()
    out_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("SWGMX_THREADS", str(min(MAX_THREADS, os.cpu_count() or 1)))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: {' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(declared) - set(reported))}, "
                 f"undeclared {sorted(set(reported) - set(declared))}, "
                 f"unit mismatches {sorted(k for k in declared if k in reported and reported[k] != declared[k])}")
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        sys.exit(f"run.py: non-finite metrics {bad}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
