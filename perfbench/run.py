#!/usr/bin/env python3
"""Exploration benchmark for MCFS.

Builds perfbench/ (which compiles the MCFS libraries from ../src) and runs
one workload:

    python3 perfbench/run.py --workload verifs-small --seed 7 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics from one process that runs only
this workload: it warms up, times repeated Mcfs::Create calls, then runs
rounds of the workload's DFS probes for about --seconds seconds.

--trace 1 reports the per-layer metrics from one round in which every
probe runs untraced, traced (the engine wrapped in a timing mc::System)
and replayed (the split of ApplyAction). The first probe's spans are
written as Chrome trace-event JSON under the build directory.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metric names and units are defined once, in BENCHMARK.json at the root.
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the benchmark's build directory when set;
    # relative paths are taken from the checkout root (the working
    # directory the benchmark is run from).
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds incrementally; returns the binary path."""
    tree = os.path.join(build_dir(), "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", tree,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", tree, "--target", "mcfs_perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(tree, "mcfs_perfbench")


def run_mode(binary, mode, args, extra=(), timeout=170):
    """Runs one benchmark process; returns its JSON line, or None."""
    cmd = [binary, mode, "--workload", args.workload,
           "--seed", str(args.seed)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{mode}: timed out after {timeout} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{mode}: exited with {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    for error in result["errors"]:
        log(f"{mode}: {error}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(BENCHMARK_JSON) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    if args.trace == 0:
        result = run_mode(binary, "e2e", args,
                          ["--seconds", repr(args.seconds)])
        metrics = benchmark["end_to_end"]
    else:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir,
                             f"{args.workload}-seed{args.seed}.json")
        result = run_mode(binary, "trace", args, ["--spans", spans])
        metrics = benchmark["per_layer"]
    if result is None:
        return 1

    measured = result["metrics"]
    missing = [m["name"] for m in metrics if m["name"] not in measured]
    if missing:
        log(f"metrics missing: {missing}")
        return 1
    log(" ".join(f"{k}={v:g}" for k, v in sorted(measured.items())))

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
