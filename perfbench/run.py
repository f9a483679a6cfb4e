#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|smoke]

Builds perfbench/ (CMake, Release) into .bench_build/perfbench under the
repository root, then runs the benchmark binary once per workload, each in
its own process.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--workload all` it
merges the per-workload objects, naming each metric `<workload>/<name>`.
Exits non-zero if the build fails or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ammb_perfbench")
SPEC = os.path.join(HERE, "specs", "fig1_standard.json")
WORKLOADS = ["bmmb-grey-checked", "fmmb-grey", "fig1-sweep"]


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        sys.exit("perfbench: library sources not found under " +
                 os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_workload(name, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--spec", SPEC]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    if args.workload != "all":
        code, lines = run_workload(args.workload, args)
        print("\n".join(lines), flush=True)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, lines = run_workload(name, args)
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][name + "/" + metric] = value
    print(json.dumps(merged), flush=True)
    return worst if worst != 0 or merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
