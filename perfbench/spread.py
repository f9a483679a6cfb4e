#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10]
                                [--first-seed 101] [--out results.json]

Runs `perfbench/run.py --trace 0` once per seed on each workload (in
turn, one process at a time), then prints each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) next to the bound BENCHMARK.json
fixes for it.  A spread wider than a third of its bound is flagged:
the benchmark is meant to stay below that.  `--out` keeps every run's
result so two sets can be compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = {}
    flagged = 0
    for name in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit("%s seed %d: wrong output (exit %d)" %
                         (name, seed, proc.returncode))
            runs.append(result)
        results[name] = runs
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = spread > metric["bound"] / 3
            flagged += flag
            print("%-18s %-12s median %-12.6g spread %.4f  bound %.2f%s" %
                  (name, metric["name"], med, spread, metric["bound"],
                   "  WIDER THAN BOUND/3" if flag else ""), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
