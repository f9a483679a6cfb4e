#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size.

    python3 perfbench/smoke_test.py

Runs `perfbench/run.py --workload all --size smoke` untraced and traced
at the default seed (where the pinned smoke fingerprints apply) and
untraced at another seed (solve and oracle checks only).  Each must exit
0, report `correct`, and print exactly the metrics BENCHMARK.json lists
for its trace mode, each with its unit.  Takes well under a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    failures = 0
    for seed, trace in [(1, 0), (1, 1), (7, 0)]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "all", "--size", "smoke", "--seconds", "0", "--seed",
               str(seed), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        listed = bench["per_layer" if trace else "end_to_end"]
        expected = {w + "/" + m["name"]: m["unit"]
                    for w in workloads for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        problems = []
        if proc.returncode != 0:
            problems.append("exit code %d" % proc.returncode)
        if not result["correct"] or result["failed"] != 0:
            problems.append("%d of %d runs failed" %
                            (result["failed"], result["attempted"]))
        if got != expected:
            problems.append("metrics differ from BENCHMARK.json: %s" %
                            sorted(set(got.items()) ^ set(expected.items())))
        label = "seed %d trace %d" % (seed, trace)
        print(("FAIL " if problems else "ok   ") + label, "; ".join(problems))
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
