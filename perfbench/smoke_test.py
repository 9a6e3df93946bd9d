#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself.

Runs every workload in --smoke mode (PF q=7, short windows; seconds in
total), timing and traced, and checks that:
  - the last stdout line is the result object with exactly the metrics
    BENCHMARK.json names for that mode, each with its unit;
  - every run is correct with zero failed operations;
  - two runs with one seed print the same simulated-statistics digest,
    and another seed prints a different one.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        digests = {}
        for trace, seed in ((0, 1), (1, 1), (0, 2)):
            result, digest = run(workload, seed, trace)
            digests.setdefault(seed, set()).add(digest)
            where = "%s trace=%d seed=%d" % (workload, trace, seed)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(where + ": result keys " + str(sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(where + ": not correct or failed operations")
            if result["attempted"] < 1:
                problems.append(where + ": nothing attempted")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json")
        if len(digests[1]) != 1:
            problems.append(workload + ": seed 1 digests differ " +
                            str(digests[1]))
        if digests[1] == digests[2]:
            problems.append(workload + ": seeds 1 and 2 share a digest")
        print("ok" if not problems else "FAIL", workload, flush=True)
    for p in problems:
        print("problem:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
