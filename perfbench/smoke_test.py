#!/usr/bin/env python3
"""Smoke test of the repo benchmark: every workload at its tiny smoke size,
untraced and traced, through perfbench/run.py.

Run from the repository root:  python3 perfbench/smoke_test.py

Checks that each run exits 0, that its result line is well formed, that all
correctness checks passed, and that the metric names and units are exactly
the ones BENCHMARK.json declares for the mode.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (workload["name"], trace)
            before = len(failures)
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True, timeout=900)
            if r.returncode != 0:
                failures.append("%s: exit code %d" % (name, r.returncode))
                continue
            result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: %d of %d COPs failed" %
                                (name, result["failed"], result["attempted"]))
            if result["attempted"] < 1:
                failures.append("%s: no COP attempted" % name)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append("%s: metrics %s, expected %s" % (
                    name, sorted(got.items()), sorted(want.items())))
            ok = len(failures) == before
            print("%-32s %s" % (name, "ok" if ok else "FAIL"))
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
