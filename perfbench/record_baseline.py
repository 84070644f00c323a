#!/usr/bin/env python3
"""Record the benchmark's numbers for the checked-out commit.

Run from the repository root:

  python3 perfbench/record_baseline.py --out perfbench/baseline/<name>.json

Runs every workload of BENCHMARK.json on the default seed 1 and the held-out
seed 2, once untraced (end-to-end metrics) and once traced (per-layer
metrics), each for BENCHMARK.json's run_seconds, and writes one JSON file. A
change that claims a gain measures its parent and itself with the same
settings; this file is the checked-in trajectory, not the claim.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2)


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("run failed: %s seed %d trace %d" % (workload, seed, trace))
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    out = {
        "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count() or 0),
        "run_seconds": seconds,
        "seeds": {},
    }
    for seed in SEEDS:
        per_workload = {}
        for w in spec["workloads"]:
            e2e = run(w["name"], seed, seconds, 0)
            layers = run(w["name"], seed, seconds, 1)
            per_workload[w["name"]] = {
                "correct": e2e["correct"] and layers["correct"],
                "attempted": e2e["attempted"],
                "failed": e2e["failed"] + layers["failed"],
                "end_to_end": {k: v["value"]
                               for k, v in e2e["metrics"].items()},
                "per_layer": {k: v["value"]
                              for k, v in layers["metrics"].items()},
            }
            print("seed %d %-16s done" % (seed, w["name"]), file=sys.stderr)
        out["seeds"][str(seed)] = per_workload
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
