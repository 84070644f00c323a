#!/usr/bin/env python3
"""A/B the repo benchmark between two git revisions, with interleaved runs.

Run from the repository root:

  python3 scripts/bench_ab.py --base <rev> [--head <rev>]
      [--workload NAME ...] [--seed N ...] [--pairs N] [--seconds S]
      [--trace 0|1] [--workdir DIR]

Each revision is exported with `git archive` into its own directory and built
once by its own perfbench/run.py. Then, for every workload and seed, --pairs
pairs of runs follow each other, base first in even pairs and head first in
odd ones, so drift on the machine hits both sides alike. For each metric the
script prints the median of each side, the head/base ratio of the medians,
the interquartile range of the base runs and the number of pairs the head
won (ties count for neither side). An end-to-end metric of BENCHMARK.json
whose head median is worse than the base median is flagged WORSE.

To measure uncommitted tracked changes, pass `--head $(git stash create)`.
Exits 1 when a build or a run fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def export(rev, dest):
    """Writes the tree of `rev` to `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], stdout=subprocess.PIPE,
                             check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run(checkout, workload, seed, seconds, trace, smoke=False):
    """One perfbench/run.py call inside `checkout`; returns its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("bench_ab: run failed in %s: %s" % (checkout, " ".join(cmd)))
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def report(title, runs, better, end_to_end):
    """Prints one workload/seed table; returns the end-to-end metrics whose
    head median is worse than the base median."""
    print("\n== %s (%d pairs)" % (title, len(runs["base"])))
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print("%s: %d/%d operations failed" % (side, failed, attempted))
    print("%-30s %12s %12s %9s %10s %6s" %
          ("metric", "base", "head", "head/base", "base IQR", "wins"))
    worse = []
    for name in sorted(runs["base"][0]["metrics"]):
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        mb, mh = statistics.median(base), statistics.median(head)
        ratio = "%9.3f" % (mh / mb) if mb else "%9s" % "-"
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for b, h in zip(base, head)
                   if (h < b if lower else h > b))
        flag = ""
        if name in end_to_end and (mh > mb if lower else mh < mb):
            flag = "  WORSE"
            worse.append(name)
        print("%-30s %12.6g %12.6g %s %10.4g %3d/%-2d%s" %
              (name, mb, mh, ratio, iqr(base), wins, len(base), flag))
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--head", default="HEAD", help="git revision to measure")
    ap.add_argument("--workload", nargs="+",
                    help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir",
                    help="export and build here and keep it (default: a "
                         "temporary directory, removed at the end)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_ab_")
    checkouts = {"base": os.path.join(workdir, "base"),
                 "head": os.path.join(workdir, "head")}
    try:
        for side, rev in (("base", args.base), ("head", args.head)):
            if not os.path.isdir(checkouts[side]):
                export(rev, checkouts[side])
            print("building %s (%s)" % (side, rev), file=sys.stderr)
            run(checkouts[side], workloads[0], 1, 1, 0, smoke=True)
        flagged = []
        for workload in workloads:
            for seed in args.seed:
                runs = {"base": [], "head": []}
                for i in range(args.pairs):
                    order = ("base", "head") if i % 2 == 0 else ("head", "base")
                    for side in order:
                        runs[side].append(run(checkouts[side], workload, seed,
                                              seconds, args.trace))
                    print("%s seed %d: pair %d/%d done" %
                          (workload, seed, i + 1, args.pairs), file=sys.stderr)
                title = "%s seed %d, %g s, trace %d" % (
                    workload, seed, seconds, args.trace)
                flagged += ["%s seed %d: %s" % (workload, seed, m)
                            for m in report(title, runs, better, end_to_end)]
        print("\nend-to-end metrics worse at head: %s" %
              (", ".join(flagged) if flagged else "none"))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
