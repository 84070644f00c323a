#!/usr/bin/env python3
"""Build and run the repo benchmark (workloads, metrics: perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py
      --workload <acloud_replay|wireless_churn>
      --seed <n> --seconds <s> --trace <0|1> [--smoke]

The first call builds perfbench_driver (CMake, Release) under .bench_build/;
later calls only re-check the build. The driver's report goes to stdout and
its last line is the result JSON. Build output goes to stderr. Exits non-zero,
without a result line, when the build or the run fails or the result is
malformed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("acloud_replay", "wireless_churn")
BUILD_TIMEOUT_S = 840
# A run stops within --seconds once it has its minimum repetitions.
RUN_GRACE_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under the build tool included) and returns (None, None)."""
    p = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None, None
    return p.returncode, out


def build(root, env):
    """Configure (once) and build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no Cologne sources (CMakeLists.txt, src/) in " + root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        code, _ = call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if code is None:
            fail("build timed out: " + " ".join(cmd))
        if code != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and two repetitions (for the smoke test)")
    args = ap.parse_args()

    root = os.getcwd()
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(root, ".bench_build", "tmp")
    driver = build(root, env)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    code, out = call(cmd, args.seconds + RUN_GRACE_S, stdout=subprocess.PIPE,
                     env=env, text=True)
    if code is None:
        fail("driver timed out")
    if code != 0:
        # The driver prints its result line only on success.
        sys.stdout.write(out)
        fail("driver exited with code %d" % code)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
