#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload
in its own process, checks its outputs, and prints the metrics.

    python3 perfbench/run.py --workload incast_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "dibs")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
WORKLOADS = ("incast_sweep", "extreme_qps", "pfabric_incast")
# The workload binary refuses to run past this; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def sh(cmd):
    # Build output goes to stderr so stdout stays the metrics.
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at " + ROOT + "; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", LIB_BUILD])
    sh(["cmake", "--build", LIB_BUILD, "-j", jobs, "--target", "dibs_exp", "dibs_harness"])
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BENCH_BUILD, "-DDIBS_BUILD=" + LIB_BUILD])
    sh(["cmake", "--build", BENCH_BUILD, "-j", jobs])


def check(result, recorded, trace):
    """Returns (correct, failed) for the workload binary's result."""
    problems = []
    if result["check_digest"] != recorded.get("check"):
        problems.append("check block digest %s, recorded %s"
                        % (result["check_digest"], recorded.get("check")))
    key = "seed%dx%d" % (result["seed"], result["blocks"])
    if key in recorded and result["digest"] != recorded[key]:
        problems.append("%s digest %s, recorded %s" % (key, result["digest"], recorded[key]))
    if trace and not result["traced_match"]:
        problems.append("a traced block's digest differs from its untraced run")
    for err in result["errors"]:
        problems.append("cell failed: " + err)
    for p in problems:
        log(p)
    failed = result["failed"]
    if any("digest" in p for p in problems):
        failed = result["attempted"]  # outputs changed: no cell counts as correct
    return not problems and failed == 0, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BENCH_BUILD, "perfbench_test")]).returncode

    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)[args.workload]
    cmd = [os.path.join(BENCH_BUILD, "perfbench_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(BUILD, "spans_%s_seed%d.jsonl"
                                            % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("workload exited with code %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    log("digests: check %s, seed%dx%d %s"
        % (result["check_digest"], args.seed, result["blocks"], result["digest"]))
    correct, failed = check(result, recorded, args.trace)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
