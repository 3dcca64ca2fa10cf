#!/usr/bin/env python3
"""Run one workload of the scvad benchmark and print its result.

Usage, from the root of a scvad checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark executable from source with dune (release profile),
runs the workload in its own process, checks that the result names every
metric BENCHMARK.json declares for the mode (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1) and prints two lines: the
environment the numbers were taken on, then the result object.  Exits
non-zero, printing no result, when the build, the run or the check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/src/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "src", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def check_result(result, declared):
    """Problems with a result object, given {name: unit} of the mode."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("no operation attempted")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append("metrics missing %s, undeclared %s" % (missing, extra))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        if name in declared and m.get("unit") != declared[name]:
            problems.append("%s has unit %r, declared %r" % (name, m.get("unit"), declared[name]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a scvad checkout (no dune-project or lib/ here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    dune = dune_command()
    if dune is None:
        return fail("dune is not on PATH")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        return fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    if run.returncode != 0:
        return fail("workload %s exited with code %d" % (args.workload, run.returncode))
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        return fail("workload printed no result")
    try:
        env = json.loads(lines[-2])["env"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        return fail("unreadable workload output: %s" % e)
    problems = check_result(result, declared)
    if problems:
        return fail("; ".join(problems))

    env["nproc"] = len(os.sched_getaffinity(0))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
