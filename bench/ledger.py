#!/usr/bin/env python3
"""Write BENCH_<date>.json, the repository's benchmark ledger.

Usage, from the root of a scvad checkout (takes no options):

    python3 bench/ledger.py

Runs every workload BENCHMARK.json declares through perfbench/run.py at
seed 1 for its run_seconds, once untraced (end-to-end metrics) and once
traced (per-layer metrics), then the bench/main.exe micro-benchmarks in
the release profile.  Writes {date, commit, env, workloads: {name:
{end_to_end, per_layer}}, micro} to the repository root.  Exits non-zero
and writes nothing when a run fails or a result is not correct.
"""

import datetime
import json
import subprocess
import sys

# The fields of perfbench's env line that describe the host, not the run.
HOST_KEYS = ("hardware_threads", "recommended_domains", "nproc", "ocaml_version", "jobs")


def run(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("ledger: %s exited with code %d" % (" ".join(cmd), out.returncode))
    return out.stdout


def checked(name, result):
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        sys.exit("ledger: %s is not correct: %s" % (name, json.dumps(result)))
    return result


def perfbench(workload, seconds, trace):
    lines = run(["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)]).splitlines()
    env = json.loads(lines[-2])["env"]
    result = checked("%s --trace %d" % (workload, trace), json.loads(lines[-1]))
    return {k: env[k] for k in HOST_KEYS}, result


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    env, workloads = None, {}
    for w in spec["workloads"]:
        env, end_to_end = perfbench(w["name"], spec["run_seconds"], 0)
        _, per_layer = perfbench(w["name"], spec["run_seconds"], 1)
        workloads[w["name"]] = {"end_to_end": end_to_end, "per_layer": per_layer}
    micro = checked("bench/main.exe",
                    json.loads(run(["dune", "exec", "--root", ".", "--profile", "release",
                                    "bench/main.exe"])))
    date = datetime.date.today().isoformat()
    ledger = {
        "date": date,
        "commit": run(["git", "describe", "--always", "--dirty"]).strip(),
        "env": dict(env, seed=1, seconds=spec["run_seconds"]),
        "workloads": workloads,
        "micro": micro,
    }
    path = "BENCH_%s.json" % date
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print("ledger: wrote %s" % path)


if __name__ == "__main__":
    main()
