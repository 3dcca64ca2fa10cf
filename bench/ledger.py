#!/usr/bin/env python3
"""Write BENCH_<date>.json, the repository's benchmark ledger, or compare two.

Usage, from the root of a scvad checkout:

    python3 bench/ledger.py
    python3 bench/ledger.py --compare OLD.json NEW.json
    python3 bench/ledger.py --paired REV [--workload W] [--pairs N] [--seed-base S]

Without options: runs every workload BENCHMARK.json declares through
perfbench/run.py at seed 1 for its run_seconds, once untraced (end-to-end
metrics) and once traced (per-layer metrics), then the bench/main.exe
micro-benchmarks in the release profile.  Writes {date, commit, env,
workloads: {name: {end_to_end, per_layer}}, micro} to the repository root
(a second ledger of the same date becomes BENCH_<date>-2.json, and so on;
none is overwritten);
each untraced result also keeps the per-run samples behind its medians
(setup_s: the three set-ups, total_s: the measured passes).  Exits non-zero
and writes nothing when a run fails or a result is not correct.

With --compare: prints, for every metric of the two ledgers, the median and
quartiles [q1, q3] of each side (over the recorded samples; a metric with one
value has q1 = q3 = median) and the relative change of the medians.  An
end-to-end metric whose median moved by more than its BENCHMARK.json bound is
flagged "WORSE" or "better"; the exit status is 1 when any metric is WORSE.

With --paired: measures the checkout against commit REV on the same host at
the same time.  REV is exported (git archive) into a temporary directory, and
each pair runs perfbench/run.py --trace 0 for run_seconds on both trees with
one fresh seed (S, S+1, ...), the side that runs first alternating from pair
to pair; each tree runs its own perfbench.  Prints, per workload (all of them
unless --workload) and end-to-end metric, each side's median [q1, q3] over the
pairs, the relative change of the medians, the pairs the checkout won and
whether the gap between the medians exceeds REV's interquartile range.  Give
an even number of pairs: on a shared host the second run of a pair can be
the slower one whatever its side, so each side should run first as often.  Exits
non-zero when any run fails or is not correct; the temporary tree is removed
either way.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# The fields of perfbench's env line that describe the host, not the run.
HOST_KEYS = ("hardware_threads", "recommended_domains", "nproc", "ocaml_version", "jobs")

# The env-line lists behind the end-to-end medians.
SAMPLE_KEYS = {"setup_s": "setup_s", "total_s": "pass_s"}


def run(cmd, cwd=None):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd)
    if out.returncode != 0:
        sys.exit("ledger: %s exited with code %d" % (" ".join(cmd), out.returncode))
    return out.stdout


def checked(name, result):
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        sys.exit("ledger: %s is not correct: %s" % (name, json.dumps(result)))
    return result


def perfbench(workload, seconds, trace, seed=1, cwd=None):
    lines = run(["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)], cwd=cwd).splitlines()
    env = json.loads(lines[-2])["env"]
    result = checked("%s --trace %d" % (workload, trace), json.loads(lines[-1]))
    if trace == 0:
        result["samples"] = {m: env[k] for m, k in SAMPLE_KEYS.items()}
    return {k: env[k] for k in HOST_KEYS}, result


def write_ledger():
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
    n = 1
    while os.path.exists(path):
        n += 1
        path = "BENCH_%s-%d.json" % (date, n)
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print("ledger: wrote %s" % path)


def metric_samples(ledger):
    """{(section, metric): [values]} of every numeric metric in a ledger."""
    out = {}
    for wname, w in ledger.get("workloads", {}).items():
        for mode in ("end_to_end", "per_layer"):
            result = w.get(mode, {})
            samples = result.get("samples", {})
            for name, m in result.get("metrics", {}).items():
                out[(wname, name)] = samples.get(name) or [m["value"]]

    def leaves(prefix, node):
        for k, v in node.items():
            if isinstance(v, dict):
                leaves(prefix + k + ".", v)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out[("micro", prefix + k)] = [v]

    leaves("", ledger.get("micro", {}))
    return out


def summary(values):
    """(median, q1, q3) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def compare(old_path, new_path):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    with open(old_path) as f:
        old = metric_samples(json.load(f))
    with open(new_path) as f:
        new = metric_samples(json.load(f))
    print("ledger: %s -> %s (median [q1, q3])" % (old_path, new_path))
    worse = 0
    for key in sorted(set(old) | set(new)):
        section, name = key
        if key not in old or key not in new:
            side = "new" if key not in old else "old"
            print("%-10s %-32s only in the %s ledger" % (section, name, side))
            continue
        om, oq1, oq3 = summary(old[key])
        nm, nq1, nq3 = summary(new[key])
        change = (nm - om) / abs(om) if om else (0.0 if nm == om else float("inf"))
        flag = ""
        bound = bounds.get(name)
        if section != "micro" and bound and abs(change) > bound["bound"]:
            got_worse = (change > 0) == lower_better[name]
            flag = "WORSE" if got_worse else "better"
            worse += got_worse
        print("%-10s %-32s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g] (%+.1f%%) %s"
              % (section, name, om, oq1, oq3, nm, nq1, nq3, 100 * change, flag))
    return 1 if worse else 0


def paired_workload(spec, workload, base_dir, pairs, seed_base):
    """Runs the pairs of one workload and prints its table."""
    sides = {"base": base_dir, "change": "."}
    values = {"base": [], "change": []}
    for i in range(pairs):
        seed = seed_base + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            _, result = perfbench(workload, spec["run_seconds"], 0, seed=seed, cwd=sides[side])
            values[side].append({k: m["value"] for k, m in result["metrics"].items()})
            print("paired: %s pair %d seed %d %s total_s %.4g"
                  % (workload, i + 1, seed, side, values[side][-1].get("total_s", float("nan"))),
                  file=sys.stderr)
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        base = [v[name] for v in values["base"]]
        change = [v[name] for v in values["change"]]
        bm, bq1, bq3 = summary(base)
        cm, cq1, cq3 = summary(change)
        rel = (cm - bm) / abs(bm) if bm else 0.0
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        beyond = abs(cm - bm) > bq3 - bq1
        print("%-10s %-12s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g] (%+.1f%%) won %d/%d, gap %s IQR"
              % (workload, name, bm, bq1, bq3, cm, cq1, cq3, 100 * rel, won, pairs,
                 ">" if beyond else "<="))
        sys.stdout.flush()


def paired(rev, workloads, pairs, seed_base):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        if w not in names:
            sys.exit("ledger: unknown workload %r" % w)
    commit = run(["git", "rev-parse", "--verify", rev + "^{commit}"]).strip()
    base_dir = tempfile.mkdtemp(prefix="ledger-paired-")
    try:
        archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", base_dir], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            sys.exit("ledger: could not export %s" % rev)
        print("ledger: %s (%s) -> %s, %d pairs, seeds %d-%d (median [q1, q3])"
              % (rev, commit[:12], run(["git", "describe", "--always", "--dirty"]).strip(),
                 pairs, seed_base, seed_base + pairs - 1))
        for w in workloads or names:
            paired_workload(spec, w, base_dir, pairs, seed_base)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two ledgers instead of writing one")
    ap.add_argument("--paired", metavar="REV",
                    help="run alternating pairs of REV and the checkout instead")
    ap.add_argument("--workload", action="append", default=[],
                    help="with --paired: only this workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10, help="with --paired: pairs per workload")
    ap.add_argument("--seed-base", type=int, default=1, help="with --paired: the first seed")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.paired:
        if args.pairs < 1:
            sys.exit("ledger: --pairs must be at least 1")
        paired(args.paired, args.workload, args.pairs, args.seed_base)
        return
    write_ledger()


if __name__ == "__main__":
    main()
