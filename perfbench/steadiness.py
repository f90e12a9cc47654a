#!/usr/bin/env python3
"""Steadiness report: two sets of runs of one build, per metric and workload.

    python3 perfbench/steadiness.py

Two sets of ten runs of every workload in BENCHMARK.json, end-to-end
metrics only, one seed per run: set 1 uses seeds 1-10, set 2 seeds
101-110. For every metric it prints, per set, the median, the first and
third quartile (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median; then how far set 2's median moved from set 1's. The declared bound
of each end-to-end metric (BENCHMARK.json) is printed beside it: a spread
at or under a third of the bound is steady; setup_s is exempt from the
spread check but not from the median check. Timings are also reported
unscaled, as "<name> (raw)" rows (see NOTES.md, "Load model"). Results
are appended to .bench_build/perfbench/steadiness.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASES = (1, 101)  # one per set


def run_once(workload, seed, seconds):
    """Returns the result object and the raw (unscaled) timings that the
    human-readable table prints as "raw <value>"."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (done.returncode,
                                                      " ".join(cmd)))
    raw = {}
    for line in lines[:-1]:
        fields = line.split()
        if "raw" in fields[:-1]:
            raw[fields[0]] = float(fields[fields.index("raw") + 1])
    return json.loads(lines[-1]), raw


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    log_path = os.path.join(ROOT, ".bench_build", "perfbench",
                            "steadiness.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    # results[set][workload][metric] = [values...]
    results = []
    for s, base in enumerate(SEED_BASES):
        per_set = {}
        for w in workloads:
            per_set[w] = {}
            for seed in range(base, base + RUNS):
                out, raw = run_once(w, seed, seconds)
                with open(log_path, "a") as log:
                    log.write(json.dumps({"set": s, "workload": w,
                                          "seed": seed, "result": out,
                                          "raw": raw}) + "\n")
                if not out["correct"] or out["failed"]:
                    raise SystemExit("incorrect run: %s seed %d" % (w, seed))
                for name, m in out["metrics"].items():
                    per_set[w].setdefault(name, []).append(m["value"])
                for name, value in raw.items():
                    per_set[w].setdefault(name + " (raw)", []).append(value)
                print("set %d %s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr, flush=True)
        results.append(per_set)

    header = "%-12s %-36s %4s %14s %14s %14s %8s %8s %9s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "bound", "vs set 1")
    print(header)
    print("-" * len(header))
    for w in workloads:
        for name in results[0][w]:
            base = None
            for s, per_set in enumerate(results):
                med, q1, q3, spread = summary(per_set[w][name])
                if base is None:
                    base = med
                moved = (med - base) / base if base else 0.0
                bound = bounds.get(name)
                print("%-12s %-36s %4d %14.6g %14.6g %14.6g %8.4f %8s %+9.4f" % (
                    w, name, s + 1, med, q1, q3, spread,
                    "-" if bound is None else "%.3f" % bound, moved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
