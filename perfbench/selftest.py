#!/usr/bin/env python3
"""Short-mode self-test of the benchmark (seconds per workload).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
--short (smaller document, fewer requests) and --seconds 1, and checks:
the run exits 0; the last stdout line is the result object with exactly
the keys correct/attempted/failed/metrics; every operation was correct;
the metric names and units are exactly the declared end-to-end (untraced)
or per-layer (traced) set; every value is a finite number; and the
serving reader fast path took no lock. Exits non-zero on any failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--short"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    problems = []
    if done.returncode != 0:
        problems.append("exit code %d" % done.returncode)
    if not lines:
        return problems + ["no output"]
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return problems + ["last line is not JSON"]
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(out))
        return problems
    if out["correct"] is not True or out["failed"] != 0:
        problems.append("correct=%s failed=%s" % (out["correct"],
                                                  out["failed"]))
    if not isinstance(out["attempted"], int) or out["attempted"] < 1:
        problems.append("attempted=%r" % out["attempted"])
    metrics = out["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append("missing %s, undeclared %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        if name in want and m.get("unit") != want[name]:
            problems.append("%s unit %r, declared %r" % (name, m.get("unit"),
                                                         want[name]))
    locks = metrics.get("serving.reader_locks", {}).get("value", 0)
    if locks != 0:
        problems.append("serving.reader_locks = %r" % locks)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            problems = check(w["name"], trace, declared)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-12s trace=%d %s" % (w["name"], trace, status), flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
