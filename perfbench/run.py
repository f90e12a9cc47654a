#!/usr/bin/env python3
"""Builds and runs the xmlsel serving benchmark.

    python3 perfbench/run.py --workload <serve-star|serve-exact|update-mix> \
        --seed <n> --seconds <s> --trace <0|1> [--short]

Run from the root of a source checkout. The first call configures and
builds the library (from src/) and the benchmark binary into
.bench_build/perfbench (Release); later calls rebuild incrementally.
Build output goes to stderr. The benchmark binary's stdout is passed
through: its last line is the JSON result. The exit code is the binary's
(non-zero on any failed operation), or 2 when the sources or the build
are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no xmlsel sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print("perfbench: cannot run %s: %s" % (cmd[0], e),
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main(argv):
    if not build():
        return 2
    cmd = [BINARY] + argv + ["--dir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
