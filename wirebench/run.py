#!/usr/bin/env python3
"""Builds the wire-to-key benchmark from source and runs one workload.

Usage (from the repository root):
  python3 wirebench/run.py --workload explain_live --seed 1 --seconds 20 --trace 0

The serving libraries are compiled from ../src into .bench_build/ (an
incremental no-op after the first run). The benchmark binary's output is
passed through; its last stdout line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "wirebench")
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "proxy.h")):
        print("wirebench: no serving sources next to the benchmark "
              "(expected src/serving/proxy.h)", file=sys.stderr)
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("wirebench: build failed", file=sys.stderr)
            return 2
    binary = os.path.join(BUILD, "wirebench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wirebench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
