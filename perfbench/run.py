#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload races-perf --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, Release); build output goes to standard error so that the last line
of standard output is the benchmark's JSON result. All arguments are passed
to the benchmark binary (see perfbench.cpp for the full list).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tdr sources (src/) next to perfbench/; "
                 "run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr.fileno()).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
