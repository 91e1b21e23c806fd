#!/usr/bin/env python3
"""Builds the benchmark from source, runs its self-tests, then one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload quad-mix --seed 1 --seconds 35 --trace 0

The build goes to .bench_build/perfbench (optimized, at most four compile
jobs). Build and test output goes to stderr, so the last line of stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes its spans as
Chrome trace-event JSON to .bench_build/trace-<workload>-<seed>.json.
Exits nonzero, without a result, if the library sources are missing, the
build or the self-tests fail, or the benchmark reports a failed operation.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def step(cmd):
    """Runs a build or test command with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def flag_value(args, flag):
    for i, a in enumerate(args):
        if a == flag and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
        return 2
    if step(["cmake", "--build", BUILD, "-j", jobs]):
        return 2
    if step([os.path.join(BUILD, "perfbench_tests"), "--gtest_brief=1"]):
        print("perfbench: self-tests failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if flag_value(args, "--trace") == "1" and flag_value(args, "--trace-out") is None:
        name = "trace-%s-%s.json" % (flag_value(args, "--workload"),
                                     flag_value(args, "--seed"))
        args += ["--trace-out", os.path.join(ROOT, ".bench_build", name)]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
