#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload link_replan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench in Release mode; only the first call compiles.
All arguments are passed on to the perfbench binary, whose last line of
standard output is the JSON result.  Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--parallel", str(jobs())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
