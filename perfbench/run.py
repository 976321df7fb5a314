#!/usr/bin/env python3
"""Builds the serving-stack benchmark if needed, then runs it.

    python3 perfbench/run.py --workload checkout --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs only rebuild what changed. Durable files of a run live under
.bench_build/data and are removed when it ends. The last line of
standard output is the run's JSON result; build output goes to
standard error. Exits nonzero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ beside perfbench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    data = os.path.join(BUILD_ROOT, "data")
    os.makedirs(data, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:] + ["--data-dir", data],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
