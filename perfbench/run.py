#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
harness and the library sources under .bench_build/perfbench (Release,
3 compile jobs); later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result JSON.
Every call first runs the harness's own helper tests (perfbench_selftest).
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build() -> None:
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "-j", "3"])


def main() -> None:
    build()
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        sys.exit("perfbench: helper self-test failed")
    if sys.argv[1:] == ["--selftest"]:
        return
    sys.stdout.flush()
    binary = os.path.join(BUILD_DIR, "perfbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
