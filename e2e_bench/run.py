#!/usr/bin/env python3
"""Builds s2fa_benchmark from this checkout's sources, then runs it.

    python3 e2e_bench/run.py --workload explore8 --seed 1 --seconds 15 --trace 0
    python3 e2e_bench/run.py --quick                  # every workload, small
    python3 e2e_bench/run.py compare A.json B.json

Run it from the repository root. Every argument goes to s2fa_benchmark
(see main.cc). The build lives in .bench_build/ and is configured once;
later runs rebuild only what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's own JSON result. Without the
repository's src/ there is nothing to build, and the script exits with 1.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_to_stderr(argv):
    """Runs argv with its stdout sent to our stderr; exits on failure."""
    if subprocess.run(argv, stdout=sys.stderr).returncode != 0:
        sys.exit(1)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no S2FA sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_to_stderr(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_to_stderr(["cmake", "--build", BUILD, "--target", "s2fa_benchmark",
                   "-j", jobs])
    binary = os.path.join(BUILD, "s2fa_benchmark")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
