#!/usr/bin/env python3
"""Builds the spb benchmark from source (CMake, Release) and runs it.

    python3 spbbench/run.py --workload sim_batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to .bench_build/spbbench
under that root; the first run configures and compiles (a few minutes),
later runs only re-check the build.  Build output goes to stderr, so the
last line on stdout is the benchmark's result object.  Any other arguments
(--selftest, --list-metrics, --print-pins N) are passed to the binary.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "spbbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("spbbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("spbbench: no spb sources at %s/src\n" % ROOT)
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "spbbench",
               "-j", jobs])
    return BUILD / "spbbench"


def main():
    binary = build()
    proc = subprocess.Popen([str(binary)] + sys.argv[1:])
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
