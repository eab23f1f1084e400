#!/usr/bin/env python3
"""Builds mcf0 and the mcf0_bench harness from this checkout, then runs it.

usage (from the root of a checkout):
  python3 bench/mcf0_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/mcf0_bench/run.py --smoke

The build goes to .bench_build/cmake (Release); the first run configures
and compiles, later runs only check that the build is current. Build
output goes to stderr, so stdout carries only the harness's metric lines
and its final JSON line. Results land in .bench_build/bench_result.json
and, for traced runs, .bench_build/bench_trace.json.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")


def build():
    """Configures once, then brings the build up to date. True on success."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs,
                   "--target", "mcf0_bench"]
    return subprocess.call(compile_cmd, stdout=log, stderr=log) == 0


def main():
    # The harness builds the system under test from the checkout's own
    # sources; without them there is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("mcf0_bench: no mcf0 sources at " + ROOT, file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        print("mcf0_bench: cmake not found", file=sys.stderr)
        return 2
    if not build():
        print("mcf0_bench: build failed", file=sys.stderr)
        return 1
    harness = os.path.join(BUILD, "mcf0_bench")
    return subprocess.call([harness, "--out-dir", OUT, *sys.argv[1:]],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
