#!/usr/bin/env python3
"""Builds the KBC benchmark (if needed) and runs one workload.

Run from the repository root:

    python3 kbcbench/run.py --workload update_stream --seed 1 --seconds 30 --trace 0

The benchmark is compiled from the repository's src/ tree into .bench_build/
(Release). Build output goes to stderr; the benchmark's own stdout is passed
through unchanged, so its last line is the JSON result. Exits non-zero,
without printing a result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "kbcbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", "4"],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    if not build():
        print("kbcbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([BINARY] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
