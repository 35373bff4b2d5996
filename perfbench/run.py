#!/usr/bin/env python3
"""Build and run the AdapTraj benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which builds the library
from ../src) into .bench_build/perfbench, then runs the benchmark binary;
its last stdout line is the JSON result. Build output goes to stderr.
Exits non-zero without a result when the build fails, e.g. when the
library sources are missing.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no AdapTraj sources (CMakeLists.txt, src/) at %s\n" % ROOT)
        return False
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD, "-j", "4", "--target"] + targets]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode
    if not build(["perfbench"]):
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
