#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark driver with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result.  Extra driver options (--calls K) pass through unchanged.
Exits non-zero without a result when the sources or the build are missing.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "bnb_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bnb_perfbench")


def main(argv):
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # driver binary before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--work-dir", work_dir] + argv
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
