#!/usr/bin/env python3
"""Build the sstbench program from this checkout's sources and run it.

    python3 sstbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The simulator and sstbench are built
with CMake (RelWithDebInfo, the top-level build's default) under
$CARGO_TARGET_DIR/sstbench, default .bench_build/sstbench; the first run
builds, later runs rebuild only what changed. Build output goes to standard error, so the last line of
standard output is sstbench's JSON result. The exit code is
sstbench's, or 1 when the build fails (for example when the simulator
sources are missing).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return subprocess.call(
            ["cmake", "--build", build_dir, "--target", "sstbench",
             "--parallel", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "sstbench")
    if not build(build_dir):
        print("sstbench: build failed", file=sys.stderr)
        return 1

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    scratch = os.path.join(build_dir, "scratch-" + tag)
    command = [os.path.join(build_dir, "sstbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    if args.trace == "1":
        command += ["--spans", os.path.join(build_dir, "spans-" + tag
                                            + ".json")]
    try:
        return subprocess.call(command)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
