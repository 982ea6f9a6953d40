#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper-fig11|miss-storm|map-churn> \\
        --seed <n> --seconds <n> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench when CARGO_TARGET_DIR is set,
otherwise to .bench_build/perfbench; build output goes to standard error.
Every argument is passed to the driver, which validates it; the driver's
standard output (last line: one JSON result object) and exit code are this
script's.  Traced runs write their spans to <build>/spans.jsonl.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd):
    """Runs cmd to completion; its output goes to standard error."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if run(configure) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]) == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "..", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = os.path.join(build_dir, "perfbench")
    cmd = [driver] + sys.argv[1:] + ["--spans", os.path.join(build_dir, "spans.jsonl")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
