#!/usr/bin/env python3
"""Build and run the sgx-perf wall-clock benchmark.

    python3 wallbench/run.py --workload live-monitor|postmortem|fleet-ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark (CMake, RelWithDebInfo) into .bench_build/wallbench; later runs
reuse that build.  The benchmark binary prints the result as the last line
of standard output; this script passes its output and exit status through.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("wallbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)


def main():
    if shutil.which("cmake") is None:
        sys.stderr.write("wallbench: cmake not found\n")
        return 2
    build()
    proc = subprocess.run([BINARY] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
