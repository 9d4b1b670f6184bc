#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--kernel NAME] [--min-items N]

The repository's libraries and the driver are built with CMake into
.bench_build at the checkout root; the driver then runs with the checkout
root as its working directory and its output passes through unchanged, so
the last line is the driver's JSON result. Exits 2 on a usage error, and
non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure and build; return the driver's path or None."""
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    driver = build(os.path.join(ROOT, ".bench_build"))
    if driver is None:
        return 1
    proc = subprocess.Popen([driver] + argv, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
