#!/usr/bin/env python3
"""Build and run the end-to-end DSE benchmark.

Usage (from the repository root):

    python3 dsebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds `dsebench/` (which compiles the sparseloop
library from the enclosing source tree) in Release mode under
`$CARGO_TARGET_DIR/dsebench`, default `.bench_build/dsebench`, then runs
the benchmark binary. Build output goes to standard error; the
binary's standard output, whose last line is the JSON result, passes
through unchanged, as does its exit code. Exits with 3, printing no
result, when the source tree is missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The benchmark binary validates the values (and lists the workloads).
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one checked result (checker self-test)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("dsebench: no sparseloop source tree at " + ROOT,
              file=sys.stderr)
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "dsebench")
    if not build(build_dir):
        print("dsebench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "dsebench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", out_dir]
    if args.inject_fault:
        cmd.append("--inject-fault")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
