#!/usr/bin/env python3
"""Builds and runs the icn_workbench paper-shape benchmark.

    python3 perfbench/run.py --workload <cluster|temporal|plant|serve>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds the
workbench libraries and the benchmark binary icn_perfbench (Release) into
.bench_build (or $CARGO_TARGET_DIR when set); later calls only rebuild what
changed. Build output goes to stderr; the binary's stdout passes through
unchanged, so its last line is the result JSON. Exits non-zero, printing no
result, when the build fails, and with the binary's code otherwise (1 = a
correctness check failed).
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("cluster", "temporal", "plant", "serve")
# The binary bounds its own run time; this only catches a hung process.
RUN_TIMEOUT_S = 175
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                    "--target", "icn_perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # The analyses run with the library defaults (one lane per core, the
    # widest SIMD lane): drop the knobs that would override them.
    env = {k: v for k, v in os.environ.items()
           if k not in ("ICN_THREADS", "ICN_SIMD")}
    command = [os.path.join(build_dir, "icn_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(build_dir, "out")]
    try:
        return subprocess.run(command, env=env, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
