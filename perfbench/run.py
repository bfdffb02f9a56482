#!/usr/bin/env python3
"""Build the topkmon benchmark driver from this source tree and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build configures perfbench/ (which pulls in the library of the enclosing
tree) into .bench_build/ at the tree's root as a Release build; the build log
goes to standard error. The driver's standard output passes through
unchanged, so its last line is the JSON result. With --trace 1 the spans of
the traced run are written to .bench_build/spans/.

Exit status: the driver's (0 = every check passed); 2 when the tree cannot be
built or the driver does not finish within its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "topkmon_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{os.path.join(ROOT, needed)} is missing: perfbench/ must sit "
                 "in a topkmon source tree")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD, "--target", "topkmon_perfbench",
                    "-j", str(os.cpu_count() or 1)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the driver did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
