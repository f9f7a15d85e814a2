#!/usr/bin/env python3
"""Build the benchmark from source if needed, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/ (Release, incremental: later runs only
re-check it). Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build the perfbench target; False on failure."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found next to perfbench/; "
                  "run from a full checkout", file=sys.stderr)
            return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", build_dir, "--target",
                           "perfbench", "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
