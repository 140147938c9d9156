#!/usr/bin/env python3
"""Builds the LH*RS host-time ledger from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|serve|repair --seed N \
        --seconds S --trace 0|1 [--smoke]

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the repository root, and is incremental.
Build output goes to stderr; stdout is the benchmark's report, whose last
line is one JSON object. The exit code is the benchmark's (0: every
correctness check passed), or the failing build step's.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: pathlib.Path) -> int:
    if not (out / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", str(out), "-j", jobs, "--target",
         "lhrs_perfbench"],
        stdout=sys.stderr)


def main() -> int:
    out = build_dir()
    rc = build(out)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc or 1
    sys.stdout.flush()
    return subprocess.call([str(out / "lhrs_perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
