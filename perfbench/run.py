#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles libsage from the
checkout's own sources) under $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs one workload. The program prints the seed,
input sizes, host block and every metric by name with its unit; its
last line is the JSON result. Build output goes to stderr. A failed
build or run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "serve_local", "serve_wire")


def run(cmd, timeout, **kwargs):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except OSError as error:
        print(f"perfbench: cannot run {cmd[0]}: {error}", file=sys.stderr)
        return 127


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build = build_root / "perfbench"
    workdir = build_root / "perfbench-work"
    jobs = str(min(4, os.cpu_count() or 1))

    for step in (
        ["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
    ):
        if run(step, 850, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    return run(
        [
            str(build / "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(workdir),
        ],
        170,
    )


if __name__ == "__main__":
    sys.exit(main())
