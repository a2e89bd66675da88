#!/usr/bin/env python3
r"""Builds and runs the serving benchmark on one workload.

    python3 servebench/run.py --workload clean_mix --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout.  The benchmark program is compiled
from the checkout's sources into .bench_build/servebench (the first run
builds, later runs reuse the build).  Each run works in a fresh directory
under .bench_build/servebench-work that it removes on exit.  The last line
of standard output is the program's JSON result; the exit code is non-zero
when the build, the run or an output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("clean_mix", "huge_sharded", "sessions_live")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 60


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion, its output to stderr unless captured."""
    kwargs.setdefault("stdout", sys.stderr)
    return subprocess.run(cmd, timeout=timeout, check=False, **kwargs)


def build(root, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(root / "servebench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    if run(configure, BUILD_TIMEOUT_S).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(build_dir), "--target", "servebench",
                "-j", jobs]
    if run(compile_, BUILD_TIMEOUT_S).returncode != 0:
        return None
    binary = build_dir / "servebench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    bench_build = root / ".bench_build"
    binary = build(root, bench_build / "servebench")
    if binary is None:
        print("servebench: build failed", file=sys.stderr)
        return 1

    work = bench_build / "servebench-work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepare = [str(binary), "prepare", "--workload", args.workload,
                   "--seed", str(args.seed), "--dir", str(work)]
        if run(prepare, PREPARE_TIMEOUT_S).returncode != 0:
            print("servebench: prepare failed", file=sys.stderr)
            return 1
        serve = [str(binary), "serve", "--workload", args.workload,
                 "--dir", str(work), "--seconds", str(args.seconds),
                 "--trace", args.trace]
        # Serving takes two timed loops in a traced run, plus replays.
        timeout = 60 + 3 * args.seconds
        result = run(serve, timeout, stdout=subprocess.PIPE, text=True)
        lines = result.stdout.splitlines()
        print("\n".join(lines[:-1]), file=sys.stderr)
        if not lines or not lines[-1].startswith("{"):
            print(f"servebench: serve exited {result.returncode} without a "
                  "result", file=sys.stderr)
            return 1
        # A failed output check still reports its result, marked incorrect.
        print(lines[-1], flush=True)
        return 0 if result.returncode == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
