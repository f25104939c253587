#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 bench/e2e/run.py --workload screen-blocked --seed 7 \
        --seconds 30 --trace 0
    python3 bench/e2e/run.py --all --seed 7     # every workload + checks
    python3 bench/e2e/run.py --smoke            # tiny sizes, < 60 s

The first call configures bench/e2e (which compiles the repository's src/
and tools/ trees too) into .bench_build/ at the repository root; later
calls only let the build tool confirm it is up to date. Build output goes
to stderr, so the benchmark's last line on stdout stays its JSON result.
Exits non-zero, printing no result, when the sources cannot be built.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"


def build():
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
            stdout=sys.stderr, check=True)
    return BUILD / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if not (args.workload or args.all or args.smoke):
        parser.error("one of --workload, --all or --smoke is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: cannot build the benchmark: {error}", file=sys.stderr)
        return 1

    command = [str(binary), f"--seed={args.seed}", f"--trace={args.trace}"]
    if args.workload:
        command.append(f"--workload={args.workload}")
    if args.seconds is not None:
        command.append(f"--seconds={args.seconds:g}")
    if args.all:
        command.append("--all")
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command.append(f"--out={args.out}")
    os.chdir(ROOT)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    sys.exit(main())
