#!/usr/bin/env python3
"""Builds the SpectraGAN benchmark from source and runs one workload.

    python3 perfbench/run.py --workload gen-city|serve-mix|train|all \
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then run from the repository root, one process per
workload. Its standard output ends with one JSON result line; build
output and progress go to standard error. `--workload all` runs the
three workloads one after another.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gen-city", "serve-mix", "train")


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, target, "release", "spectragan-perfbench")


def main():
    args = sys.argv[1:]
    binary = build()
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i:i + 1] == ["all"]:
        runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    else:
        runs = [args]
    code = 0
    for run_args in runs:
        code = max(code, subprocess.run([binary] + run_args, cwd=ROOT).returncode)
    sys.exit(code)


if __name__ == "__main__":
    main()
