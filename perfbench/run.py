#!/usr/bin/env python3
"""Build the racellm benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <core-cold|serve-cold|serve-warm> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates by path. It is built with `cargo build
--release --offline` into $CARGO_TARGET_DIR (default: .bench_build at
the checkout root); build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code
is the benchmark's: non-zero when the build fails or any check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    # Measure on one CPU: the client, the server and the calibration
    # units then share a core, so the calibration sees the speed the
    # measured code ran at (see README.md, "Calibrated times").
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
