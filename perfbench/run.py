#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository must sit one directory above this file. The binary is
built with cargo into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Cargo's output goes to standard error, so the last
line of standard output is the benchmark's JSON result. See README.md
in this directory for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    needed = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "crates", "sim", "Cargo.toml")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("error: not a dcfb checkout, missing " + ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "dcfb-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
