#!/usr/bin/env python3
"""Build the programs under test and the benchmark, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady_paced --seed 1 --seconds 10 --trace 0

Builds `seqd` and `sequence-rtg` from the repository's workspace and the
`perfbench` harness from its own package (release, offline), into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the harness. Build
output goes to stderr; the harness prints a metric table and, as the last
line of stdout, one JSON result. Exits non-zero without a result when the
sources are missing or the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(BENCH, "work")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    steps = [
        (["cargo", "build", "--release", "--offline", "--quiet",
          "-p", "seqd", "--bin", "seqd", "-p", "sequence-rtg", "--bin", "sequence-rtg"], ROOT),
        (["cargo", "build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(BENCH, "Cargo.toml")], ROOT),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd, cwd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "seqd"), os.path.join("crates", "sequence-rtg")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target)
    release = os.path.join(target, "release")
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--seqd", os.path.join(release, "seqd"),
           "--cli", os.path.join(release, "sequence-rtg"),
           "--out", OUT]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
