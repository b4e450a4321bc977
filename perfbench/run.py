#!/usr/bin/env python3
"""Entry point of the FlexER serving benchmark.

    python3 perfbench/run.py --workload ingest-mixed|cluster --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark binary and the
`router` / `shard-server` binaries from source (release profile, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the binary,
which prints the metrics and, as its last line, the JSON result. Build
output goes to stderr. Exits non-zero when the build fails or the run
finds a wrong answer.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "flexer-serve", "--bins"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    if not build(target_dir):
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [binary, *sys.argv[1:], "--out", HERE]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
