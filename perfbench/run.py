#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments go to the `perfbench` binary unchanged (see src/main.rs).
Cargo output goes to stderr, so the last line on stdout is the result.
`CARGO_TARGET_DIR` picks the build directory (default: perfbench/target).
The `mura-worker` binary the closure_proc workload spawns is built into
the same directory, next to `perfbench`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in ([], ["-p", "mura-dist", "--bin", "mura-worker"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
