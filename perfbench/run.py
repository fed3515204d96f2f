#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <mixed|sssp|handoff|sharded> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the `perfbench` package next to this file, a Cargo
workspace of its own with path dependencies on the crates under
`crates/`. It is built in release mode into `$CARGO_TARGET_DIR` (default
`perfbench/target`). The arguments are passed to the binary unchanged;
its last line of standard output is the JSON result. Exit codes: the
binary's own (0 ok, 1 a correctness check failed, 2 bad arguments), or 3
when the sources are incomplete or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(3)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in (manifest, os.path.join(ROOT, "crates", "zmsq", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"missing {os.path.relpath(needed, ROOT)}: run from a full checkout")
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
