#!/usr/bin/env python3
"""Build the server binaries and the benchmark, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `romp-serve` and `romp-worker`
(the repository's release binaries) and `perfbench` (this directory's
own Cargo package) offline into `$CARGO_TARGET_DIR` (default
`.bench_build`), then hands every argument to `perfbench`.  Exits
non-zero without a result line when a build fails, e.g. outside a
repository checkout.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "romp-cluster", "--bins"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} not found; "
                  "run from the repository root", file=sys.stderr)
            return 1
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bin_dir = os.path.join(target, "release")
    bench = os.path.join(bin_dir, "perfbench")
    return subprocess.run([bench, *sys.argv[1:], "--bin-dir", bin_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
