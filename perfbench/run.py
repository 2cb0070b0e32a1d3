#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-figures|cluster-allreduce|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe and the
cpufree_run daemon with dune, then runs the benchmark; its last line of
standard output is the JSON result. Exits non-zero, printing no result,
when the build fails (for example outside a full checkout).
"""

import os
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
DAEMON = os.path.join("_build", "default", "bin", "cpufree_run.exe")


def commit():
    try:
        # Never look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout (no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        # No shared dune cache: the build reads and writes only the checkout.
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe", "./bin/cpufree_run.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([MAIN] + sys.argv[1:] + ["--daemon", DAEMON, "--commit", commit()])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
