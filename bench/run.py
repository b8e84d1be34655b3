#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark program (see bench/main.go).
The Go build cache, module cache and the binary live in .bench_build/ at
the repository root, so nothing is written outside the checkout.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "bench")
    # -buildvcs=false: the checkout need not be a git repository, and a
    # parent one git refuses to read would fail the build.
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=BENCH_DIR, env=go_env())
    if build.returncode != 0:
        print("bench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
