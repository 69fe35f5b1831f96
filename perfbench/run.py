#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0

The program and the Go build cache live under .bench_build/ in the
checkout, and the program creates its corpus directories there too. The
last line of standard output is its JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every file the toolchain writes inside the checkout.
    env = dict(
        os.environ,
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "./bench"],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--dir", os.path.join(BUILD, "runs")]
    return subprocess.run([binary] + args, cwd=ROOT, env=dict(os.environ, TMPDIR=tmp)).returncode


if __name__ == "__main__":
    sys.exit(main())
