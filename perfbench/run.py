#!/usr/bin/env python3
"""Build and run the Multicube benchmark program.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore-seq --seed 1 --seconds 25 --trace 0

The benchmark is the Go program in this directory, a module of its own that
imports the repository's packages through a `replace` of the parent
module. Everything the build and the run write stays inside the
checkout, under .bench_build/ (Go build cache, binary, temporary files,
per-run reports and traces). A checkout without the parent module fails
the build and exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    ran = subprocess.run([binary, "-root", ROOT] + sys.argv[1:], cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
