#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload pagerank-wiki --seed 1 --seconds 20 --trace 0

Every file the build and the run write goes under .bench_build/ at the root:
the Go build cache, the binary, checkpoints, result files and span files.
Arguments are passed to the benchmark unchanged; its exit code is returned.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def git_rev():
    """Return the checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    out = os.path.join(BUILD, "perfbench")
    bench = subprocess.run([binary, "-rev", git_rev(), "-out", out] + sys.argv[1:],
                           cwd=ROOT, env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
