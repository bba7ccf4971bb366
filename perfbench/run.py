#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc-2pl --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in this directory, a module of its own
that builds against the repository's engine one directory up. This
script builds it into .bench_build (the Go build cache too, so nothing
is written outside the checkout), then runs it with the given
arguments. The program's last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod above perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([binary, "-work", BUILD] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
