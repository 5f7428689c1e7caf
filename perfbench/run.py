#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-mpiio --seed 1 --seconds 20 --trace 0

The Go module in perfbench/ builds against the simulator sources in the
parent directory. Every build product, the Go build cache and Go's
temporary files go under .bench_build/ at the checkout root, so nothing is
written outside the checkout. The last line of standard output is the
benchmark's JSON result; the exit code is the benchmark's. Without the
simulator sources next to perfbench/ the build fails and the script exits
with code 2 before printing any result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; the simulator sources are missing" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
