#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp-write --seed 1 --seconds 20 --trace 0

Builds perfbench/bin/main.exe with dune (output under _build/, no shared
dune cache) and runs it with the given arguments; its standard output
ends with the one-line JSON result. Exits non-zero, printing no result,
when the checkout lacks the sources or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bin/main.exe"],
            stdout=sys.stderr, env=env)
    except FileNotFoundError:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
