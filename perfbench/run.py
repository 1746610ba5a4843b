#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: it builds perfbench/main.exe
with dune, then passes its arguments on.  Scratch files (checkpoints,
spans) stay under .perfbench_out/ in the checkout.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the root of a full source "
                         "checkout (dune-project, lib/ and perfbench/)\n")
        return 2
    scratch = os.path.abspath(os.path.join(".perfbench_out", "tmp"))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            return build.returncode
        exe = os.path.join("_build", "default", "perfbench", "main.exe")
        return subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
