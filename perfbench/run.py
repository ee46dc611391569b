#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fileserver|kv-hot|tenants-64p \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from source
with dune (the first build compiles the libraries it uses), then runs it
with the same arguments.  Build output goes to standard error; the
benchmark's last line of standard output is its JSON result.  Exits
non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found (neither dune nor opam is on PATH)")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        dune_command()
        + ["build", "--root", root, "--display", "quiet", "./perfbench/bench.exe"],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    result = subprocess.run([exe] + sys.argv[1:], cwd=root)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
