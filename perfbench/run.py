#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/src/main.exe with dune from the sources in this checkout,
then runs it with the same arguments plus a host fingerprint (the CPUs this
process may use, and the git revision when the checkout is a git work
tree). The last line of standard output is the result JSON. Exits non-zero,
without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "src", "main.exe")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/src/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    args = sys.argv[1:] + ["--nproc", str(nproc), "--git-rev", git_rev()]
    return subprocess.run([EXE] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
