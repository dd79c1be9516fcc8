#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload gnp-sparsify --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into .bench_build/, with the
Go build cache, module cache and temporary files kept there too, and is
then run from the repository root with the same arguments. Build
messages go to standard error; standard output is the benchmark's own,
whose last line is the JSON result. A failed build exits non-zero and
prints no result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
