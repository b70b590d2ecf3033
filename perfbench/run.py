#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. The binary, the Go build cache and the
run's scratch files all live under .bench_build/ in the checkout. The
benchmark's arguments pass through unchanged; its last line of standard
output is the result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    os.makedirs(BUILD, exist_ok=True)
    # The go command keeps its build cache, module cache and telemetry
    # counters under these; all of them stay inside the checkout.
    env = dict(os.environ,
               HOME=os.path.join(BUILD, "home"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOMODCACHE=os.path.join(BUILD, "gomodcache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOWORK="off")
    binary = os.path.join(BUILD, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--describe", describe()]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
