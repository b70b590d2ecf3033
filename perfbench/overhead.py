#!/usr/bin/env python3
"""Print the tracing overhead of one workload on one seed.

    python3 perfbench/overhead.py --workload fleet --seed 4

Runs the workload untraced and traced with the same seed and prints, for
every end-to-end metric, the untraced value and the traced run's copy of
it (traced.<name>) minus the untraced value. Run from the root of a
checkout.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    untraced = run(args.workload, args.seed, seconds, 0)
    traced = run(args.workload, args.seed, seconds, 1)
    for name, m in untraced.items():
        diff = traced["traced." + name]["value"] - m["value"]
        print(f"{args.workload:8} seed {args.seed:3} {name:20} untraced {m['value']:.6g} "
              f"traced minus untraced {diff:+.6g} {m['unit']}")


if __name__ == "__main__":
    main()
