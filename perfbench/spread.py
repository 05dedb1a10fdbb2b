#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan_delta --runs 10 [--first-seed 1]

Run from the repository root.  Each run is `perfbench/run.py` with its own
seed and BENCHMARK.json's run_seconds.  For every end-to-end metric this
prints the median, the quartiles, and the distance between the quartiles as
a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound.  Exits non-zero when a run fails or reports a mismatch.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {lines[-1]}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"{metric['name']}: median {median:.6g} {metric['unit']}, "
              f"quartiles {q1:.6g}..{q3:.6g}, spread {(q3 - q1) / median:.3f} "
              f"(bound {metric['bound']})")


if __name__ == "__main__":
    main()
