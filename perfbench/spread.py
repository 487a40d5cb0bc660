#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload paper-matrix --seeds 1 2 3 4 5 \
        --seconds 30 [--trace 0]

For every metric it prints the median of the per-seed values and the
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    failed = []
    for seed in args.seeds:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        failed.append((seed, res["attempted"], res["failed"], res["correct"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
            flush=True)
    for seed, att, fail, ok in failed:
        print(f"seed {seed}: attempted={att} failed={fail} correct={ok}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = float("nan")
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
