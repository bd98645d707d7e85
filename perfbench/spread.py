#!/usr/bin/env python3
"""Runs one workload of the benchmark once per seed and prints, for every
metric, the median and quartiles across the runs and their spread, the
distance between the quartiles as a share of the median.

    python3 perfbench/spread.py --workload rpc-echo --seeds 1-10 --seconds 10

Run it from the root of a checkout. With --trace 0 each spread is set
against the metric's bound in BENCHMARK.json; the benchmark counts as steady
when every spread, setup_s included, stays below a third of its bound. Each
run reports whether its figures came from the quiet slices of its window or,
when too few were quiet, from all of them; a set of runs that mixes the two
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join("perfbench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    estimator = next((l.split()[2] for l in lines if l.startswith("# estimator ")), "-")
    return json.loads(lines[-1]), estimator


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    estimators = {}
    for seed in seeds(args.seeds):
        res, estimator = run_once(args.workload, seed, seconds, args.trace)
        estimators[estimator] = estimators.get(estimator, 0) + 1
        status = "ok" if res["correct"] and res["failed"] == 0 else "INCORRECT"
        figures = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items()))
        print(f"seed {seed}: {status} attempted={res['attempted']} failed={res['failed']} "
              f"estimator={estimator} {figures}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs of {seconds} s")
    mix = ", ".join(f"{n} {e}" for e, n in sorted(estimators.items()))
    print(f"estimators: {mix}" + ("  MIXED: runs differ in the samples they count" if len(estimators) > 1 else ""))
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {b}  {verdict} {units[name]}")


if __name__ == "__main__":
    main()
