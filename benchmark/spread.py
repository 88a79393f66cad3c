#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: each workload is run once per seed, and for every metric
the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) is taken as a share of their median.
A spread should stay below a third of the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--trace 0] [workload ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--trace", type=int, default=0)
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
args = ap.parse_args()

bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
for workload in args.workloads:
    values = {n: [] for n in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"# {workload} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
        for n in names:
            values[n].append(res["metrics"][n]["value"])
    print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for n in names:
        v = values[n]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = f"{n:36s} median {med:14.4f}  spread {100 * spread:6.2f}%"
        if n in bounds:
            ok = "ok" if spread < bounds[n] / 3 else ("WIDE" if spread < bounds[n] else "OVER")
            line += f"  bound {100 * bounds[n]:5.1f}%  {ok}"
        print(line + f"  min {min(v):.4f} max {max(v):.4f}", flush=True)
