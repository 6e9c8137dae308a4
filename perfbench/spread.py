#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(Python's statistics.quantiles, n=4) as a share of their median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload ring_figure --runs 5 [--exe PATH]

Without --exe the command from BENCHMARK.json is used (it builds first).
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--exe", help="prebuilt benchmark binary")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [args.exe] if args.exe else bench["command"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {name: [] for name in bounds}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        first = next(iter(bounds))
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{first}={values[first][-1]:.6g}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER a third of bound" if spread > bound / 3 else ""
        print(f"  {name:<28} median {med:>16.6g}  spread {spread:8.4f}  bound {bound}{flag}")
    print(f"  worst spread / bound (setup_s excluded): {worst:.3f}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
