#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `perfbench/run.py` once per seed on each workload (untraced) and
prints, per metric, the median, the interquartile range as a share of
the median, and that share against the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --workload large_tree --workload edit_session
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}, correct={result['correct']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w} ({args.seeds} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ratio = share / bounds[name]
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"  {name:16s} median {med:12.6g}  iqr/median {share:7.2%}  "
                  f"bound {bounds[name]:.0%}  spread/bound {ratio:5.2f}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
