#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the benchmark driver takes it.

Runs the command of ../BENCHMARK.json ten times per workload, each time with
another --seed, and prints for each end-to-end metric the distance between the
first and third quartile of its ten values as a share of their median, beside
the metric's bound. A spread above a third of its bound is marked.

usage: python3 fedbench/spread.py [--first-seed N] [--runs N] [workload ...]
(from the repository root)
"""

import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    args = sys.argv[1:]
    first_seed, runs = 1, 10
    while args and args[0] in ("--first-seed", "--runs"):
        if args[0] == "--first-seed":
            first_seed = int(args[1])
        else:
            runs = int(args[1])
        args = args[2:]
    workloads = args or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            series = values[m["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            mark = "  > bound/3" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:<18} median {median:<14.6g} spread {spread:7.2%}"
                  f"  bound {m['bound']:.0%}{mark}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
