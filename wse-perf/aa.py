#!/usr/bin/env python3
"""A/A check of the benchmark: two interleaved sets of runs of the same code.

Run from the repo root:

    python3 wse-perf/aa.py [--runs 10] [--workload NAME] [--binary PATH]

For every workload it makes two sets of `--runs` runs (A, B, A, B, ...), each
run with another seed, using the command, run length and bounds that
BENCHMARK.json declares.  For every end-to-end metric it prints each set's
median and spread (distance between the first and third quartile as a share
of the median) and how much worse set B's median is than set A's.  It exits
non-zero when a spread exceeds the metric's bound (setup_s excepted), when
set B is worse than set A by more than the bound, or when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--binary", help="run this built binary instead of the declared command")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = [args.binary] if args.binary else spec["command"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failed = False

    for workload in workloads:
        sets = ({}, {})
        for run in range(2 * args.runs):
            seed = 1000 + 7919 * run
            out = subprocess.run(
                command
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                failed = True
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} operations failed")
                failed = True
            for name, metric in result["metrics"].items():
                sets[run % 2].setdefault(name, []).append(metric["value"])

        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets[0].get(name, []), sets[1].get(name, [])
            if len(a) < 2 or len(b) < 2:
                continue
            spreads = []
            for values in (a, b):
                q1, _, q3 = statistics.quantiles(values, n=4)
                spreads.append((q3 - q1) / statistics.median(values))
            drift = statistics.median(b) / statistics.median(a) - 1.0
            worse = drift if metric["better"] == "lower" else -drift
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            failed |= bad
            print(
                f"  {name:<14} A {statistics.median(a):>13.6g}  B {statistics.median(b):>13.6g}"
                f"  spread {spreads[0] * 100:5.2f}% {spreads[1] * 100:5.2f}%"
                f"  B worse by {worse * 100:6.2f}%  bound {bound * 100:4.1f}%"
                f"{'  <-- OUT OF BOUND' if bad else ''}"
            )
        sys.stdout.flush()

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
