#!/usr/bin/env python3
"""How steady is the benchmark?  Each workload under N seeds, one fresh
process each, then per metric the interquartile spread as a share of the
median — the benchmark driver's acceptance measure — beside its bound.

    python benchmarks/e2e/steadiness.py            # seeds 1..10, ~12 min
    python benchmarks/e2e/steadiness.py --first 11 # another set, to compare
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "..", "src")]

from harness import spec  # noqa: E402
from harness.stats import spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first", type=int, default=1, help="first seed")
    parser.add_argument("--seeds", type=int, default=10, help="how many")
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS),
                        help="only this workload (repeatable)")
    args = parser.parse_args()
    unsteady = 0
    for workload in args.workload or spec.WORKLOADS:
        runs = []
        for seed in range(args.first, args.first + args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"{workload}: {len(runs)} seeds, "
              f"{sum(run['failed'] for run in runs)} failed operations")
        for name, _unit, _clock, _better, bound in spec.END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values)
            flag = ""
            if share > bound:
                flag = "  OVER ITS BOUND"
                unsteady += 1
            elif share > bound / 3:
                flag = "  over a third of its bound"
            print(f"  {name:<24} median {median(values):>14.6g}  spread "
                  f"{share:7.2%}  bound {bound:4.0%}{flag}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
