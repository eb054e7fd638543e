"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-drift --seeds 1-10 --seconds 20

For every end-to-end metric it prints the median over the runs and the
spread, (Q3 - Q1) / median, that the benchmark's bounds are judged by.
Runs are sequential: concurrent runs would share the CPUs under test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="first-last, inclusive (default 1-10)")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, timeout=300)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} " + " ".join(
                  f"{k}={v['value']:.4g}"
                  for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # The named lines printed above the result (rps_closed, ...).
        named = {}
        for line in lines:
            fields = line.split()
            if len(fields) >= 3 and fields[0] == args.workload \
                    and fields[1] != "CHECK":
                named[fields[1]] = float(fields[2])
                values.setdefault("(" + fields[1] + ")", []).append(
                    float(fields[2]))
        print("    " + " ".join(f"{k}={v:.4g}" for k, v in named.items()),
              flush=True)
    for name, series in values.items():
        if len(series) < 2:
            continue  # a percentile only some runs could support
        print(f"{name:<18} median {statistics.median(series):12.5g}  spread "
              f"{benchlib.quartile_spread(series):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
