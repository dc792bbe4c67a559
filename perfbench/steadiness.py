"""Steadiness check: two sets of runs of the same code, compared per metric.

For each workload and each end-to-end metric it prints both sets' medians,
each set's spread (the distance between the first and third quartile as a
share of the median, from ``statistics.quantiles(values, n=4)``), the bound
from ``BENCHMARK.json`` and whether both spreads stay within the bound and
the second median is not worse than the first by more than it.  Every run
uses a different seed and the run length from ``BENCHMARK.json``.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads online_gateway
"""

from __future__ import annotations

import argparse
import json
import statistics
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Wall-clock figures each run prints on stderr; shown for reference, unbounded.
REFERENCE = ("throughput_sps", "latency_p50_ms")


def spread(values):
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit(f"run failed ({' '.join(argv)}):\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"outputs were wrong ({' '.join(argv)}):\n{completed.stderr[-2000:]}")
    for name in REFERENCE:
        found = re.search(rf"^\s+{name}\s+(\S+)$", completed.stderr, re.MULTILINE)
        result["metrics"][name] = {"value": float(found.group(1))}
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", nargs="*",
                        default=[workload["name"] for workload in spec["workloads"]])
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        sets = [[run_once(spec["command"], workload, seed, seconds)
                 for seed in range(first, first + args.runs)]
                for first in (1, 1 + args.runs)]
        shares = [sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
                  for runs in sets]
        print(f"\n{workload}: {args.runs} runs x 2 sets of {seconds} s; "
              f"failed share {shares[0]:.4f} / {shares[1]:.4f}")
        print(f"  {'metric':20s} {'median 1':>11s} {'spread 1':>9s} {'median 2':>11s} "
              f"{'spread 2':>9s} {'bound':>6s}  verdict")
        for name in REFERENCE + tuple(bounds):
            cells, medians, spreads = [], [], []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                cells.append(f"{medians[-1]:11.4f} {spreads[-1]:9.3f}")
            if name not in bounds:
                print(f"  {name:20s} {' '.join(cells)} {'none':>6s}  reference only")
                continue
            bound = bounds[name]["bound"]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if bounds[name]["better"] == "lower" else -change
            ok = max(spreads) <= bound and worse <= bound
            steady = steady and ok
            print(f"  {name:20s} {' '.join(cells)} {bound:6.2f}  "
                  f"{'ok' if ok else 'NOT STEADY'}")
        steady = steady and shares[0] == shares[1]
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
