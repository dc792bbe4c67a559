"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the layers' public functions with span timers (see
``tracing.py``), prints a self-time table, writes the spans to
``perfbench/out/`` and reports the per-layer metrics instead.  The last line
of standard output is always ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Packages the workloads use, imported before the set-up clock starts:
#: ``setup_s`` counts the workload's set-up, not module import.
PROGRAM_PACKAGES = ("repro.cloud", "repro.core", "repro.data", "repro.models", "repro.serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing from {SRC}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for package in PROGRAM_PACKAGES:
        importlib.import_module(package)

    recorder = patches = None
    if args.trace:
        recorder = tracing.Recorder()
        patches = tracing.install(recorder)
        recorder.phase = "setup"
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup_start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - setup_start
        if recorder is not None:
            recorder.phase = "timed"
        timed = workload.run(args.seconds)
        if recorder is not None:
            recorder.phase = None
        correct = timed.failed == 0
        if timed.failed:
            print(f"perfbench: {timed.failed} of {timed.ops} operations failed; first: "
                  f"{timed.first_failure}", file=sys.stderr)
        try:
            workload.check()
        except checks.CheckFailed as failure:
            print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
            correct = False
    finally:
        workload.close()
        if patches is not None:
            patches.uninstall()

    e2e = metrics.end_to_end(timed, setup_s)
    print(f"{args.workload} seed={args.seed}: {timed.ops} ops ({timed.failed} failed), "
          f"{timed.samples} samples in {timed.elapsed_s:.2f} s", file=sys.stderr)
    for name, value in {**e2e, **metrics.wall_clock(timed), **metrics.thread_metrics(timed),
                        **metrics.gateway_reference(args.workload, timed)}.items():
        print(f"  {name:44s} {value:12.4f}", file=sys.stderr)
    if recorder is None:
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit in metrics.END_TO_END.items()}
    else:
        layers = metrics.per_layer(recorder, timed, args.workload)
        for line in tracing.self_time_table(recorder, timed.ops):
            print(line)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        span_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(span_file)
        print(f"spans: {len(recorder.spans)} written to {span_file.relative_to(HERE.parent)}"
              f" ({recorder.dropped} over the cap not kept)")
        reported = {name: {"value": value, "unit": metrics.unit_of(name)}
                    for name, value in layers.items()}
    print(json.dumps({"correct": correct, "attempted": timed.ops, "failed": timed.failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
