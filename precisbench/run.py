"""Précis benchmark: one workload per call, one JSON result line.

    python3 precisbench/run.py --workload bulk-answer --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the traced mode and reports the per-layer
metrics instead (spans go to ``.bench_out/``). The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run details. See README.md beside this
file for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ask_cost.ref", "ref"),
    ("write_cost.ref", "ref"),
)
#: measured as well, reported in the details: raw wall-clock figures
#: that follow the host's speed phases (see README.md)
WALL_CLOCK = (
    ("ask_ms.p50", "ms"),
    ("ask_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("tuples_per_s", "1/s"),
    ("write_ms.p50", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk-answer", "served-mix", "write-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-exec under a fixed string-hash seed: set iteration order, and
    with it every call count of the traced run, then repeats across
    processes."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric is not finite: {value}")
    return value


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program source at {SOURCE}/repro", file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path.insert(0, SOURCE)
    from pbench.workloads import PER_LAYER, WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        trace_path = os.path.join(
            ROOT, ".bench_out",
            f"{args.workload}-seed{args.seed}.spans.jsonl",
        )
        traced = workload.traced(args.seed, args.seconds, trace_path)
        details = dict(traced["details"], spans_file=trace_path)
        metrics = {
            name: {"value": finite(traced["values"][name]), "unit": unit}
            for name, unit, __ in PER_LAYER
        }
        outcome = {
            "correct": traced["correct"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
        }
    else:
        result = workload.run(args.seed, args.seconds)
        details = dict(
            result.details,
            wall_clock={
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in WALL_CLOCK
            },
            failures=result.failures,
        )
        metrics = {
            name: {"value": finite(result.metrics[name]), "unit": unit}
            for name, unit in END_TO_END
        }
        outcome = {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
        }
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(dict(outcome, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
