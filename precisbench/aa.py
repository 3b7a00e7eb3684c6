"""Interleaved A/A runner: is the benchmark steady on this host?

Runs ``run.py`` for each workload over a list of seeds, alternating two
sides that run the same code of this checkout, and prints, per end-to-end metric and side, the median,
quartiles and spread (inter-quartile distance / median) against the
metric's bound from ``BENCHMARK.json``, plus how far side B's median
moved from side A's. ``--counts`` instead runs the traced mode twice per
seed and reports which exact counts differ between the two runs.

    python3 precisbench/aa.py --workloads bulk-answer --seeds 1-10 \\
        --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: counts the traced run must repeat exactly on closed-loop workloads
EXACT = (
    "relational.index_lookups_per_ask",
    "relational.tuple_reads_per_ask",
    "relational.reads_per_output_tuple",
) + tuple(
    f"{layer}.pycalls_per_ask"
    for layer in ("relational", "core", "nlg", "obs", "cache", "text",
                  "service")
)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def report_aa(args, bounds: dict) -> None:
    runs = []
    for workload in args.workloads:
        sides = {"A": [], "B": []}
        for index, seed in enumerate(seed_list(args.seeds)):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for side in order:
                result = run_once(workload, seed, args.seconds, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed} side {side}: correct="
                          f"{result['correct']} failed={result['failed']}")
                sides[side].append(result)
                runs.append(dict(result, workload=workload, seed=seed,
                                 side=side))
        print(f"\n{workload}: {len(sides['A'])} runs per side, "
              f"{args.seconds:g} s each")
        print(f"  {'metric':16} {'side':4} {'q1':>10} {'median':>10} "
              f"{'q3':>10} {'spread':>7} {'bound':>6} {'shift':>7}")
        for name, bound in bounds.items():
            medians = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sides[side]]
                s = summary(values)
                medians[side] = s["median"]
                shift = (
                    f"{(s['median'] / medians['A'] - 1) * 100:+6.1f}%"
                    if side == "B" else ""
                )
                print(f"  {name:16} {side:4} {s['q1']:10.4g} "
                      f"{s['median']:10.4g} {s['q3']:10.4g} "
                      f"{s['spread'] * 100:6.1f}% {bound * 100:5.0f}% "
                      f"{shift:>7}")
        refs = [r["details"]["ref_us"]["median"] for r in sides["A"]]
        print(f"  reference loop µs per run (side A): "
              f"{', '.join(f'{ref:.1f}' for ref in refs)}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                json.dump(runs, out, indent=1)


def report_counts(args) -> None:
    for workload in args.workloads:
        for seed in seed_list(args.seeds):
            first, second = (
                run_once(workload, seed, args.seconds, 1)
                for _ in range(2)
            )
            differ = [
                name for name in EXACT
                if first["metrics"][name]["value"]
                != second["metrics"][name]["value"]
            ]
            print(f"{workload} seed {seed}: exact counts "
                  f"{'repeat' if not differ else 'differ: ' + ', '.join(differ)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", help="also write every run's result here")
    parser.add_argument("--counts", action="store_true",
                        help="check that traced exact counts repeat")
    args = parser.parse_args()
    if args.counts:
        report_counts(args)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        bounds = {m["name"]: m["bound"] for m in json.load(spec)["end_to_end"]}
    report_aa(args, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
