#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 e2ebench/spread.py --workload chatfuzz-rocket --seeds 1-10

For every metric: the median over the runs, the quartiles (Python's
``statistics.quantiles(values, n=4)``), and the spread -- the distance
between the first and third quartile as a share of the median -- next to
the metric's bound from ``BENCHMARK.json``.  A run that fails its output
checks or exits non-zero is reported and makes this command exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or definition["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in definition[section]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    failures = 0
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            continue
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        runs.append({"seed": seed, "wall_s": wall,
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
        print(f"seed {seed}: {wall:.1f}s  " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.4g}"
            for name in list(bounds)[:6]), flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs, {failures} failed")
    print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[name]}
        bound = bounds[name]
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3" if spread <= bound else "  > BOUND"
        print(f"  {name:<24} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.3f} {bound if bound is not None else '':>6}"
              f"{flag}")
    out = ROOT / ".e2ebench" / (f"spread-{args.workload}-trace{args.trace}"
                                f"-{int(time.time())}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "runs": runs, "summary": summary,
                               "failures": failures}, indent=1) + "\n")
    print(f"  written: {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
