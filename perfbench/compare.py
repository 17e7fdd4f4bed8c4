"""Compare saved benchmark outputs of two commits, metric by metric.

Usage:

    python3 perfbench/compare.py --before parent_*.txt --after change_*.txt

Each file is the standard output of one ``run.py`` invocation.  For every
metric the medians and quartiles of both sides are printed with the
relative change of the median.  Runs are comparable only when they share a
workload, a tracing mode and an mpmath backend; otherwise the comparison is
refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    info = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    return info, json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(before: list[str], after: list[str]) -> int:
    runs = {"before": [load(p) for p in before], "after": [load(p) for p in after]}
    every = runs["before"] + runs["after"]
    for key in ("workload", "trace", "mpmath_backend"):
        seen = {str(info[key]) for info, _ in every}
        if len(seen) > 1:
            print(f"refusing to compare runs with different {key}: {', '.join(sorted(seen))}", file=sys.stderr)
            return 2
    failed = [info for info, res in every if not res["correct"]]
    if failed:
        print(f"warning: {len(failed)} run(s) reported incorrect outputs", file=sys.stderr)
    print(f"workload {every[0][0]['workload']}: {len(before)} before, {len(after)} after")
    for name in every[0][1]["metrics"]:
        unit = every[0][1]["metrics"][name]["unit"]
        sides = {}
        for side, side_runs in runs.items():
            sides[side] = _quartiles([res["metrics"][name]["value"] for _, res in side_runs])
        b, a = sides["before"][1], sides["after"][1]
        change = f"{(a - b) / b:+.2%}" if b else "n/a"
        print(
            f"{name} [{unit}]: before {b:.6g} (q1 {sides['before'][0]:.6g}, q3 {sides['before'][2]:.6g})"
            f"  after {a:.6g} (q1 {sides['after'][0]:.6g}, q3 {sides['after'][2]:.6g})  {change}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare saved benchmark outputs")
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    return compare(args.before, args.after)


if __name__ == "__main__":
    raise SystemExit(main())
