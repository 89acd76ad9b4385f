"""Compare the run records of two benchmark checkouts, metric by metric.

    python3 bench/compare.py BASE/.bench_out/runs NEW/.bench_out/runs

For every workload and metric found in both directories it prints each
side's median and quartiles over its runs, the change of the medians as a
share of the base median, and the base's own spread (quartile distance over
median), so a change smaller than that spread reads as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(runs_dir) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(runs_dir).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("failures"):
            continue  # incorrect runs measure nothing comparable
        for name, value in record["metrics"].items():
            out[(record["workload"], record["trace"])][name].append(value)
    return out


def summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(base_dir, new_dir) -> int:
    base, new = load(base_dir), load(new_dir)
    print(f"{'workload':12} {'metric':40} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'base spread':>11}")
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = summary(base[key][name]), summary(new[key][name])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            spread = (b[2] - b[0]) / b[1] if b[1] else float("nan")
            print(f"{key[0]:12} {name:40} {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}] "
                  f"{n[1]:12.4f} [{n[0]:.4f}, {n[2]:.4f}] {change:+8.1%} {spread:11.1%}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    sys.exit(main(sys.argv[1], sys.argv[2]))
