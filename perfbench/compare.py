#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as perfbench/run.py appends them to
perfbench/.runs/results.jsonl; copy that file aside after running the
parent commit and again after the change. Untraced runs are paired by
workload and seed, in the order they appear. Per workload and end-to-end
metric the table gives each side's median and quartiles, the pairs the new
side won (ties count for neither), and a verdict:

* improved     - the new side wins at least nine tenths of the pairs and its
                 median is better by more than the base runs' quartile spread;
* worse        - the new median is worse than the base median by more than
                 the metric's bound in BENCHMARK.json;
* unresolved   - the base runs spread wider than the bound, unless every new
                 run reads better than every base run;
* within bound - otherwise.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{workload: {seed: [metrics, ...]}} over the untraced runs."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]][rec["seed"]].append(rec["result"]["metrics"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(pairs, base, new, better: str, bound: float) -> tuple[int, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    q1, med_b, q3 = quartiles(base)
    gain = sign * (statistics.median(new) - med_b)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return wins, "improved"
    if gain < -bound * abs(med_b):
        return wins, "worse"
    if q3 - q1 > bound * abs(med_b) and not min(sign * n for n in new) > max(sign * b for b in base):
        return wins, "unresolved"
    return wins, "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<11} {'metric':<20} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'won':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]

            def values(side, seed):
                return [r[name]["value"] for r in side[workload][seed]]

            pairs = [p for s in seeds for p in zip(values(base, s), values(new, s))]
            b = [v for s in base[workload] for v in values(base, s)]
            n = [v for s in new[workload] for v in values(new, s)]
            wins, word = verdict(pairs, b, n, m["better"], m["bound"])
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{workload:<11} {name:<20} {fmt.format(*quartiles(b)):<32} "
                  f"{fmt.format(*quartiles(n)):<32} {wins:>3}/{len(pairs):<3}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
