#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

    python3 benchmark/compare.py A.jsonl B.jsonl

A and B are files written by `run.py --record FILE`, one JSON line per
(workload, seed) run; A is the parent (or first set), B the change (or
second set). For every (metric, workload) present in both, it prints
each side's median and IQR (from statistics.quantiles(n=4)) and a
verdict against the metric's bound in BENCHMARK.json:

  unresolved  the IQR of either side exceeds the bound (share of its
              median), unless every run of B beats every run of A
  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. The last column says
whether both sides hold exactly the same values, which a host-only
change must keep for simulated metrics. Exits 1 if anything regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path):
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["correct"]:
            print(f"warning: {path}: {rec['workload']} seed {rec['seed']} "
                  f"failed its checks", file=sys.stderr)
        for name, v in rec["metrics"].items():
            values[(rec["workload"], name)].append(v)
    return values


def spread(values):
    """(median, IQR) of @p values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, q[2] - q[0]


def verdict(spec, a, b):
    if "bound" not in spec:
        return "-"
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    (ma, ia), (mb, ib) = spread(a), spread(b)

    def rel(x, m):
        return x / abs(m) if m else (0.0 if x == 0 else float("inf"))

    if max(rel(ia, ma), rel(ib, mb)) > bound:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return "improved" if beats else "unresolved"
    worse = rel(mb - ma, ma) * (1 if lower else -1)
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    order = {name: i for i, name in enumerate(METRICS)}
    keys = sorted(set(a) & set(b),
                  key=lambda k: (k[0], order.get(k[1], len(order))))
    print(f"{'workload':<16}{'metric':<32}{'n':>3}{'median A':>14}"
          f"{'IQR A':>12}{'median B':>14}{'IQR B':>12}{'delta':>9}"
          f"{'bound':>7}  {'verdict':<11}identical")
    counts = defaultdict(int)
    for w, name in keys:
        spec = METRICS.get(name, {})
        va, vb = a[(w, name)], b[(w, name)]
        (ma, ia), (mb, ib) = spread(va), spread(vb)
        delta = f"{(mb - ma) / abs(ma):+.2%}" if ma else "-"
        bound = f"{spec['bound']:.0%}" if "bound" in spec else "-"
        v = verdict(spec, va, vb)
        counts[v] += 1
        same = "yes" if sorted(va) == sorted(vb) else "no"
        print(f"{w:<16}{name:<32}{min(len(va), len(vb)):>3}{ma:>14.6g}"
              f"{ia:>12.4g}{mb:>14.6g}{ib:>12.4g}{delta:>9}{bound:>7}  "
              f"{v:<11}{same}")
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())
                    if v != "-"))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
