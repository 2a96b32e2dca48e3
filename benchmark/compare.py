#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark result files.

Run the parent build and the changed build, each in its own checkout, on
the same seeds, alternating which one runs first; each writes its result
files to `bench_results/` in its checkout:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      if [ $((seed % 2)) = 0 ]; then order="base change"; else order="change base"; fi
      for side in $order; do
        (cd $side && cargo run --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml -- --threads 1 \
            --workload var-write --seed $seed --seconds 12 --trace 0)
      done
    done
    python3 change/benchmark/compare.py base/bench_results change/bench_results \
        --benchmark change/BENCHMARK.json

For every workload and metric it prints each side's median and quartiles,
the fraction of same-seed pairs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither side), over at least ten pairs, and the medians differ
              by more than the base's own quartile spread;
  no worse    the change's median is not worse than the base's by more than
              the metric's bound, and the base's spread is within the bound
              (or every change run beats every base run);
  worse       the change's median is worse by more than the bound, and the
              spread is within the bound (or every change run loses);
  unresolved  otherwise: the spread is wider than the bound.

Per-layer metrics have no bound; they get "improved", "worse" (the mirror of
the improved rule), "no worse" when every pair reads the same (simulated
counters), or "unresolved". Exits 1 if any end-to-end metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """Result files of one side, keyed by (workload, trace, seed)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        key = (r["workload"], r["trace"], r["seed"])
        runs.setdefault(key, []).append(r)
    for v in runs.values():
        v.sort(key=lambda r: r["finished_unix_ms"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Verdict for one metric from paired samples (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    n = len(base)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    bm, cm = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    all_worse = min(sign * c for c in change) > max(sign * b for b in base)
    if n >= 10 and wins >= 0.9 * n and sign * (cm - bm) < 0 and abs(cm - bm) > q3 - q1:
        return "improved", wins
    if base == change:
        return "no worse", wins
    if bound is None:
        losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        if n >= 10 and losses >= 0.9 * n and sign * (cm - bm) > 0 and abs(cm - bm) > q3 - q1:
            return "worse", wins
        return "unresolved", wins
    scale = abs(bm) if bm else 1.0
    worse_by = sign * (cm - bm) / scale
    steady = (q3 - q1) / scale <= bound
    if all_better or (steady and worse_by <= bound):
        return "no worse", wins
    if all_worse or (steady and worse_by > bound):
        return "worse", wins
    return "unresolved", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="result directory of the parent build")
    ap.add_argument("change", help="result directory of the changed build")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="benchmark definition (metric directions and bounds)")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    pairs = {}
    for key in sorted(set(base) & set(change)):
        for b, c in zip(base[key], change[key]):
            pairs.setdefault(key[:2], []).append((b, c))
    if not pairs:
        sys.exit("no workload/seed appears in both result sets")

    any_worse = False
    for (workload, trace), runs in sorted(pairs.items()):
        first = sum(1 for b, c in runs if c["finished_unix_ms"] < b["finished_unix_ms"])
        print(f"\n{workload} (trace {int(trace)}): {len(runs)} same-seed pairs, "
              f"change ran first in {first}")
        if abs(2 * first - len(runs)) > 1:
            print("  warning: runs did not alternate; host drift can bias the pairs")
        if len(runs) < 10:
            print("  warning: fewer than ten pairs; no gain can be claimed")
        print(f"  {'metric':<36} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'wins':>6}  verdict")
        names = [n for n in runs[0][0]["metrics"] if n in metrics]
        e2e = {m["name"] for m in spec["end_to_end"]}
        for name in sorted(names, key=lambda n: (n not in e2e, n)):
            m = metrics[name]
            bs = [b["metrics"][name] for b, _ in runs]
            cs = [c["metrics"][name] for _, c in runs]
            v, wins = verdict(bs, cs, m["better"], m.get("bound"))
            any_worse |= v == "worse" and name in e2e
            fmt = lambda xs: "{:.6g} [{:.6g}, {:.6g}]".format(statistics.median(xs), *quartiles(xs))
            print(f"  {name:<36} {fmt(bs):>34} {fmt(cs):>34} {wins:>3}/{len(runs):<2}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
