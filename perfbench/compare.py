#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW [--trace 0|1]

BASE and NEW are results files written by run.py (perfbench/out/results.jsonl
lines, one per run) or directories holding such files.  For every metric and
workload it prints each side's median and quartiles, the ratio of medians
NEW/BASE with its base, and pair wins: runs are paired by seed (by order when
the seeds differ), and a pair is won by the side that is better in the
metric's direction from BENCHMARK.json (ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        records += [json.loads(line) for line in f.read_text().splitlines() if line.strip()]
    return records


def directions() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return matched if len(matched) == min(len(base), len(new)) else list(zip(base, new))


def compare(base: list[dict], new: list[dict], trace: int) -> list[str]:
    better = directions()
    lines = [f"{'workload':<20} {'metric':<58} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
             f"{'new/base':>9} {'wins b:n':>9}"]
    workloads = sorted({r["workload"] for r in base + new})
    for wl in workloads:
        a = [r for r in base if r["workload"] == wl and r["trace"] == trace]
        b = [r for r in new if r["workload"] == wl and r["trace"] == trace]
        if not a or not b:
            continue
        for metric in a[0]["metrics"]:
            if metric not in b[0]["metrics"]:
                continue
            va = [r["metrics"][metric]["value"] for r in a]
            vb = [r["metrics"][metric]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "n/a"
            sign = -1 if better.get(metric, "lower") == "lower" else 1
            wins_a = sum(1 for x, y in pairs(a, b) if sign * (x["metrics"][metric]["value"]
                                                            - y["metrics"][metric]["value"]) > 0)
            wins_b = sum(1 for x, y in pairs(a, b) if sign * (y["metrics"][metric]["value"]
                                                            - x["metrics"][metric]["value"]) > 0)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(f"{wl:<20} {metric:<58} {fmt.format(*qa):>32} {fmt.format(*qb):>32} "
                         f"{ratio:>9} {wins_a:>4}:{wins_b:<4}")
        fails = (sum(r["failed"] for r in a), sum(r["attempted"] for r in a),
                 sum(r["failed"] for r in b), sum(r["attempted"] for r in b))
        lines.append(f"{wl:<20} failed/attempted base {fails[0]}/{fails[1]}, new {fails[2]}/{fails[3]}; "
                     f"runs base {len(a)} (median base = 1.000), new {len(b)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    print("\n".join(compare(load(args.base), load(args.new), args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
