#!/usr/bin/env python3
"""Run alternating base/change pairs of the benchmark and compare them.

    python3 scripts/ab_pairs.py --base REF [--new REF] [--pairs 10] [--seed 1]
        [--workload NAME ...] [--trace 0] [--record BENCH_NAME.json
        [--claim WORKLOAD:METRIC ...]] [--dry-run]

Each side is a ``git archive`` of its ref (--new defaults to HEAD), unpacked
in a temporary directory, so the working tree, its perfbench/ included, is
never written.  Pair i runs ``perfbench/run.py --seed SEED+i`` on both sides
for each workload in turn (all of BENCHMARK.json's by default, for its
run_seconds), the base first in even pairs and the change first in odd
ones.  Each side's run.py appends its results to that side's copy; the
change's ``perfbench/compare.py`` then prints the table of the two.
--dry-run prints the commands, with BASE and NEW for the two copies, and runs
nothing.

--record PATH also writes the run as one JSON file (see ``record``): both
commits, the host, the seeds and run order, every run's metrics from both
sides' results, per workload and metric the quartiles, ratio of medians and
pair wins, and each --claim (a metric the change claims to improve) with
whether the run bears it out.  ``tests/test_bench_records.py`` checks every
BENCH_*.json at the repository root against its raw runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RESULTS = Path("perfbench", "out", "results.jsonl")

sys.path.insert(0, str(ROOT / "perfbench"))
from compare import directions, quartiles  # noqa: E402  the table's own statistics

BETTER = directions()


def plan(args, base: Path, new: Path) -> list[list[str]]:
    """The run.py commands in the order they run, then compare.py's."""
    cmds = []
    for i in range(args.pairs):
        for workload in args.workload:
            for side in (base, new) if i % 2 == 0 else (new, base):
                cmds.append([sys.executable, str(side / "perfbench" / "run.py"),
                             "--workload", workload, "--seed", str(args.seed + i),
                             "--seconds", str(BENCHMARK["run_seconds"]),
                             "--trace", str(args.trace)])
    cmds.append([sys.executable, str(new / "perfbench" / "compare.py"), str(base / RESULTS),
                 str(new / RESULTS), "--trace", str(args.trace)])
    return cmds


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per workload and metric: each side's quartiles, the ratio of medians
    new/base (None on a zero base) and the pair wins [base, new], pairs matched
    by seed and won by the side better in the metric's direction."""
    summary: dict = {}
    for wl in sorted({r["workload"] for r in runs["base"]}):
        base = {r["seed"]: r["metrics"] for r in runs["base"] if r["workload"] == wl}
        new = {r["seed"]: r["metrics"] for r in runs["new"] if r["workload"] == wl}
        seeds = sorted(base.keys() & new.keys())
        for metric in base[seeds[0]]:
            qa = list(quartiles([base[s][metric] for s in seeds]))
            qb = list(quartiles([new[s][metric] for s in seeds]))
            sign = -1 if BETTER.get(metric, "lower") == "lower" else 1
            gaps = [sign * (new[s][metric] - base[s][metric]) for s in seeds]
            summary.setdefault(wl, {})[metric] = {
                "base": qa, "new": qb, "ratio": qb[1] / qa[1] if qa[1] else None,
                "wins": [sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)]}
    return summary


def claim_verdict(summary: dict, claim: str, pairs: int) -> dict:
    """A claim holds when the change wins at least 9 in 10 of all pairs (ties
    count for neither side) and its median is better by more than the
    distance between the base's quartiles."""
    wl, metric = claim.split(":")
    row = summary[wl][metric]
    sign = -1 if BETTER.get(metric, "lower") == "lower" else 1
    gap, spread = sign * (row["new"][1] - row["base"][1]), row["base"][2] - row["base"][0]
    return {"workload": wl, "metric": metric, "new_wins": row["wins"][1], "median_gap": gap,
            "base_spread": spread, "holds": 10 * row["wins"][1] >= 9 * pairs and gap > spread}


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath")}


def record(args, shas: dict[str, str], order: list[dict], base: Path, new: Path) -> dict:
    """The JSON record of a finished run: every run's metric values (scaled,
    as run.py reports them) and its unscaled ``raw`` figures, both sides'."""
    runs = {}
    for side, root in (("base", base), ("new", new)):
        lines = (root / RESULTS).read_text().splitlines()
        runs[side] = [{"workload": r["workload"], "seed": r["seed"], "correct": r["correct"],
                       "attempted": r["attempted"], "failed": r["failed"],
                       "metrics": {k: m["value"] for k, m in r["metrics"].items()},
                       "raw": r["extra"]["raw"]}
                      for r in map(json.loads, filter(str.strip, lines))]
    summary = summarize(runs)
    return {"base": {"ref": args.base, "sha": shas["base"]},
            "new": {"ref": args.new, "sha": shas["new"]},
            "host": host(), "trace": args.trace, "run_seconds": BENCHMARK["run_seconds"],
            "seeds": [args.seed + i for i in range(args.pairs)], "order": order,
            "runs": runs, "summary": summary,
            "claims": [claim_verdict(summary, c, args.pairs) for c in args.claim]}


def rev(ref: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", f"{ref}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def unpack(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--new", default="HEAD", help="git ref of the change side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs seed SEED+i")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", type=Path, help="also write the run to this BENCH_*.json")
    parser.add_argument("--claim", nargs="+", default=[], metavar="WORKLOAD:METRIC",
                        help="metrics the change claims to improve, for --record")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("need --pairs >= 1 and --seed >= 0")
    if args.record and not re.fullmatch(r"BENCH_[\w.-]+\.json", args.record.name):
        parser.error("--record needs a file named BENCH_<name>.json")
    for claim in args.claim:
        wl, _, metric = claim.partition(":")
        if not args.record or wl not in args.workload or metric not in BETTER:
            parser.error(f"--claim {claim}: needs --record, a chosen workload and a listed metric")
    if args.dry_run:
        print(f"git archive {args.base} > BASE")
        print(f"git archive {args.new} > NEW")
        for cmd in plan(args, Path("BASE"), Path("NEW")):
            print(shlex.join(cmd))
        if args.record:
            print(f"write {args.record}")
        return 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        base, new = Path(tmp, "base"), Path(tmp, "new")
        shas = {"base": rev(args.base), "new": rev(args.new)}  # fixed before any run starts
        unpack(shas["base"], base)
        unpack(shas["new"], new)
        *runs, compare = plan(args, base, new)
        order = []
        for cmd in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            side = "base" if Path(cmd[1]).is_relative_to(base) else "new"
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{side} run failed: {shlex.join(cmd[2:])}", file=sys.stderr)
                return 1
            order.append({"side": side, "workload": cmd[3], "seed": int(cmd[5])})
            doc = json.loads(proc.stdout.splitlines()[-1])
            wall = doc["metrics"].get("wall_s", {}).get("value")
            print(f"{side:<4} {shlex.join(cmd[2:])}  correct={doc['correct']} "
                  f"failed={doc['failed']}" + (f" wall_s={wall:.3f}" if wall is not None else ""),
                  flush=True)
        if args.record:
            args.record.write_text(json.dumps(record(args, shas, order, base, new), indent=1) + "\n")
        return subprocess.run(compare).returncode


if __name__ == "__main__":
    sys.exit(main())
