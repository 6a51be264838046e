#!/usr/bin/env python3
"""Run alternating base/change pairs of the benchmark and compare them.

    python3 scripts/ab_pairs.py --base REF [--new REF] [--pairs 10] [--seed 1]
        [--workload NAME ...] [--trace 0] [--dry-run]

Each side is a ``git archive`` of its ref (--new defaults to HEAD), unpacked
in a temporary directory, so the working tree, its perfbench/ included, is
never written.  Pair i runs ``perfbench/run.py --seed SEED+i`` on both sides
for each workload in turn (all of BENCHMARK.json's by default, for its
run_seconds), the base first in even pairs and the change first in odd
ones.  Each side's run.py appends its results to that side's copy; the
change's ``perfbench/compare.py`` then prints the table of the two.
--dry-run prints the commands, with BASE and NEW for the two copies, and runs
nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RESULTS = Path("perfbench", "out", "results.jsonl")


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
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("need --pairs >= 1 and --seed >= 0")
    if args.dry_run:
        print(f"git archive {args.base} > BASE")
        print(f"git archive {args.new} > NEW")
        for cmd in plan(args, Path("BASE"), Path("NEW")):
            print(shlex.join(cmd))
        return 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        base, new = Path(tmp, "base"), Path(tmp, "new")
        unpack(args.base, base)
        unpack(args.new, new)
        *runs, compare = plan(args, base, new)
        for cmd in runs:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            side = "base" if Path(cmd[1]).is_relative_to(base) else "new"
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{side} run failed: {shlex.join(cmd[2:])}", file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.splitlines()[-1])
            wall = doc["metrics"].get("wall_s", {}).get("value")
            print(f"{side:<4} {shlex.join(cmd[2:])}  correct={doc['correct']} "
                  f"failed={doc['failed']}" + (f" wall_s={wall:.3f}" if wall is not None else ""),
                  flush=True)
        return subprocess.run(compare).returncode


if __name__ == "__main__":
    sys.exit(main())
