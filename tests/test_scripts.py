import os
import shlex
import subprocess
import sys
from pathlib import Path

import homlab

ROOT = Path(__file__).resolve().parents[1]


def test_overlay_calibration_script_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "overlay_calibration.py"), "--n", "40",
         "--seeds", "0"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    *rows, last = result.stdout.splitlines()
    assert len(rows) == 2  # one per default eps
    assert all(row.endswith("within_part=True") for row in rows)
    assert last.startswith("max ratio")


def test_ab_pairs_dry_run_lists_alternating_runs_then_the_comparison():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_pairs.py"), "--base", "main~1", "--pairs", "2",
         "--seed", "7", "--workload", "exact-kernels", "cli-session", "--dry-run"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    py = shlex.quote(sys.executable)

    def run(side, workload, seed):
        return (f"{py} {side}/perfbench/run.py --workload {workload} --seed {seed} "
                "--seconds 30 --trace 0")  # BENCHMARK.json's run_seconds

    assert result.stdout.splitlines() == [
        "git archive main~1 > BASE",
        "git archive HEAD > NEW",
        run("BASE", "exact-kernels", 7), run("NEW", "exact-kernels", 7),
        run("BASE", "cli-session", 7), run("NEW", "cli-session", 7),
        run("NEW", "exact-kernels", 8), run("BASE", "exact-kernels", 8),
        run("NEW", "cli-session", 8), run("BASE", "cli-session", 8),
        f"{py} NEW/perfbench/compare.py BASE/perfbench/out/results.jsonl "
        "NEW/perfbench/out/results.jsonl --trace 0",
    ]
