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


def test_ab_pairs_record_needs_a_bench_file_name_and_a_claim_needs_a_record():
    script = [sys.executable, str(ROOT / "scripts" / "ab_pairs.py"), "--base", "main~1", "--dry-run"]
    for extra in (["--record", "results.json"], ["--claim", "exact-kernels:wall_s"],
                  ["--record", "BENCH_x.json", "--claim", "exact-kernels:no_such_metric"]):
        result = subprocess.run(script + extra, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, extra
    result = subprocess.run(script + ["--pairs", "1", "--workload", "cli-session", "--record",
                                      "BENCH_x.json", "--claim", "cli-session:wall_s"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "write BENCH_x.json"
