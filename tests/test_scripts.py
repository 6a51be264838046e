import os
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


def test_container_sweep_script_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    prefix = tmp_path / "cs"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "container_sweep.py"), "--n", "5", "--seeds", "0",
         "--out-prefix", str(prefix)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    graph_line, hyper_line = result.stdout.splitlines()
    assert graph_line.startswith("graph sweep: ") and hyper_line.startswith("hypergraph sweep: ")
    for line, kind in ((graph_line, "graph"), (hyper_line, "hyper")):
        assert f", 0 violations -> {prefix}_{kind}.csv" in line
        header, *rows = (tmp_path / f"cs_{kind}.csv").read_text().splitlines()
        assert rows and all(row.endswith(",ok") for row in rows)
