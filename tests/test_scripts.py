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

