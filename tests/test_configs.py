import hashlib
import json
from pathlib import Path

import pytest

from cli_helpers import invoke

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The first 16 hex digits of the SHA-256 of each config's report file, pinned
# across commits: the bytes the sweep scripts these configs replaced wrote.
DIGESTS = {
    "container_sweep_graph": "9c06de957219df5f",
    "container_sweep_hyper": "0c7a4405dc0b003e",
    "tradeoff_cograph": "f73ae7124a06b461",
    "tradeoff_bipartite": "d8f7de15fadce2ca",
    "tradeoff_gnp": "085e6bf2bea0857c",
    "tradeoff_triangle_scan": "16e35c76a8d371d7",
}


def test_every_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_config_writes_its_pinned_report(tmp_path, monkeypatch, name):
    config = CONFIGS / f"{name}.json"
    monkeypatch.chdir(tmp_path)
    result = invoke(["experiment", "run", str(config)])
    assert result.exit_code == 0, (result.output, result.exception)
    report = tmp_path / json.loads(config.read_text())["out"]
    assert "VIOLATION" not in report.read_text()
    assert hashlib.sha256(report.read_bytes()).hexdigest()[:16] == DIGESTS[name]
