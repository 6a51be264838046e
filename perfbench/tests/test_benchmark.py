"""Tests of the benchmark itself: its checks reject corrupted results, it
prints exactly the metrics BENCHMARK.json lists, and every workload runs at
tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.SIZES["tiny"]


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _tasks(name: str, tmp_path: Path):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(7, tmp_path, TINY)
    ops = workloads.Ops()
    out = {task: fn(ops, inp) for task, fn in wl.tasks}
    assert ops.failed == 0, ops.errors
    return wl, inp, out


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    return _tasks("container-soundness", tmp_path_factory.mktemp("cs"))


@pytest.fixture(scope="module")
def kernels(tmp_path_factory):
    return _tasks("exact-kernels", tmp_path_factory.mktemp("ek"))


def test_clean_results_pass(container, kernels):
    for wl, inp, out in (container, kernels):
        assert wl.check(inp, out) == []


def test_off_by_one_summary_is_rejected(container):
    wl, inp, out = container
    small = list(out["exhaustive"]["small"])
    small[3] = dataclasses.replace(small[3], instances_checked=small[3].instances_checked + 1)
    bad = wl.check(inp, {**out, "exhaustive": {**out["exhaustive"], "small": small}})
    assert any("brute-force" in b for b in bad)


def test_off_by_one_independent_set_count_is_rejected(container):
    _wl, inp, out = container
    lines = out["sweep"]["csv"][0].splitlines()
    header = lines[0].split(",")
    col = header.index("exact_count")
    row = lines[1].split(",")
    row[col] = str(int(row[col]) + 1)
    corrupted = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    bad = workloads.check_hyper_csv(inp["sweep"][0], corrupted, __import__("random").Random(0), 10**6)
    assert any("exact_count" in b for b in bad)


def test_report_that_differs_across_worker_counts_is_rejected(container):
    wl, inp, out = container
    csv_text = out["sweep"]["csv"][0]
    lines = csv_text.splitlines()
    swapped = "\n".join([lines[0]] + lines[2:] + [lines[1]]) + "\n"
    bad = wl.check(inp, {**out, "sweep": {"csv": [swapped]}})
    assert any("workers=1 and workers=2" in b for b in bad)


def test_clique_witness_with_a_non_edge_is_rejected(kernels):
    _wl, _inp, out = kernels
    g, (size, witness) = out["homogeneous"]["hom"][0]
    rows = list(g.masks)
    assert workloads._check_hom(g.n, rows, size, witness.kind, witness.vertices, "w") == []
    members = sorted(witness.vertices)
    want_edge = witness.kind == "clique"
    outsider = next(v for v in range(g.n) if v not in witness.vertices
                    and any(bool(rows[v] >> u & 1) != want_edge for u in members[1:]))
    forged = [outsider] + members[1:]
    assert workloads._check_hom(g.n, rows, size, witness.kind, forged, "w")


def test_wrong_dp_distance_is_rejected(kernels):
    wl, inp, out = kernels
    t, w = out["tournament"]["dp"][0]
    wrong = dataclasses.replace(w, reversals=w.reversals + 1)
    bad = wl.check(inp, {**out, "tournament": {**out["tournament"], "dp": [(t, wrong)]}})
    assert any("back arcs" in b for b in bad)
    # an ordering that is not optimal, with its true back-arc count, is caught too
    worse = tuple(reversed(w.ordering))
    assert workloads._check_ordering(t.n, list(t.out), worse, oracles.back_arcs(t.out, worse), "w")


def test_wrong_triangle_count_is_rejected(kernels):
    wl, inp, out = kernels
    t, tri, trans = out["tournament"]["tri"][0]
    corrupted = {**out["tournament"], "tri": [(t, tri + 1, trans)]}
    assert wl.check(inp, {**out, "tournament": corrupted})


def test_wrong_p4_count_is_rejected(kernels):
    wl, inp, out = kernels
    art, subsets, embeddings, confined = out["overlay"]["items"][0]
    corrupted = {"items": [(art, subsets - 1, embeddings - 2, confined)]}
    assert any("P4" in b for b in wl.check(inp, {**out, "overlay": corrupted}))


def test_oracles_agree_on_known_values():
    path = [0b10, 0b101, 0b1010, 0b100]  # P4: 0-1-2-3
    assert oracles.count_p4(4, path) == 1
    assert oracles.minimal_ell(7, Fraction(1, 2), 3) == 2
    assert oracles.graph_bounds(7, 3, 2, 3) == (63, 165)  # ceil(4 * 63 * sqrt(3/7))
    out = [0b110, 0b100, 0b000]  # transitive: 0 beats 1, 2; 1 beats 2
    assert oracles.brute_distance(3, out) == 0 and oracles.cyclic_triangles(3, out) == 0


def _bench_metrics(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_completes_and_prints_the_listed_metrics(name):
    proc = _run(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    # --seconds 0 runs one round; only the malformed-file call fails
    assert result["failed"] == (1 if name == "cli-session" else 0), proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _bench_metrics("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics():
    proc = _run("exact-kernels", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics == _bench_metrics("per_layer")
    assert result["metrics"]["homogeneous.hom_exact.calls"]["value"] > 0


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("cli-session", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
