"""Every BENCH_*.json at the repository root, checked against its own raw
runs.  A record is what ``scripts/ab_pairs.py --record`` writes: the test
checks its schema, recomputes every summary from the runs, re-decides every
claim, and checks that no end-to-end metric got worse than BENCHMARK.json's
bound and that every run was correct.  JSON only: nothing is timed."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"base", "new", "host", "trace", "run_seconds", "seeds", "order", "runs", "summary",
        "claims"}
RUN_KEYS = {"workload", "seed", "correct", "attempted", "failed", "metrics", "raw"}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def check_record(rec):
    assert set(rec) == KEYS
    for side in ("base", "new"):
        assert re.fullmatch(r"[0-9a-f]{40}", rec[side]["sha"]) and rec[side]["ref"]
    host = rec["host"]
    assert host["nproc"] >= 1 and host["cpu_model"] and host["python"]
    assert {"numpy", "mpmath"} <= set(host)
    seeds = rec["seeds"]
    assert seeds == list(range(seeds[0], seeds[0] + len(seeds)))

    # the run order alternates: in pair i the base runs first iff i is even
    workloads = sorted({o["workload"] for o in rec["order"]})
    assert set(workloads) <= WORKLOADS
    expected = [{"side": side, "workload": wl, "seed": seed}
                for i, seed in enumerate(seeds) for wl in workloads
                for side in (("base", "new") if i % 2 == 0 else ("new", "base"))]
    assert sorted(map(json.dumps, rec["order"])) == sorted(map(json.dumps, expected))
    for i, seed in enumerate(seeds):
        for wl in workloads:
            sides = [o["side"] for o in rec["order"] if o["seed"] == seed and o["workload"] == wl]
            assert sides == (["base", "new"] if i % 2 == 0 else ["new", "base"])

    # one correct run per side, workload and seed, each with the same metrics
    runs = {side: {(r["workload"], r["seed"]): r for r in rec["runs"][side]}
            for side in ("base", "new")}
    for side in ("base", "new"):
        assert len(runs[side]) == len(rec["runs"][side]) == len(seeds) * len(workloads)
        assert set(runs[side]) == {(wl, s) for wl in workloads for s in seeds}
        for run in rec["runs"][side]:
            assert set(run) == RUN_KEYS and run["correct"] is True
            assert 0 <= run["failed"] <= run["attempted"]
            assert set(run["metrics"]) <= set(BETTER)

    # every summary recomputed from the runs
    assert sorted(rec["summary"]) == workloads
    for wl in workloads:
        metrics = runs["base"][wl, seeds[0]]["metrics"]
        assert sorted(rec["summary"][wl]) == sorted(metrics)
        for metric, row in rec["summary"][wl].items():
            base = [runs["base"][wl, s]["metrics"][metric] for s in seeds]
            new = [runs["new"][wl, s]["metrics"][metric] for s in seeds]
            assert row["base"] == pytest.approx(quartiles(base), rel=1e-12)
            assert row["new"] == pytest.approx(quartiles(new), rel=1e-12)
            med_b, med_n = statistics.median(base), statistics.median(new)
            assert row["ratio"] == (pytest.approx(med_n / med_b, rel=1e-12) if med_b else None)
            lower = BETTER[metric] == "lower"
            new_better = [(y < x) if lower else (y > x) for x, y in zip(base, new)]
            base_better = [(x < y) if lower else (x > y) for x, y in zip(base, new)]
            assert row["wins"] == [sum(base_better), sum(new_better)]
        # no workload fails a larger share of its operations, and no end-to-end
        # metric is worse than its bound
        failed = {side: sum(runs[side][wl, s]["failed"] for s in seeds) for side in ("base", "new")}
        attempted = {side: sum(runs[side][wl, s]["attempted"] for s in seeds)
                     for side in ("base", "new")}
        assert failed["new"] * attempted["base"] <= failed["base"] * attempted["new"]
        for metric, bound in BOUNDS.items():
            if metric in rec["summary"][wl]:
                ratio = rec["summary"][wl][metric]["ratio"]
                assert (ratio <= 1 + bound) if BETTER[metric] == "lower" else (ratio >= 1 - bound)

    # a claim holds: the change wins at least 9 in 10 of all pairs (ties count
    # for neither side), and its median is better by more than the distance
    # between the base's quartiles
    for claim in rec["claims"]:
        row = rec["summary"][claim["workload"]][claim["metric"]]
        sign = -1 if BETTER[claim["metric"]] == "lower" else 1
        gap = sign * (row["new"][1] - row["base"][1])
        spread = row["base"][2] - row["base"][0]
        assert claim["new_wins"] == row["wins"][1]
        assert claim["median_gap"] == pytest.approx(gap, rel=1e-12)
        assert claim["base_spread"] == pytest.approx(spread, rel=1e-12)
        assert claim["holds"] is (10 * row["wins"][1] >= 9 * len(seeds) and gap > spread)
        assert claim["holds"] and len(seeds) >= 10


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_its_raw_runs(path):
    check_record(json.loads(path.read_text()))


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_an_edited_raw_value_is_caught(path):
    edited = json.loads(path.read_text())
    metric = next(iter(edited["runs"]["new"][0]["metrics"]))
    for run in edited["runs"]["new"]:
        run["metrics"][metric] += 1.0  # the stored summary no longer matches the runs
    with pytest.raises(AssertionError):
        check_record(edited)
