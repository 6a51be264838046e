import dataclasses
import hashlib
import inspect
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from homlab import containers, experiments
from homlab.containers import ContainerParams, minimal_ell
from homlab.errors import CapabilityError, InputError, ParameterError
from homlab.experiments import (
    ComboSummary,
    ExperimentConfig,
    ReportRow,
    _precondition_ok,
    _vectorized_tables,
    emit_report,
    exhaustive_graph_container_check,
    render_value,
    run_experiment,
    spot_check_vectorized,
)


def test_config_json_roundtrip():
    doc = {"kind": "triangle-scan", "generator": {}, "grid": {"m": 6, "samples": 4},
           "seeds": [1, 2], "out": None}
    assert ExperimentConfig.from_json(json.dumps(doc)) == ExperimentConfig(**doc)


def test_config_rejects_bad_json():
    with pytest.raises(InputError):
        ExperimentConfig.from_json("{nope")
    with pytest.raises(InputError):
        ExperimentConfig.from_json("{}")
    with pytest.raises(InputError):
        ExperimentConfig.from_json('{"kind": "triangle-scan", "caps": {"wall_seconds": 60}}')


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        run_experiment(ExperimentConfig(kind="no-such-kind"))


def test_config_seeds_become_a_tuple_of_distinct_seeds():
    assert ExperimentConfig(kind="triangle-scan", seeds=[3, 1]).seeds == (3, 1)
    with pytest.raises(InputError):
        ExperimentConfig(kind="triangle-scan", seeds=(1, 1))


def test_exhaustive_kind_takes_no_seeds():
    grid = {"n": 4, "eps": ["1/2"], "u": [2], "k": [2, 3]}
    rows = run_experiment(ExperimentConfig(kind="graph-container-exhaustive", grid=grid))
    assert [r.instance for r in rows] == ["n4-eps1/2-u2-k2", "n4-eps1/2-u2-k3"]
    with pytest.raises(InputError):
        run_experiment(ExperimentConfig(kind="graph-container-exhaustive", grid=grid, seeds=(0,)))


def _declared(kind):
    """Each (config field, key, default) the kind declares."""
    spec = experiments._KINDS[kind]
    return [(what, key, default) for what, keys in (("generator", spec.generator),
                                                    ("grid", spec.grid))
            for key, (_, default) in keys.items()]


@pytest.mark.parametrize("kind", sorted(experiments._KINDS))
def test_each_kind_declares_exactly_the_keys_its_builder_takes(kind):
    spec = experiments._KINDS[kind]
    experiment, seed, *options = inspect.signature(spec.rows).parameters
    assert (experiment, seed) == ("experiment", "seed")
    assert not set(spec.grid) & set(spec.generator)
    assert sorted(key for _, key, _ in _declared(kind)) == sorted(options)


@pytest.mark.parametrize("kind", sorted(experiments._KINDS))
def test_an_absent_key_takes_its_default_and_null_is_an_error(kind):
    resolved = ExperimentConfig(kind=kind)._options
    for what, key, default in _declared(kind):
        if default is not None:
            assert ExperimentConfig(kind=kind, **{what: {key: default}})._options == resolved
        with pytest.raises(InputError, match=f"{what} key {key!r}"):
            ExperimentConfig(kind=kind, **{what: {key: None}})


# A small config of each kind; the boundary test sets one declared key at a time.
_BOUNDARY_BASE = {
    "graph-container-exhaustive": {"grid": {"n": 3}},
    "hypergraph-container-sample": {"grid": {"n": [8], "count": 1}},
    "homog-count-pipeline": {"grid": {"n": 8, "count": 1}},
    "closeness-pipeline": {"grid": {"n": 8, "count": 1}},
    "overlay-audit": {"grid": {"n": 8, "eps": ["1/4"]}},
    "eps-homog-curve": {"generator": {"kind": "gnp"}, "grid": {"n": 8, "eps": ["1/4"]}},
    "triangle-scan": {"grid": {"m": 4, "samples": 2}},
}
_BOUNDARY_VALUES = [-1, 0, 1, 2, 2.5, True, "3", "0", "1/2", "-1/2", None, [], [0], [-1], ["1/2"]]


@pytest.mark.parametrize("kind", sorted(experiments._KINDS))
def test_each_declared_key_at_a_boundary_value_gives_rows_or_a_homlab_error(kind):
    crashes = []
    for what, key, _ in _declared(kind):
        for value in _BOUNDARY_VALUES:
            doc = {**_BOUNDARY_BASE[kind]}
            doc[what] = {**doc.get(what, {}), key: value}
            try:
                run_experiment(ExperimentConfig(kind=kind, **doc))
            except (InputError, CapabilityError):
                pass
            except Exception as exc:  # any other exception is a crash: exit 1 with a traceback
                crashes.append(f"{what} {key}={value!r}: {type(exc).__name__}: {exc}")
    assert not crashes


def test_exhaustive_above_the_cap_lists_no_default_u_or_k():
    # the default u and k run up to n; the n <= 7 cap fires before either is listed
    config = ExperimentConfig(kind="graph-container-exhaustive", grid={"n": 10**6})
    tracemalloc.start()
    try:
        rows = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.verdict for r in rows] == ["error:capability"]
    assert peak < 1 << 20


def test_render_value_formats():
    assert render_value(Fraction(3, 7)) == "3/7"
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(0.1 + 0.2) == "0.3"
    assert render_value(12) == "12"


def test_emit_report_header_only_when_empty():
    assert emit_report([]) == "experiment,instance_id,verdict\n"


def test_emit_report_stable_columns():
    rows = [
        ReportRow("demo", "a", (("n", 3),), (("value", Fraction(1, 2)),), "ok"),
        ReportRow("demo", "b", (("n", 4),), (("value", Fraction(1, 3)),), "ok"),
    ]
    text = emit_report(rows)
    assert text.splitlines()[0] == "experiment,instance_id,n,value,verdict"
    doc = json.loads(emit_report(rows, format="json"))
    assert doc[0]["value"] == "1/2"


def test_emit_report_rejects_unknown_format():
    with pytest.raises(InputError):
        emit_report([], format="xml")


# ---------------------------------------------------------------------------
# the vectorized exhaustive sweep


def test_vectorized_sweep_agrees_with_scalar_oracles():
    eps_values = [Fraction(1, 2), Fraction(1)]
    u_values = [2, 3]
    codes = [0, 1, 7, 100, 255, 500, 777, 1023]
    spot_check_vectorized(5, eps_values, u_values, codes)


def reference_tables(n, eps_values, u_values, codes):
    """The sweep's earlier kernel, kept as a reference: degrees by a popcount
    lookup table, independence by scanning each subset's edge code, and one
    precondition array per (eps, u) ANDed subset by subset."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    codes = np.asarray(codes, dtype=np.uint32)
    adj = [np.zeros(len(codes), dtype=np.uint8) for _ in range(n)]
    for b, (u, v) in enumerate(pairs):
        bit = ((codes >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
        adj[u] |= bit << np.uint8(v)
        adj[v] |= bit << np.uint8(u)
    pop = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    counts = [np.zeros(len(codes), dtype=np.int16) for _ in range(n + 1)]
    ok = {(eps, u): np.ones(len(codes), dtype=bool) for eps in eps_values for u in u_values}
    for smask in range(1 << n):
        svertices = [v for v in range(n) if smask >> v & 1]
        size = len(svertices)
        ew_code = 0
        for b, (u, v) in enumerate(pairs):
            if smask >> u & 1 and smask >> v & 1:
                ew_code |= 1 << b
        counts[size] += (codes & np.uint32(ew_code)) == 0
        if size == 0:
            continue
        maxdeg = np.zeros(len(codes), dtype=np.uint8)
        for v in svertices:
            np.maximum(maxdeg, pop[adj[v] & np.uint8(smask)], out=maxdeg)
        for eps in eps_values:
            thr = eps * size - 1
            if thr <= 0:
                continue
            cond = maxdeg >= -((-thr.numerator) // thr.denominator)
            for u in u_values:
                if size >= u:
                    ok[(eps, u)] &= cond
    return counts, ok


REFERENCE_EPS = [Fraction(e) for e in ("1/7", "1/4", "1/3", "1/2", "2/3", "1")]


def assert_tables_match_reference(n, codes, counts, low):
    u_values = list(range(-1, n + 3))  # u <= 0 and u > n included
    ref_counts, ref_ok = reference_tables(n, REFERENCE_EPS, u_values, codes)
    for k in range(n + 1):
        assert np.array_equal(counts[k], ref_counts[k]), k
    for (eps, u), expected in ref_ok.items():
        assert np.array_equal(_precondition_ok(low, n, eps, u), expected), (eps, u)


@pytest.mark.parametrize("n", range(1, 7))
def test_tables_match_the_reference_kernel_on_every_graph(n):
    counts, low = _vectorized_tables(n)
    assert counts.shape == low.shape == (n + 1, 1 << n * (n - 1) // 2)
    assert_tables_match_reference(n, np.arange(1 << n * (n - 1) // 2), counts, low)


def test_tables_built_in_many_blocks_match_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(experiments, "_BLOCK", 48)  # 1024 codes: 21 full blocks and a partial one
    counts, low = _vectorized_tables(5)
    assert_tables_match_reference(5, np.arange(1 << 10), counts, low)


def test_tables_match_the_reference_kernel_on_seeded_seven_vertex_codes():
    codes = np.random.default_rng(7).integers(0, 1 << 21, size=64, dtype=np.uint32)
    counts, low = _vectorized_tables(7, codes)
    assert_tables_match_reference(7, codes, counts, low)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tables_on_a_code_subset_are_the_full_tables_at_those_codes(n):
    full_counts, full_low = _vectorized_tables(n)
    codes = np.random.default_rng(n).permutation(1 << n * (n - 1) // 2)[:100].astype(np.uint32)
    counts, low = _vectorized_tables(n, codes)
    assert np.array_equal(counts, full_counts[:, codes])
    assert np.array_equal(low, full_low[:, codes])


def test_spot_check_rejects_codes_outside_the_graph_range():
    with pytest.raises(InputError):
        spot_check_vectorized(4, [Fraction(1, 2)], [2], [1 << 6])
    with pytest.raises(InputError):
        spot_check_vectorized(4, [Fraction(1, 2)], [2], [-1])


def test_sweep_summaries_have_no_violations_at_n5():
    summaries = exhaustive_graph_container_check(
        5, [Fraction(1, 4), Fraction(1, 2), Fraction(1)], [1, 2, 3, 4, 5], range(6)
    )
    assert summaries
    assert all(s.violations == 0 for s in summaries)
    assert all(s.instances_checked <= 1 << 10 for s in summaries)


def test_sweep_capability_cap():
    from homlab.errors import CapabilityError

    with pytest.raises(CapabilityError):
        exhaustive_graph_container_check(8, [Fraction(1)], [1], [1])


def reference_sweep(n, eps_values, u_values, k_values):
    """The sweep's earlier reduction, kept as a reference: the whole tables
    first, then one precondition array per (eps, u) over all the graphs."""
    counts, low = _vectorized_tables(n)
    eps_values, u_values, k_values = list(eps_values), list(u_values), list(k_values)

    def exceeding(ok_arr, k, bound):
        if bound >= math.comb(n, k):
            return 0
        return int(np.count_nonzero(ok_arr & (counts[k] > bound)))

    summaries = []
    for eps in eps_values:
        for u in u_values:
            ok_arr = _precondition_ok(low, n, eps, u)
            checked = int(np.count_nonzero(ok_arr))
            ell = minimal_ell(n, eps, u)
            for k in k_values:
                if ell > k:
                    continue
                params = ContainerParams(eps, u=u, ell=ell, k=k)
                bound = containers.kw_bound(n, params)
                improved = containers.kw_bound(n, params, improved=True)
                viol = exceeding(ok_arr, k, bound)
                viol_improved = exceeding(ok_arr, k, improved)
                summaries.append(ComboSummary(
                    n=n, epsilon=eps, u=u, k=k, ell=ell, bound=bound, instances_checked=checked,
                    violations=viol, improved_bound_violations=viol_improved))
    return summaries


SWEEP_EPS = [Fraction(e) for e in ("1/8", "1/4", "1/2", "3/4", "1")]


def sweep_grids(n):
    eps, u, k = SWEEP_EPS, range(1, n + 4), range(n + 3)
    return [(eps, u, k), ([], u, k), (eps, [], k), (eps, u, [])]


@pytest.mark.parametrize("block", [1 << 16, 48])  # 48: many blocks and a partial one
@pytest.mark.parametrize("n", range(7))
def test_block_reduction_matches_the_whole_table_reduction(monkeypatch, n, block):
    monkeypatch.setattr(experiments, "_BLOCK", block)
    for grid in sweep_grids(n):
        expected = reference_sweep(n, *grid)
        assert repr(exhaustive_graph_container_check(n, *grid)) == repr(expected), grid


def refusing(what):
    """A generator that fails when it is iterated."""
    raise AssertionError(f"{what} listed before n was checked")
    yield


@pytest.mark.parametrize("n, error", [(-1, InputError), (8, CapabilityError)])
def test_sweep_refuses_n_before_listing_any_value(n, error):
    with pytest.raises(error):
        exhaustive_graph_container_check(n, refusing("eps"), refusing("u"), refusing("k"))


@pytest.mark.parametrize("eps, u, message", [
    (Fraction(0), 3, "epsilon=0 outside (0,1]"),
    (Fraction(3, 2), 3, "epsilon=3/2 outside (0,1]"),
    (Fraction(1, 2), 0, "(1-eps)^ell * n stays above u=0 for every ell"),
    (Fraction(1), 0, "u must be a positive integer"),
])
def test_sweep_refuses_bad_parameters_with_the_same_text(eps, u, message):
    with pytest.raises(ParameterError) as info:
        exhaustive_graph_container_check(5, [eps], [3, u], range(6))
    assert str(info.value) == message


def test_sweep_holds_no_table_of_all_graphs():
    # the whole (8, 2^21) tables and code array would take about 42 MB
    tracemalloc.start()
    try:
        exhaustive_graph_container_check(7, [Fraction(1, 2)], [3], [4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# runner determinism


SMALL_CONFIGS = [
    ExperimentConfig(
        kind="hypergraph-container-sample",
        grid={"n": [8], "p": ["4/5"], "eps": ["1/8"], "count": 2},
        seeds=(0, 1, 2),
    ),
    ExperimentConfig(kind="triangle-scan", grid={"m": 5, "samples": 4}, seeds=(3, 4)),
    ExperimentConfig(
        kind="eps-homog-curve",
        generator={"kind": "cograph"},
        grid={"n": 24, "eps": ["1/4", "1/8"]},
        seeds=(0, 1),
    ),
]


@pytest.mark.parametrize("cfg", SMALL_CONFIGS, ids=lambda c: c.kind)
def test_worker_count_does_not_change_report(cfg):
    base = emit_report(run_experiment(cfg, workers=1))
    for workers in (2, 4):
        assert emit_report(run_experiment(cfg, workers=workers)) == base


@pytest.mark.parametrize("cfg", SMALL_CONFIGS, ids=lambda c: c.kind)
def test_rows_are_the_one_seed_rows_in_seed_order(cfg):
    one_seed = [
        run_experiment(dataclasses.replace(cfg, seeds=(seed,))) for seed in reversed(cfg.seeds)
    ]
    reversed_cfg = dataclasses.replace(cfg, seeds=tuple(reversed(cfg.seeds)))
    assert run_experiment(reversed_cfg, workers=2) == [row for rows in one_seed for row in rows]


def test_rerun_is_byte_identical():
    cfg = SMALL_CONFIGS[0]
    assert emit_report(run_experiment(cfg)) == emit_report(run_experiment(cfg))


def test_homog_pipeline_rows_verify():
    cfg = ExperimentConfig(kind="homog-count-pipeline", grid={"count": 2}, seeds=(0,))
    rows = run_experiment(cfg)
    assert rows and all(r.verdict in ("ok", "premise") for r in rows)


def test_closeness_pipeline_rows_verify():
    cfg = ExperimentConfig(kind="closeness-pipeline", grid={"count": 2}, seeds=(0,))
    rows = run_experiment(cfg)
    assert rows and all(r.verdict == "ok" for r in rows)


def test_hypergraph_rows_carry_spec_columns():
    rows = run_experiment(SMALL_CONFIGS[0])
    assert rows
    d = rows[0].as_dict()
    for column in ("instance_id", "n", "r", "eps", "u", "ell", "k", "exact_count", "bound", "ok"):
        assert column in d


def test_overlay_audit_default_constant_passes_at_n150():
    # the default embedding constant is the calibrated 1000 (worst observed ratio 681)
    cfg = ExperimentConfig(kind="overlay-audit", grid={"eps": ["1/20"]}, seeds=(0,))
    rows = run_experiment(cfg)
    assert [r.params[0] for r in rows] == [("n", 150)]
    assert all(r.verdict == "ok" for r in rows), rows


def test_triangle_scan_rows_end_with_the_worst_ratio():
    cfg = ExperimentConfig(kind="triangle-scan", grid={"m": 6, "samples": 20}, seeds=(5,))
    *samples, summary = run_experiment(cfg)
    assert [r.instance for r in samples] == [f"m6-s5-i{i}" for i in range(20)]
    ratios = [dict(r.measures)["ratio"] for r in samples]
    worst = dict(summary.measures)["worst_ratio"]
    assert worst > 0 and worst == max(r for r in ratios if r != "")
    for row, ratio in zip(samples, ratios):
        d = row.as_dict()
        if d["triangles"]:
            assert ratio == Fraction(d["dist"], 15) ** 2 * 6**3 / d["triangles"]


@pytest.mark.parametrize("grid", [{"m": 13, "samples": 1}, {"m": 12, "samples": 4097}],
                         ids=["m-above-12", "dp-states-above-2^24"])
def test_triangle_scan_above_a_cap_is_one_capability_row(grid):
    rows = run_experiment(ExperimentConfig(kind="triangle-scan", grid=grid))
    assert [r.verdict for r in rows] == ["error:capability"]


# The first 16 hex digits of the SHA-256 of one CSV report of each experiment
# kind (gate 10's configs among them), pinned across commits (gate 10 compares
# reruns of one commit only).
@pytest.mark.parametrize(
    "config, digest",
    [
        (ExperimentConfig(kind="hypergraph-container-sample",
                          grid={"n": [8, 9], "p": ["4/5"], "eps": ["1/8"], "count": 3},
                          seeds=(0, 1, 2)), "f8ca3de9c1a5c7e3"),
        (ExperimentConfig(kind="triangle-scan", grid={"m": 6, "samples": 10}, seeds=(0, 1)),
         "26174cf3c0b04f91"),
        (ExperimentConfig(kind="eps-homog-curve", generator={"kind": "bipartite"},
                          grid={"n": 30, "eps": ["1/4", "1/8"]}, seeds=(0, 1)),
         "f7435fbd09132c9c"),
        (ExperimentConfig(kind="homog-count-pipeline", grid={"count": 2}, seeds=(0, 1)),
         "bf8cf2eb68425547"),
        (ExperimentConfig(kind="graph-container-exhaustive", grid={"n": 5}), "db58574dc8de0d16"),
        (ExperimentConfig(kind="closeness-pipeline", grid={"count": 2}, seeds=(0, 1)),
         "af05bebbf27a2cf9"),
        (ExperimentConfig(kind="overlay-audit", grid={"n": 40, "eps": ["1/10", "1/5"]},
                          seeds=(0, 1)), "792795ecd44f484a"),
    ],
    ids=["hypergraph-container-sample", "triangle-scan", "eps-homog-curve", "homog-count-pipeline",
         "graph-container-exhaustive", "closeness-pipeline", "overlay-audit"],
)
def test_report_bytes_are_pinned(config, digest):
    csv = emit_report(run_experiment(config))
    assert hashlib.sha256(csv.encode()).hexdigest()[:16] == digest
