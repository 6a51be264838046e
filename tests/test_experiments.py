import json
from fractions import Fraction

import pytest

from homlab.errors import InputError
from homlab.experiments import (
    ExperimentConfig,
    ReportRow,
    emit_report,
    exhaustive_graph_container_check,
    render_value,
    run_experiment,
    spot_check_vectorized,
)


def test_config_json_roundtrip():
    cfg = ExperimentConfig(kind="triangle-scan", grid={"m": 6, "samples": 4}, seeds=(1, 2))
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


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


def test_render_value_formats():
    assert render_value(Fraction(3, 7)) == "3/7"
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(0.1 + 0.2) == "0.3"
    assert render_value(12) == "12"


def test_emit_report_header_only_when_empty():
    assert emit_report([]) == "experiment,instance_id,verdict\n"


def test_emit_report_stable_columns(tmp_path):
    rows = [
        ReportRow("demo", "a", (("n", 3),), (("value", Fraction(1, 2)),), "ok"),
        ReportRow("demo", "b", (("n", 4),), (("value", Fraction(1, 3)),), "ok"),
    ]
    text = emit_report(rows, path=str(tmp_path / "r.csv"))
    assert text.splitlines()[0] == "experiment,instance_id,n,value,verdict"
    assert (tmp_path / "r.csv").read_text() == text
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
