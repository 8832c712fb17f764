"""The single report codec: ``save_report`` / ``load_report`` /
``format_report`` over the three known schemas."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ClusterConfig, TrainConfig, get_plan
from repro.ledger import (DEPLOY_SCHEMA, SCENARIO_SCHEMA, SCHEMA,
                          format_report, load_report, report_bytes,
                          run_report, save_report)

GOLDEN = Path(__file__).parent / "data" / "golden"
REPORT_FIXTURES = {
    "scenario_flash_crowd_v1.json": (SCENARIO_SCHEMA, "scenario report — "),
    "deploy_canary_v1.json": (DEPLOY_SCHEMA, "deploy report — "),
}
SCHEMAS = (SCHEMA, SCENARIO_SCHEMA, DEPLOY_SCHEMA)


@pytest.fixture(scope="module")
def trained_run_report(small_binary):
    config = TrainConfig(num_trees=2, num_layers=3, num_candidates=8)
    result = get_plan("qd2").build(config, ClusterConfig(2)).fit(
        small_binary)
    return run_report(result, system="lightgbm-style", dataset="small")


@pytest.mark.parametrize("fixture", sorted(REPORT_FIXTURES))
class TestGoldenFixtures:
    def test_load_save_round_trip_is_byte_identical(self, fixture,
                                                    tmp_path):
        schema, _ = REPORT_FIXTURES[fixture]
        golden = GOLDEN / fixture
        report = load_report(str(golden))
        assert report == load_report(str(golden), schema)
        assert report["schema"] == schema
        copy = tmp_path / fixture
        save_report(report, str(copy))
        assert copy.read_bytes() == golden.read_bytes() \
            == report_bytes(report)

    def test_format_dispatches_on_the_tag(self, fixture):
        _, title = REPORT_FIXTURES[fixture]
        report = load_report(str(GOLDEN / fixture))
        text = format_report(report)
        assert text.startswith(title + report["scenario"])
        assert "invariants" in text and "VIOLATED" not in text

    def test_pinned_to_another_schema_it_is_rejected(self, fixture):
        schema, _ = REPORT_FIXTURES[fixture]
        for other in SCHEMAS:
            if other != schema:
                with pytest.raises(ValueError, match="is not a "):
                    load_report(str(GOLDEN / fixture), other)


def test_run_report_round_trip(trained_run_report, tmp_path):
    path = tmp_path / "run.json"
    save_report(trained_run_report, str(path))
    # the bytes the pre-codec save_report wrote: text-mode json.dump
    legacy = json.dumps(trained_run_report, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == legacy.encode("utf-8")
    assert load_report(str(path), SCHEMA) == json.loads(legacy)
    text = format_report(load_report(str(path)))
    assert text.startswith("run report — lightgbm-style on small")
    assert "wire ledger" in text and "hist-aggregation" in text
    with pytest.raises(ValueError, match="is not a scenario report"):
        load_report(str(path), SCENARIO_SCHEMA)


def test_a_model_file_is_not_a_report(tmp_path):
    model = GOLDEN / "model_multiclass_v1.json"
    with pytest.raises(ValueError, match="unknown schema None"):
        load_report(str(model))
    with pytest.raises(ValueError, match="is not a run report"):
        load_report(str(model), SCHEMA)


@pytest.mark.parametrize("report", [
    {}, {"schema": None}, {"schema": "repro-run-report/v2"},
    {"schema": "wrong", "scenario": "x"},
])
def test_wrong_or_missing_schema_is_rejected_everywhere(report, tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="unknown schema"):
        save_report(report, str(path))
    assert not path.exists()
    with pytest.raises(ValueError, match="unknown schema"):
        format_report(report)
    path.write_text(json.dumps(report))
    with pytest.raises(ValueError, match="unknown schema"):
        load_report(str(path))
    for schema in SCHEMAS:
        with pytest.raises(ValueError, match="is not a "):
            load_report(str(path), schema)
