"""Scenario suite conformance: determinism, golden fixture, invariants.

The headline property is byte-identity: a scenario is a pure function
from its declaration to its ``scenario-report/v1`` JSON, pinned against
a golden fixture exactly like the PR 4 golden model.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.ledger import (SCENARIO_SCHEMA, format_report, load_report,
                          percentile_summary, report_bytes, save_report)
from repro.serve import RequestTrace
from repro.serve.batcher import ServingReport
from repro.serve.scenarios import (SCENARIOS, LoadShape, Scenario,
                                   ScenarioRunner, TenantSpec,
                                   audit_priority_admission, build_trace,
                                   get_scenario)

from .reference_audit import reference_audit_priority_admission

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden" \
    / "scenario_flash_crowd_v1.json"


def expected_requests(scenario: Scenario) -> float:
    """Mean offered load of a scenario: each tenant's rate integrated
    over the window under the load shape."""
    total = 0.0
    shape = scenario.shape
    for tenant in scenario.tenants:
        base = tenant.rate_rps * scenario.duration_s
        if shape.kind == "flash":
            base += (tenant.rate_rps * (shape.flash_x - 1.0)
                     * min(shape.flash_len_s,
                           max(scenario.duration_s - shape.flash_at_s,
                               0.0)))
        elif shape.kind == "diurnal":
            w = 2.0 * np.pi / shape.period_s
            base += (tenant.rate_rps * shape.amplitude
                     * (1.0 - math.cos(w * scenario.duration_s)) / w)
        total += base
    return total


class TestDeclarations:
    def test_registry_ships_the_required_five(self):
        assert set(SCENARIOS) >= {
            "steady", "diurnal", "flash-crowd", "heavy-tail",
            "hot-swap-under-fire",
        }

    def test_tenant_validation(self):
        with pytest.raises(ValueError, match="rate_rps"):
            TenantSpec("t", rate_rps=0.0, slo_s=0.1)
        with pytest.raises(ValueError, match="slo_s"):
            TenantSpec("t", rate_rps=1.0, slo_s=-0.1)
        with pytest.raises(ValueError, match="repeat_rate"):
            TenantSpec("t", rate_rps=1.0, slo_s=0.1, repeat_rate=1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="unknown load shape"):
            LoadShape(kind="tidal")
        with pytest.raises(ValueError, match="amplitude"):
            LoadShape(kind="diurnal", amplitude=1.0)
        with pytest.raises(ValueError, match="flash_x"):
            LoadShape(kind="flash", flash_x=0.5)

    def test_scenario_validation(self):
        tenant = TenantSpec("t", rate_rps=10.0, slo_s=0.1)
        with pytest.raises(ValueError, match="at least one tenant"):
            Scenario(name="x", seed=0, duration_s=1.0, tenants=())
        with pytest.raises(ValueError, match="duration"):
            Scenario(name="x", seed=0, duration_s=0.0,
                     tenants=(tenant,))
        with pytest.raises(ValueError, match="unique"):
            Scenario(name="x", seed=0, duration_s=1.0,
                     tenants=(tenant, tenant))

    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_scaled_shrinks_window_and_landmarks(self):
        scenario = get_scenario("flash-crowd", scale=0.5)
        full = get_scenario("flash-crowd")
        assert scenario.duration_s == pytest.approx(
            full.duration_s * 0.5)
        assert scenario.shape.flash_at_s == pytest.approx(
            full.shape.flash_at_s * 0.5)
        swap = get_scenario("hot-swap-under-fire", scale=0.5)
        assert swap.hot_swap_at_s == pytest.approx(0.25)

    def test_shape_rates(self):
        diurnal = LoadShape(kind="diurnal", amplitude=0.5, period_s=1.0)
        assert diurnal.peak_rate(100.0) == pytest.approx(150.0)
        assert diurnal.rate_at(np.array([0.25]), 100.0)[0] \
            == pytest.approx(150.0)
        flash = LoadShape(kind="flash", flash_at_s=0.5, flash_len_s=0.1,
                          flash_x=4.0)
        rates = flash.rate_at(np.array([0.4, 0.55, 0.7]), 100.0)
        np.testing.assert_allclose(rates, [100.0, 400.0, 100.0])


class TestTraceBuilder:
    def test_deterministic(self):
        scenario = get_scenario("heavy-tail", scale=0.2)
        a, b = build_trace(scenario), build_trace(scenario)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.tenants, b.tenants)
        np.testing.assert_array_equal(a.priorities, b.priorities)

    def test_multi_tenant_annotations(self):
        scenario = get_scenario("heavy-tail", scale=0.1)
        trace = build_trace(scenario)
        assert trace.tenants is not None
        assert set(np.unique(trace.tenants)) <= set(range(8))
        # priorities follow the tenant table
        for i in range(min(trace.num_requests, 200)):
            tenant = scenario.tenants[trace.tenants[i]]
            assert trace.priorities[i] == tenant.priority

    def test_volume_tracks_expected_load(self):
        scenario = get_scenario("flash-crowd")
        trace = build_trace(scenario)
        expect = expected_requests(scenario)
        assert 0.8 * expect < trace.num_requests < 1.2 * expect

    def test_repeats_duplicate_rows(self):
        scenario = dataclasses.replace(
            get_scenario("steady", scale=0.2),
            tenants=(TenantSpec("web", rate_rps=2500.0, slo_s=0.03,
                                repeat_rate=0.5),),
        )
        trace = build_trace(scenario)
        seen = {row.tobytes() for row in trace.features}
        assert len(seen) < trace.num_requests


@pytest.fixture(scope="module")
def flash_report():
    return ScenarioRunner(get_scenario("flash-crowd")).run()


def _model_grid_cell(trees, layers, batch):
    """One cell of ``bench/scenario_bench.py``'s batch x trees x depth
    sweep over ``steady``: the served model's shape, the batching window
    and the per-row service cost all move together."""
    base = get_scenario("steady", scale=0.4)
    offered_rate = sum(t.rate_rps for t in base.tenants)
    return dataclasses.replace(
        base, name=f"grid-t{trees}-l{layers}-b{batch}",
        model_trees=trees, model_layers=layers, max_batch_size=batch,
        max_delay_s=batch / offered_rate,
        service_per_row_s=base.service_per_row_s * trees * layers / 16)


#: every shipped scenario, plus the corners of the bench's model grid
REPLAYED = {name: get_scenario(name) for name in SCENARIOS}
REPLAYED.update((cell.name, cell) for cell in (
    _model_grid_cell(4, 3, 32), _model_grid_cell(16, 5, 128)))


class TestDeterminism:
    @pytest.mark.parametrize("name", REPLAYED)
    def test_byte_identical_replay(self, name):
        report = ScenarioRunner(REPLAYED[name]).run()
        assert all(report["invariants"].values()), report["invariants"]
        again = ScenarioRunner(REPLAYED[name]).run()
        assert report_bytes(report) == report_bytes(again)

    def test_golden_fixture_byte_for_byte(self, flash_report):
        assert GOLDEN.exists(), (
            "golden fixture missing — regenerate with "
            "save_report(ScenarioRunner(get_scenario("
            "'flash-crowd')).run(), ...)"
        )
        assert report_bytes(flash_report) == GOLDEN.read_bytes()


class TestRunner:
    def test_flash_crowd_sheds_under_burst(self, flash_report):
        totals = flash_report["totals"]
        assert totals["dropped"] > 0
        assert totals["served"] + totals["dropped"] == totals["arrivals"]
        assert all(flash_report["invariants"].values())

    def test_heavy_tail_priority_stratification(self):
        report = ScenarioRunner(get_scenario("heavy-tail")).run()
        assert all(report["invariants"].values())
        by_priority = {0: [], 1: [], 2: []}
        for stats in report["tenants"].values():
            by_priority[stats["priority"]].append(stats["drop_rate"])
        # the lowest class pays for the overload; the top class rides
        # free — that is what priority admission is for
        assert min(by_priority[0]) > max(by_priority[1])
        assert max(by_priority[2]) == 0.0

    def test_per_tenant_stats_follow_the_records(self):
        # the report selects each tenant's latencies with a mask over
        # one gathered column; it must see what a record-by-record
        # walk through the single-request accessors sees, in that order
        runner = ScenarioRunner(get_scenario("heavy-tail", scale=0.3))
        report = runner.run()
        trace, ledger = runner.trace, runner.serving_report
        for index, tenant in enumerate(runner.scenario.tenants):
            lat = np.asarray(
                [ledger.batch_completion_s[batch] - arrival
                 for request, batch, arrival in zip(
                     ledger.request_id.tolist(),
                     ledger.request_batch.tolist(),
                     ledger.request_arrival_s.tolist())
                 if trace.tenants[request] == index])
            stats = report["tenants"][tenant.name]
            summary = percentile_summary(lat)
            assert stats["served"] == lat.size > 0
            for key in ("p50_s", "p95_s", "p99_s", "max_s"):
                assert stats[key] == summary[key]
            assert stats["dropped"] == sum(
                tenant == index for tenant in ledger.drop_tenant.tolist())
            assert stats["slo_violations"] == stats["dropped"] \
                + int((lat > tenant.slo_s).sum())

    def test_hot_swap_under_fire(self):
        runner = ScenarioRunner(get_scenario("hot-swap-under-fire"))
        report = runner.run()
        assert report["versions_served"] == [1, 2]
        assert all(report["invariants"].values())
        assert report["wire"]["retry_bytes"] > 0      # faults fired
        assert report["cache"]["invalidations"] >= 1  # swap flushed it

    @pytest.mark.parametrize("name", [
        name for name, scenario in REPLAYED.items()
        if scenario.cache_capacity > 0])
    def test_cache_absorbs_repeats_and_never_changes_a_score(self, name):
        scenario = REPLAYED[name]
        cached = ScenarioRunner(scenario)
        report = cached.run()
        assert report["cache"]["hit_rate"] > 0.1
        assert all(report["invariants"].values())
        # the cache changes the billing schedule, never a score: the
        # same replay with the cache off serves every request the same
        # bits (compared per request id)
        bare = ScenarioRunner(
            dataclasses.replace(scenario, cache_capacity=0),
            registry=cached.registry, cuts=cached.cuts)
        bare.run()

        def scores_by_request(runner):
            ledger = runner.serving_report
            return dict(zip(ledger.request_id.tolist(), ledger.scores))

        with_cache, without = scores_by_request(cached), \
            scores_by_request(bare)
        assert with_cache.keys() == without.keys()
        for request, row in with_cache.items():
            assert np.array_equal(row, without[request])

    def test_injected_registry_reused(self):
        scenario = get_scenario("steady", scale=0.1)
        first = ScenarioRunner(scenario)
        first.run()
        second = ScenarioRunner(scenario, registry=first.registry,
                                cuts=first.cuts)
        second.run()
        assert second.registry is first.registry


class TestAudit:
    def test_catches_a_priority_violation(self):
        # hand-built ledger: request 0 (priority 2) shed at t=1.0 while
        # request 1 (priority 0) sat queued — the invariant must trip
        trace = RequestTrace(
            features=np.zeros((3, 2)),
            arrivals=np.array([0.0, 0.5, 1.0]),
            priorities=np.array([2, 0, 1], dtype=np.int32),
        )
        report = ServingReport(
            batch_size=[2], batch_close_s=[2.0], batch_start_s=[2.0],
            batch_completion_s=[3.0], batch_worker=[0], batch_version=[1],
            request_id=[1, 2], request_batch=[0, 0],
            request_arrival_s=trace.arrivals[[1, 2]],
            drop_id=[0], drop_s=[1.0], drop_reason=["shed-oldest"],
            drop_tenant=[0], drop_priority=[2], offered=3)
        assert not audit_priority_admission(trace, report)
        assert not reference_audit_priority_admission(trace, report)
        # same ledger without priorities: nothing to audit
        bare = RequestTrace(features=np.zeros((3, 2)),
                            arrivals=np.array([0.0, 0.5, 1.0]))
        assert audit_priority_admission(bare, report)
        assert reference_audit_priority_admission(bare, report)


class TestLedgerIO:
    def test_save_load_round_trip(self, flash_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(flash_report, str(path))
        assert load_report(str(path), SCENARIO_SCHEMA) == flash_report
        assert path.read_bytes() == report_bytes(flash_report)

    def test_schema_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="not a scenario report"):
            save_report({"schema": "wrong"}, "/dev/null")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro-run-report/v1"}))
        with pytest.raises(ValueError, match="not a scenario report"):
            load_report(str(path), SCENARIO_SCHEMA)

    def test_format_mentions_every_tenant(self, flash_report):
        text = format_report(flash_report)
        for tenant in flash_report["tenants"]:
            assert tenant in text
        assert "invariants" in text and "p99" in text


class TestCli:
    def test_list_run_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

        path = tmp_path / "steady.json"
        assert main(["scenarios", "run", "steady", "--scale", "0.1",
                     "--report-out", str(path)]) == 0
        report = load_report(str(path), SCENARIO_SCHEMA)
        assert report["scenario"] == "steady"
        assert all(report["invariants"].values())

        assert main(["ledger", str(path)]) == 0
        assert "scenario report — steady" in capsys.readouterr().out

    def test_smoke_runs_everything(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "reports"
        assert main(["scenarios", "run", "--smoke",
                     "--report-out", str(out_dir)]) == 0
        capsys.readouterr()
        written = {p.stem for p in out_dir.glob("*.json")}
        assert written == set(SCENARIOS)
