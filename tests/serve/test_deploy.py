"""Closed-loop deployment tests: canary, drift, rollback, promotion.

The two headline end-to-end properties, both under the
``canary-under-fire`` scenario (flash crowd + transport faults):

* a deliberately *degraded* canary (sign-flipped leaves) is detected by
  the drift monitor and auto-rolled-back, with **zero** requests served
  by the bad version after the rollback decision — asserted from the
  serving ledger, not from the controller's own claims — and a retrain
  closes the loop;
* a *healthy* canary (same-data half-size retrain) under the same seeds
  is promoted fleet-wide.

Both decision logs replay byte-identically, and the degraded episode is
pinned against a golden fixture exactly like the scenario reports.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ledger import (DEPLOY_SCHEMA, format_report, load_report,
                          report_bytes, save_report)
from repro.serve.deploy import (CanaryPolicy, DeployController,
                                DriftMonitor, RollbackPolicy,
                                audit_deploy, degrade_payload,
                                run_deploy)
from repro.serve.scenarios import get_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden" \
    / "deploy_canary_v1.json"


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("canary-under-fire", scale=0.25)


@pytest.fixture(scope="module")
def degraded(scenario):
    controller = DeployController(scenario, canary_model="degraded")
    return controller, controller.run()


@pytest.fixture(scope="module")
def healthy(scenario):
    controller = DeployController(scenario, canary_model="healthy")
    return controller, controller.run()


@pytest.fixture(scope="module")
def shadow(scenario):
    controller = DeployController(
        scenario, canary=CanaryPolicy(shadow=True),
        canary_model="degraded",
    )
    return controller, controller.run()


@pytest.fixture(scope="module")
def healthy_shadow(scenario):
    controller = DeployController(
        scenario, canary=CanaryPolicy(shadow=True),
        canary_model="healthy",
    )
    return controller, controller.run()


#: the {healthy, degraded} x {serve, shadow} grid of
#: ``bench/deploy_bench.py``: episode fixture -> the verdict it must reach
GRID = {"healthy": "promote", "healthy_shadow": "promote",
        "degraded": "rollback", "shadow": "rollback"}


@pytest.fixture(params=list(GRID))
def cell(request):
    controller, report = request.getfixturevalue(request.param)
    return controller, report, GRID[request.param]


def decision_kinds(report):
    return [d["kind"] for d in report["decisions"]]


class TestPolicies:
    def test_canary_policy_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            CanaryPolicy(fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            CanaryPolicy(fraction=1.0)
        with pytest.raises(ValueError, match="canary_workers"):
            CanaryPolicy(canary_workers=0)
        with pytest.raises(ValueError, match="start_frac"):
            CanaryPolicy(start_frac=1.0)

    def test_rollback_policy_validation(self):
        with pytest.raises(ValueError, match="window"):
            RollbackPolicy(window=1)
        with pytest.raises(ValueError, match="min_labels"):
            RollbackPolicy(min_labels=0)
        with pytest.raises(ValueError, match="margins"):
            RollbackPolicy(logloss_margin=0.0)

    def test_verdict_holds_until_evidence(self):
        policy = RollbackPolicy(min_labels=10)
        thin = {"labels": 5, "logloss": 2.0, "auc": 0.1}
        fat = {"labels": 100, "logloss": 0.5, "auc": 0.9}
        assert policy.verdict(fat, thin) == "hold"
        assert policy.verdict(thin, fat) == "hold"

    def test_verdict_needs_corroborating_evidence(self):
        """Logloss AND AUC must degrade together — one noisy metric
        transiently crossing its margin must not condemn a canary."""
        policy = RollbackPolicy(min_labels=10, logloss_margin=0.3,
                                auc_margin=0.2)
        good = {"labels": 50, "logloss": 0.5, "auc": 0.9}
        bad = {"labels": 50, "logloss": 0.9, "auc": 0.4}
        assert policy.verdict(good, bad) == "rollback"
        # logloss crossed, ranking still fine -> healthy
        assert policy.verdict(good, dict(bad, auc=0.85)) == "healthy"
        # ranking crossed, calibration still fine -> healthy
        assert policy.verdict(good, dict(bad, logloss=0.6)) == "healthy"

    def test_verdict_without_auc_falls_back_to_logloss(self):
        """A single-class window yields no ranking evidence; the AUC
        requirement is waived rather than treated as a veto."""
        policy = RollbackPolicy(min_labels=10, logloss_margin=0.3)
        good = {"labels": 50, "logloss": 0.5, "auc": None}
        bad = {"labels": 50, "logloss": 0.9, "auc": None}
        assert policy.verdict(good, bad) == "rollback"
        assert policy.verdict(good, dict(bad, logloss=0.7)) == "healthy"


class TestDriftMonitor:
    def test_window_is_bounded(self):
        monitor = DriftMonitor(window=4)
        for i in range(10):
            monitor.observe(1, i % 2, 0.5)
        snap = monitor.snapshot(1)
        assert snap["window"] == 4 and snap["labels"] == 10

    def test_auc_needs_both_classes(self):
        monitor = DriftMonitor(window=8)
        monitor.observe(1, 1, 0.9)
        monitor.observe(1, 1, 0.8)
        assert monitor.auc(1) is None
        monitor.observe(1, 0, 0.1)
        assert monitor.auc(1) == 1.0

    def test_logloss_separates_good_from_backwards(self):
        monitor = DriftMonitor(window=32)
        rng = np.random.default_rng(0)
        for _ in range(32):
            label = int(rng.random() < 0.5)
            prob = 0.9 if label else 0.1
            monitor.observe(1, label, prob)     # calibrated
            monitor.observe(2, label, 1 - prob)  # exactly backwards
        assert monitor.logloss(2) - monitor.logloss(1) > 1.0
        assert monitor.auc(1) > 0.95 and monitor.auc(2) < 0.05

    def test_unseen_version(self):
        monitor = DriftMonitor()
        assert monitor.logloss(7) is None and monitor.auc(7) is None
        assert monitor.snapshot(7)["window"] == 0


class TestDegradePayload:
    def test_flips_every_leaf_and_nothing_else(self, degraded):
        controller, _ = degraded
        original = controller.registry.get(1).payload
        broken = degrade_payload(original)
        assert broken is not original
        for tree, btree in zip(original["trees"], broken["trees"]):
            for key, node in tree["nodes"].items():
                if "weight" in node:
                    assert btree["nodes"][key]["weight"] == \
                        [-w for w in node["weight"]]
                else:
                    assert btree["nodes"][key] == node

    def test_degraded_model_scores_backwards(self, degraded):
        controller, _ = degraded
        rows = np.random.default_rng(3).standard_normal(
            (32, controller.scenario.num_features))
        raw_good = controller.registry.get(1).compiled.raw_scores(rows)
        raw_bad = controller.registry.get(2).compiled.raw_scores(rows)
        np.testing.assert_allclose(raw_bad, -raw_good)


class TestRouterValidation:
    def test_canary_pool_must_leave_an_incumbent(self, degraded):
        controller, _ = degraded
        scenario = controller.scenario
        bad = DeployController(
            scenario,
            canary=CanaryPolicy(canary_workers=scenario.num_workers),
            canary_model="degraded",
        )
        with pytest.raises(ValueError, match="incumbent worker"):
            bad.run()

    def test_canary_model_validated(self, scenario):
        with pytest.raises(ValueError, match="canary_model"):
            DeployController(scenario, canary_model="mediocre")


class TestDegradedEpisode:
    def test_verdict_and_decision_order(self, degraded):
        _, report = degraded
        assert report["verdict"] == "rollback"
        assert decision_kinds(report) == [
            "deploy", "canary-start", "rollback", "retrain",
        ]

    def test_monitor_condemned_the_canary(self, degraded):
        _, report = degraded
        incumbent = report["monitor"]["1"]
        canary = report["monitor"]["2"]
        margin = report["policy"]["rollback"]["logloss_margin"]
        assert canary["logloss"] - incumbent["logloss"] > margin
        assert incumbent["auc"] - canary["auc"] > 0.15

    def test_zero_canary_batches_after_rollback_decision(self, degraded):
        controller, report = degraded
        rollback = next(d for d in report["decisions"]
                        if d["kind"] == "rollback")
        served_by_canary = np.flatnonzero(
            controller.serving_report.batch_version == 2)
        assert served_by_canary.size, "the canary must have served first"
        assert (served_by_canary < rollback["batch_seq"]).all()

    def test_invariants_all_hold(self, degraded):
        _, report = degraded
        assert all(report["invariants"].values()), report["invariants"]

    def test_registry_end_state(self, degraded):
        controller, report = degraded
        assert report["registry"]["stages"] == {
            "1": "active", "2": "retired", "3": "canary",
        }
        assert report["versions"]["retrained"] == 3
        # a condemned model can never come back
        with pytest.raises(ValueError, match="refusing to re-stage"):
            controller.registry.stage_canary(2)

    def test_rollback_redeploys_incumbent_everywhere(self, degraded):
        controller, _ = degraded
        assert controller.replicas.deployed_versions() == \
            [1] * controller.scenario.num_workers

    def test_wire_kinds_present(self, degraded):
        _, report = degraded
        kinds = set(report["wire"]["bytes_by_kind"])
        assert {"deploy:model", "deploy:canary", "deploy:rollback",
                "deploy:decision"} <= kinds
        assert report["wire"]["retry_bytes"] > 0  # faults were live

    def test_byte_identical_replay(self, scenario, degraded):
        _, report = degraded
        again = run_deploy(scenario, canary_model="degraded")
        assert report_bytes(again) == report_bytes(report)


class TestHealthyEpisode:
    def test_promoted_and_rolled_out(self, healthy):
        controller, report = healthy
        assert report["verdict"] == "promote"
        assert decision_kinds(report) == [
            "deploy", "canary-start", "promote",
        ]
        assert controller.registry.active.version == 2
        assert controller.replicas.deployed_versions() == \
            [2] * controller.scenario.num_workers
        assert report["registry"]["stages"] == {
            "1": "published", "2": "active",
        }


class TestEveryCell:
    def test_split_near_target(self, cell):
        _, report, _ = cell
        split = report["split"]
        if report["mode"] == "shadow":
            assert split["canary_batches"] == 0
            return
        n = split["window_batches"]
        p = split["target_fraction"]
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(split["observed_fraction"] - p) < 4 * sigma + 1e-9

    def test_invariants_and_byte_identity(self, scenario, cell):
        controller, report, verdict = cell
        assert report["verdict"] == verdict
        assert all(report["invariants"].values()), report["invariants"]
        again = run_deploy(scenario, canary=controller.canary,
                           canary_model=controller.canary_model)
        assert report_bytes(again) == report_bytes(report)


class TestShadowEpisode:
    def test_canary_never_serves(self, shadow):
        controller, report = shadow
        assert report["mode"] == "shadow"
        assert not (controller.serving_report.batch_version == 2).any()
        assert report["invariants"]["shadow_serves_incumbent_only"]

    def test_shadow_still_detects_drift(self, shadow):
        _, report = shadow
        assert report["verdict"] == "rollback"
        assert report["monitor"]["2"]["labels"] > 0
        assert report["serving"]["shadow_batches"] > 0
        assert report["serving"]["shadow_rows"] > 0

    def test_shadow_bills_canary_compute(self, shadow):
        controller, _ = shadow
        # the canary worker's clock advanced even though it served no
        # batch — shadow capacity cost is real
        canary_worker = controller.router.canary_pool[0]
        assert controller.replicas._free[canary_worker] > 0.0


class TestLedgerAudit:
    def test_tampered_history_is_caught(self, degraded):
        """The audit must fail when the ledger contradicts the log."""
        controller, report = degraded
        serving = controller.serving_report
        rollback_seq = next(d["batch_seq"] for d in report["decisions"]
                            if d["kind"] == "rollback")
        assert audit_deploy(serving, report["decisions"], 1, 2,
                            shadow=False)["no_canary_after_rollback"]
        # the first batch after the rollback, relabelled as canary-served
        assert serving.batch_version.size > rollback_seq
        forged = serving.batch_version.copy()
        forged[rollback_seq] = 2
        audit = audit_deploy(
            dataclasses.replace(serving, batch_version=forged),
            report["decisions"], 1, 2, shadow=False)
        assert not audit["no_canary_after_rollback"]

    def test_split_rederived_from_ledger_alone(self, degraded):
        controller, report = degraded
        audit = audit_deploy(controller.serving_report,
                             report["decisions"], 1, 2, shadow=False)
        assert audit["split"] == {
            k: report["split"][k]
            for k in ("window_batches", "canary_batches",
                      "observed_fraction")
        }


class TestGoldenFixture:
    """``deploy_canary_v1.json`` pins the degraded episode byte-for-byte.

    Regenerate (only for a deliberate, reviewed format change) with::

        PYTHONPATH=src python -m repro.cli deploy --scale 0.25 \\
            --report-out tests/data/golden/deploy_canary_v1.json
    """

    def test_matches_byte_for_byte(self, degraded):
        _, report = degraded
        assert report_bytes(report) == GOLDEN.read_bytes()

    def test_fixture_parses_and_verdicts(self):
        fixture = json.loads(GOLDEN.read_text())
        assert fixture["schema"] == "deploy-report/v1"
        assert fixture["verdict"] == "rollback"
        assert all(fixture["invariants"].values())


class TestReportIO:
    def test_save_load_roundtrip(self, degraded, tmp_path):
        _, report = degraded
        path = tmp_path / "deploy.json"
        save_report(report, str(path))
        assert load_report(str(path), DEPLOY_SCHEMA) == json.loads(
            json.dumps(report))

    def test_save_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="not a deploy report"):
            save_report({"schema": "nope"},
                               str(tmp_path / "x.json"))

    def test_format_mentions_the_story(self, degraded):
        _, report = degraded
        text = format_report(report)
        assert "verdict: rollback" in text
        assert "drift monitor" in text
        assert "deploy:rollback" in text
        assert "VIOLATED" not in text
