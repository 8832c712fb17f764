"""Adaptive re-planning (DESIGN.md §13): calibration and the policy.

Three layers of contract:

1. *Calibration inverts the pricing* — constants fitted to an observed
   ledger reproduce that ledger through :func:`price_plans`, exactly on
   synthetic reports (hypothesis property) and on real training runs.
2. *Pinned switch regime* — starting qd1 on a many-feature workload
   over a slow wire, where qd3 wins, the session must migrate mid-run,
   stay on qd3, and finish with a total modeled cost strictly below the
   worse static plan.
3. *Pinned stay regime* — starting qd3 in the same environment, the
   policy records its decisions but never migrates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, TrainConfig, make_classification
from repro.config import NetworkModel
from repro.data.dataset import bin_dataset
from repro.ledger import format_report, run_report
from repro.systems import make_adaptive_session
from repro.systems.advisor import (AdaptivePolicy, CalibratedConstants,
                                   calibrate_constants, plan_comm_seconds,
                                   price_plans)
from repro.systems.costmodel import WorkloadShape
from repro.systems.plans import PLANS, get_plan, plan_keys

from .test_chaos import tree_signature


class FakeReport:
    def __init__(self, comp_seconds, comm_seconds):
        self.comp_seconds = comp_seconds
        self.comm_seconds = comm_seconds


@settings(max_examples=60, deadline=None)
@given(
    plan_key=st.sampled_from(plan_keys()),
    comp_mean=st.floats(1e-6, 1e3),
    comm_mean=st.floats(1e-6, 1e3),
    jitter=st.floats(0.5, 1.5),
    num_reports=st.integers(1, 8),
    num_instances=st.integers(64, 5000),
    num_features=st.integers(4, 200),
    num_workers=st.integers(2, 8),
)
def test_property_calibration_reproduces_observed_ledger(
        plan_key, comp_mean, comm_mean, jitter, num_reports,
        num_instances, num_features, num_workers):
    """For any plan, shape, and observed per-tree costs, pricing the
    observed plan under the calibrated constants reproduces the observed
    mean compute and communication seconds within float tolerance."""
    shape = WorkloadShape(
        num_instances=num_instances, num_features=num_features,
        num_workers=num_workers, num_layers=4, num_candidates=8,
    )
    network = NetworkModel(bandwidth_gbps=1.0)
    # reports jitter around the mean; calibration sees only their mean
    reports = [
        FakeReport(comp_mean * (jitter if i % 2 else 2.0 - jitter),
                   comm_mean * (jitter if i % 2 else 2.0 - jitter))
        for i in range(num_reports)
    ]
    observed_comp = sum(r.comp_seconds for r in reports) / num_reports
    observed_comm = sum(r.comm_seconds for r in reports) / num_reports
    plan = get_plan(plan_key)
    constants = calibrate_constants(shape, 3.0, plan, reports, network)
    assert constants.trees_observed == num_reports
    priced = price_plans(shape, 3.0, network, constants)[plan_key]
    assert priced.comp_seconds == pytest.approx(observed_comp,
                                                rel=1e-9)
    assert priced.comm_seconds == pytest.approx(observed_comm,
                                                rel=1e-9)


def test_calibration_reproduces_a_real_run():
    binned = bin_dataset(
        make_classification(300, 20, density=0.4, seed=5), 8)
    cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    cluster = ClusterConfig(num_workers=4)
    result = get_plan("qd2").build(cfg, cluster).fit(binned)
    shape = WorkloadShape(
        num_instances=binned.num_instances,
        num_features=binned.num_features,
        num_workers=4, num_layers=4, num_candidates=8,
    )
    avg_nnz = binned.binned.nnz / binned.num_instances
    constants = calibrate_constants(
        shape, avg_nnz, get_plan("qd2"), result.tree_reports,
        cluster.network)
    priced = price_plans(shape, avg_nnz, cluster.network,
                         constants)["qd2"]
    assert priced.total_seconds == pytest.approx(
        result.mean_tree_seconds(), rel=1e-9)
    # the observed wire really ran, so the fitted scale is meaningful
    assert constants.comm_scale > 0
    assert constants.scan_rate > 0


def test_prior_constants_price_with_defaults():
    shape = WorkloadShape(num_instances=1000, num_features=50,
                          num_workers=4, num_layers=5,
                          num_candidates=16)
    network = NetworkModel()
    prior = price_plans(shape, 10.0, network)
    assert set(prior) == set(PLANS)
    for key, cost in prior.items():
        assert cost.plan_key == key
        assert cost.comp_seconds > 0
        assert cost.comm_seconds == pytest.approx(plan_comm_seconds(
            shape, PLANS[key], network, 10.0))


# --------------------------------------------------------------------------
# pinned regimes: the CI adapt job's auto-adapt E2E rows
# --------------------------------------------------------------------------

#: many features over a slow wire: horizontal aggregation is ruinous,
#: qd3's placement bitmaps are not — the regime where qd3 wins
SWITCH_CANDIDATES = ("qd1", "qd2", "qd3")


@pytest.fixture(scope="module")
def switch_workload():
    binned = bin_dataset(
        make_classification(300, 60, density=0.4, seed=5), 8)
    cluster = ClusterConfig(
        num_workers=4, network=NetworkModel(bandwidth_gbps=0.01))
    return binned, cluster


def run_adaptive(binned, cluster, start_plan):
    cfg = TrainConfig(num_trees=8, num_layers=4, num_candidates=8)
    session = make_adaptive_session(cfg, cluster, binned,
                                    start_plan=start_plan, every=2)
    session.policy.candidates = SWITCH_CANDIDATES
    return session.run(), session


class TestSwitchRegime:
    def test_qd1_start_switches_to_qd3_and_stays(self, switch_workload):
        binned, cluster = switch_workload
        result, session = run_adaptive(binned, cluster, "qd1")

        # switched exactly once, at the first consultation, to qd3
        assert result.plan_history == ["qd1", "qd3"]
        assert len(result.migrations) == 1
        assert result.migrations[0].tree_index == 2
        assert session.state.plan_key == "qd3"

        # the switch decision carries its full inputs; later decisions
        # keep confirming qd3 (stay regime after the switch)
        migrating = [d for d in result.decisions if d.migrate]
        assert len(migrating) == 1
        decision = migrating[0]
        assert decision.current_plan == "qd1"
        assert decision.target_plan == "qd3"
        assert decision.projected_savings_seconds > \
            decision.migration_seconds
        assert decision.scan_rate > 0
        assert decision.trees_remaining == 6
        assert set(decision.plan_costs) == set(PLANS)
        for later in result.decisions:
            if later.tree_index > decision.tree_index:
                assert not later.migrate
                assert later.current_plan == "qd3"

        # total modeled cost strictly beats the worse static plan
        static_cfg = TrainConfig(num_trees=8, num_layers=4,
                                 num_candidates=8)
        static = get_plan("qd1").build(static_cfg, cluster).fit(binned)
        assert result.total_modeled_seconds() < \
            static.total_modeled_seconds()

        # and the model is still bit-identical to any static run
        for mine, theirs in zip(result.ensemble.trees,
                                static.ensemble.trees):
            assert tree_signature(mine) == tree_signature(theirs)

    def test_decision_trail_lands_in_the_run_report(self,
                                                    switch_workload):
        binned, cluster = switch_workload
        result, _ = run_adaptive(binned, cluster, "qd1")
        report = run_report(result, system="auto-adapt")
        assert report["plan_history"] == ["qd1", "qd3"]
        assert len(report["migrations"]) == 1
        assert report["migrations"][0]["source_plan"] == "qd1"
        switches = [d for d in report["decisions"] if d["migrate"]]
        assert len(switches) == 1
        for key in ("scan_rate", "comm_scale",
                    "projected_savings_seconds", "migration_seconds"):
            assert key in switches[0]
        assert any(k.startswith("migrate:")
                   for k in report["comm"]["bytes_by_kind"])
        text = format_report(report)
        assert "adaptive decisions" in text
        assert "migrations" in text
        assert "migrate:checkpoint" in text

    def test_switch_regime_replays_bit_identical(self, switch_workload):
        # the wire ledger and decision structure replay exactly; the
        # calibrated scan rate is wall-clock-derived, so only the
        # deterministic decision fields are compared
        binned, cluster = switch_workload
        first, _ = run_adaptive(binned, cluster, "qd1")
        second, _ = run_adaptive(binned, cluster, "qd1")
        assert first.comm.bytes_by_kind == second.comm.bytes_by_kind
        assert first.plan_history == second.plan_history
        stable = ("tree", "source", "target", "migrate",
                  "trees_remaining", "comm_scale", "migration_seconds")
        for d1, d2 in zip(first.decisions, second.decisions):
            p1, p2 = d1.payload(), d2.payload()
            assert {k: p1[k] for k in stable} == \
                {k: p2[k] for k in stable}


class TestStayRegime:
    def test_qd3_start_never_migrates(self, switch_workload):
        binned, cluster = switch_workload
        result, _ = run_adaptive(binned, cluster, "qd3")
        assert result.plan_history == ["qd3"]
        assert result.migrations == []
        # the policy did run — it just kept deciding to stay
        assert result.decisions
        for decision in result.decisions:
            assert not decision.migrate
            assert decision.current_plan == "qd3"
        assert all(not k.startswith("migrate:")
                   for k in result.comm.bytes_by_kind)


class TestPolicyConstruction:
    SHAPE = WorkloadShape(num_instances=100, num_features=10,
                          num_workers=2, num_layers=3,
                          num_candidates=4)

    def test_validation(self):
        with pytest.raises(ValueError, match="every"):
            AdaptivePolicy(self.SHAPE, 2.0, NetworkModel(), every=0)
        with pytest.raises(ValueError, match="margin"):
            AdaptivePolicy(self.SHAPE, 2.0, NetworkModel(), margin=0.0)
        with pytest.raises(KeyError, match="unknown candidate"):
            AdaptivePolicy(self.SHAPE, 2.0, NetworkModel(),
                           candidates=("qd1", "nope"))

    def test_calibrate_rejects_empty_observations(self):
        with pytest.raises(ValueError, match="at least one"):
            calibrate_constants(self.SHAPE, 2.0, get_plan("qd1"), [],
                                NetworkModel())

    def test_constants_carry_the_prior(self):
        constants = CalibratedConstants(scan_rate=1e6, comm_scale=1.1,
                                        trees_observed=3)
        assert constants.prior_scan_rate > 0

    def test_make_adaptive_session_defaults(self):
        binned = bin_dataset(
            make_classification(120, 8, density=0.5, seed=2), 6)
        cfg = TrainConfig(num_trees=2, num_layers=3, num_candidates=6)
        session = make_adaptive_session(cfg, ClusterConfig(num_workers=2),
                                        binned)
        # the cadence defaults to 4; the advisor picked the opener
        assert session.policy.every == 4
        assert session.state.plan_key in PLANS
        session = make_adaptive_session(cfg, ClusterConfig(num_workers=2),
                                        binned, every=3)
        assert session.policy.every == 3
