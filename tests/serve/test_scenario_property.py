"""Property-based ledger invariants for randomly drawn scenarios.

Hypothesis draws small multi-tenant scenarios — fleet size, rates,
priorities, queue bound, overload policy, cache on/off — and every one
must satisfy the ledger invariants the conformance harness enforces:

* percentiles monotone: p50 <= p95 <= p99 (totals and per tenant);
* conservation: served + dropped == arrivals;
* drop_rate in [0, 1];
* cache-enabled runs serve bit-identical scores to cache-off runs
  (compared per request id — the cache changes the billing schedule,
  never a score);
* ``shed-oldest`` never drops a request while a strictly
  lower-priority request sits queued (checked by re-deriving queue
  occupancy from the ledger, not by trusting the scheduler).

The served model is trained once per module and injected into every
runner, so each hypothesis example costs only trace generation plus the
simulated replay.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GBDT, TrainConfig
from repro.data.dataset import bin_dataset
from repro.data.synthetic import make_classification
from repro.serve import ModelRegistry
from repro.serve.scenarios import (LoadShape, Scenario, ScenarioRunner,
                                   TenantSpec, audit_priority_admission)

NUM_FEATURES = 8


@pytest.fixture(scope="module")
def served():
    dataset = make_classification(400, NUM_FEATURES, density=0.8,
                                  seed=77)
    config = TrainConfig(num_trees=2, num_layers=3, num_candidates=8,
                         learning_rate=0.3)
    registry = ModelRegistry()
    registry.publish(GBDT(config).fit(dataset).ensemble,
                     source="property v1")
    return registry, bin_dataset(dataset, 8).cuts


@st.composite
def scenarios(draw):
    num_tenants = draw(st.integers(1, 4))
    tenants = tuple(
        TenantSpec(
            name=f"t{i}",
            rate_rps=float(draw(st.integers(200, 1500))),
            slo_s=draw(st.sampled_from([0.005, 0.02, 0.1])),
            priority=draw(st.integers(0, 2)),
            repeat_rate=draw(st.sampled_from([0.0, 0.4])),
        )
        for i in range(num_tenants)
    )
    shape = draw(st.sampled_from([
        LoadShape(kind="steady"),
        LoadShape(kind="diurnal", amplitude=0.7, period_s=0.1),
        LoadShape(kind="flash", flash_at_s=0.05, flash_len_s=0.05,
                  flash_x=6.0),
    ]))
    max_batch = draw(st.sampled_from([8, 32]))
    return Scenario(
        name="prop",
        seed=draw(st.integers(0, 2**20)),
        duration_s=0.15,
        tenants=tenants,
        shape=shape,
        num_features=NUM_FEATURES,
        max_batch_size=max_batch,
        max_delay_s=0.002,
        max_queue=draw(st.sampled_from([0, 48])),
        overload=draw(st.sampled_from(["reject", "shed-oldest"])),
        num_workers=draw(st.integers(1, 2)),
        service_base_s=0.002,
        service_per_row_s=0.0001,
        cache_capacity=draw(st.sampled_from([0, 256])),
    )


def run(scenario, served):
    registry, cuts = served
    runner = ScenarioRunner(scenario, registry=registry, cuts=cuts)
    return runner, runner.run()


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_ledger_invariants(scenario, served):
    runner, report = run(scenario, served)
    totals = report["totals"]

    assert totals["p50_s"] <= totals["p95_s"] <= totals["p99_s"]
    assert totals["served"] + totals["dropped"] == totals["arrivals"]
    assert 0.0 <= totals["drop_rate"] <= 1.0
    for stats in report["tenants"].values():
        assert stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"]
        assert stats["served"] + stats["dropped"] == stats["arrivals"]
        assert 0.0 <= stats["drop_rate"] <= 1.0
        assert 0.0 <= stats["slo_violation_rate"] <= 1.0
    assert sum(s["arrivals"] for s in report["tenants"].values()) \
        == totals["arrivals"]

    assert report["invariants"]["scores_exact"]
    assert audit_priority_admission(runner.trace,
                                    runner.serving_report)


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_cache_is_invisible_in_the_scores(scenario, served):
    # unbounded queue: the cache changes the billing schedule, which
    # under a bounded queue can legitimately change *which* requests
    # are dropped — with no drops, both runs serve every request and
    # the per-request scores must match bit for bit
    scenario = dataclasses.replace(scenario, cache_capacity=256,
                                   max_queue=0)
    bare = dataclasses.replace(scenario, cache_capacity=0)
    with_cache = run(scenario, served)[0]
    without = run(bare, served)[0]

    def by_request(runner):
        report = runner.serving_report
        return dict(zip(report.request_id.tolist(), report.scores))

    cached, direct = by_request(with_cache), by_request(without)
    assert set(cached) == set(direct)
    for rid, row in cached.items():
        np.testing.assert_array_equal(row, direct[rid])


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios())
def test_shed_respects_priority_classes(scenario, served):
    scenario = dataclasses.replace(scenario, max_queue=48,
                                   overload="shed-oldest")
    runner, report = run(scenario, served)
    trace, ledger = runner.trace, runner.serving_report
    assert audit_priority_admission(trace, ledger)
    # every shed victim belonged to the lowest class among the requests
    # dropped or served after it arrived — spot-check the attribution
    for request, tenant, priority in zip(ledger.drop_id.tolist(),
                                         ledger.drop_tenant.tolist(),
                                         ledger.drop_priority.tolist()):
        assert tenant == trace.tenants[request]
        assert priority == trace.priorities[request]
