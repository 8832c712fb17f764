"""Property tests for the mixed-version invariant and the canary split.

Hypothesis drives the :class:`CanaryRouter` directly over a lightweight
harness (pre-trained module-scoped models, synthetic traces) so each
example costs milliseconds: whatever the split fraction, routing seed,
fleet partition, or shadow flag, every request is served by exactly one
version, canary traffic exists only inside the canary window, and the
split re-derived from the serving ledger alone via :func:`audit_deploy`
replays the router's seeded per-batch draws exactly.  Pooled over a
fixed run of seeds, that split stays inside binomial bounds of the
policy fraction.

The pinned chaos specs then run the *full* controller under distinct
fault schedules: the degraded canary must still be condemned, every
ledger invariant must hold, and the decision log must replay
byte-identically — fault injection may slow the episode down, but it
must never corrupt the verdict or the accounting.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GBDT, TrainConfig
from repro.core.serialize import ensemble_to_dict
from repro.ledger import report_bytes
from repro.serve import (BatchPolicy, CanaryPolicy, CanaryRouter,
                         DriftMonitor, MicroBatcher, ModelRegistry,
                         ReplicaSet, RollbackPolicy, audit_deploy,
                         emit_labels, synthetic_trace)
from repro.serve.deploy import (CANARY_KIND, ROLLBACK_KIND,
                                DeployController, degrade_payload)
from repro.serve.scenarios import get_scenario


@pytest.fixture(scope="module")
def models(small_binary):
    incumbent = GBDT(TrainConfig(
        num_trees=3, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble
    return incumbent, degrade_payload(ensemble_to_dict(incumbent))


def run_episode(models, fraction, seed, num_workers=3,
                canary_workers=1, shadow=False):
    """One router-level episode; returns (router, serving, decisions)."""
    incumbent, broken = models
    registry = ModelRegistry()
    registry.publish(incumbent)
    registry.publish(broken)
    registry.stage_canary(2)
    replicas = ReplicaSet(
        registry, ClusterConfig(num_workers=num_workers),
        service_model=lambda k: 0.0004 + 1e-5 * k,
    )
    trace = synthetic_trace(
        300, registry.get(1).compiled.num_features, 5000.0, seed=seed,
    )
    labels = emit_labels(trace, registry.get(1).compiled,
                         mean_delay_s=0.01, seed=seed)
    monitor = DriftMonitor(window=64)
    router = CanaryRouter(
        replicas, monitor,
        CanaryPolicy(fraction=fraction, canary_workers=canary_workers,
                     shadow=shadow, seed=seed),
        # margins high enough that the episode runs its whole course —
        # the split property needs the full canary window
        RollbackPolicy(window=64, min_labels=20, logloss_margin=50.0,
                       auc_margin=0.999),
        labels, 1, 2, canary_compiled=registry.get(2).compiled,
    )

    def on_rollback(at_s):
        registry.roll_back(2)
        replicas.deploy(1, at_s=at_s, workers=router.canary_pool,
                        kind=ROLLBACK_KIND)

    router.on_rollback = on_rollback
    replicas.deploy(1)

    def start_canary(at_s):
        replicas.deploy(2, at_s=at_s, workers=router.canary_pool,
                        kind=CANARY_KIND)
        router.mark_canary_started(at_s)

    serving = MicroBatcher(
        router, BatchPolicy(max_batch_size=8, max_delay_s=0.002),
    ).run(trace, swaps=[(float(trace.arrivals[20]), start_canary)])
    decisions = [{"kind": "canary-start",
                  "batch_seq": router.canary_start_seq}]
    if router.rolled_back:
        decisions.append({"kind": "rollback",
                          "batch_seq": router.rollback_seq})
    return router, serving, decisions


class TestMixedVersionProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**20),
        num_workers=st.integers(2, 5),
        shadow=st.booleans(),
    )
    def test_one_version_per_request_and_split_in_bounds(
            self, models, fraction, seed, num_workers, shadow):
        canary_workers = max(1, num_workers - 2)
        router, serving, decisions = run_episode(
            models, fraction, seed, num_workers=num_workers,
            canary_workers=canary_workers, shadow=shadow,
        )
        # conservation: every request accounted exactly once
        ids = [r.request_id for r in serving.records] \
            + [d.request_id for d in serving.dropped]
        assert sorted(ids) == list(range(300))
        audit = audit_deploy(serving, decisions, 1, 2, shadow=shadow)
        assert audit["single_version_per_request"]
        assert audit["no_canary_before_start"]
        assert audit["no_canary_after_rollback"]
        assert audit["shadow_serves_incumbent_only"]
        split = audit["split"]
        if shadow:
            assert split["canary_batches"] == 0
        else:
            # the router draws once per batch while the split is live,
            # so the ledger's window must replay its seeded draws
            # batch for batch
            window = [b.model_version for b in serving.batches
                      if decisions[0]["batch_seq"] <= b.batch_id
                      < decisions[0]["batch_seq"]
                      + split["window_batches"]]
            draws = np.random.default_rng(seed).random(len(window))
            assert window == [2 if d < fraction else 1 for d in draws]
            assert split["canary_batches"] == int((draws < fraction).sum())

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.875])
    def test_split_in_bounds(self, models, fraction):
        # one window is a few dozen Bernoulli draws, so a 4-sigma band
        # around the policy fraction fails for a few seeds in ten
        # thousand; pooled over a fixed run of seeds the band must hold
        n = canary = 0
        for seed in range(12):
            _, serving, decisions = run_episode(models, fraction, seed)
            split = audit_deploy(serving, decisions, 1, 2,
                                 shadow=False)["split"]
            n += split["window_batches"]
            canary += split["canary_batches"]
        assert n >= 20 * 12
        sigma = (fraction * (1 - fraction) / n) ** 0.5
        assert abs(canary / n - fraction) <= 4 * sigma + 1e-9


#: distinct fault schedules for the full-controller chaos battery
CHAOS_SPECS = [
    "3:drop=0.3",
    "17:timeout=0.2,drop=0.1",
    "29:drop=0.15,timeout=0.15,retries=6",
]


class TestChaosSeeds:
    @pytest.mark.parametrize("spec", CHAOS_SPECS)
    def test_faults_never_corrupt_the_verdict(self, spec):
        scenario = dataclasses.replace(
            get_scenario("canary-under-fire", scale=0.25), faults=spec)
        report = DeployController(scenario,
                                  canary_model="degraded").run()
        assert report["verdict"] == "rollback"
        assert all(report["invariants"].values()), report["invariants"]
        assert report["wire"]["retry_bytes"] > 0
        again = DeployController(scenario, canary_model="degraded").run()
        assert report_bytes(again) == report_bytes(report)

    def test_chaos_split_rederives_from_ledger(self):
        scenario = dataclasses.replace(
            get_scenario("canary-under-fire", scale=0.25),
            faults=CHAOS_SPECS[0])
        controller = DeployController(scenario, canary_model="degraded")
        report = controller.run()
        audit = audit_deploy(controller.serving_report,
                             report["decisions"], 1, 2, shadow=False)
        assert audit["split"]["observed_fraction"] == \
            report["split"]["observed_fraction"]
