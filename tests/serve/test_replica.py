"""Replica-set tests: deploy accounting, balancing, stragglers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.config import NetworkModel
from repro.serve import (BatchPolicy, DEPLOY_KIND, MicroBatcher,
                         ModelRegistry, ReplicaSet, synthetic_trace)


@pytest.fixture(scope="module")
def registry(small_binary):
    registry = ModelRegistry()
    registry.publish(GBDT(TrainConfig(
        num_trees=3, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(
        num_trees=1, num_layers=3, num_candidates=8,
    )).fit(small_binary).ensemble)
    return registry


def deploy_bytes_by_kind(fleet):
    """``kind -> (wire_bytes, raw_bytes)`` of every ``deploy:*`` kind of
    the fleet's network ledger."""
    snapshot = fleet.network.snapshot()
    return {kind: (nbytes, snapshot.raw_bytes_by_kind.get(kind, nbytes))
            for kind, nbytes in snapshot.bytes_by_kind.items()
            if kind.startswith("deploy:")}


def make_trace(registry, n=200, seed=2, rate=5000.0):
    return synthetic_trace(
        n, registry.active.compiled.num_features, rate, seed=seed,
    )


class TestDeploy:
    def test_deploy_bytes_exact(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=3))
        replicas.deploy(1)
        assert replicas.deploy_bytes == 3 * registry.get(1).nbytes
        replicas.deploy(2)
        assert replicas.deploy_bytes == 3 * (registry.get(1).nbytes
                                             + registry.get(2).nbytes)
        snapshot = replicas.network.snapshot()
        assert set(snapshot.bytes_by_kind) == {DEPLOY_KIND}
        assert replicas.deployed_versions() == [2, 2, 2]

    def test_deploy_time_follows_network_model(self, registry):
        network = NetworkModel(bandwidth_gbps=1.0, latency_s=0.01)
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=2, network=network)
        )
        replicas.deploy(1, at_s=5.0)
        expected = 5.0 + network.transfer_time(registry.get(1).nbytes)
        assert replicas.next_free_s() == pytest.approx(expected)

    def test_serving_before_deploy_rejected(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2))
        with pytest.raises(RuntimeError, match="no model"):
            replicas.dispatch(np.zeros((1, 4)), 0.0)

    def test_unknown_balancer(self, registry):
        with pytest.raises(ValueError, match="unknown balancer"):
            ReplicaSet(registry, balancer="random")


@pytest.fixture(scope="module")
def append_registry(small_binary):
    """Two versions where v2 extends v1 by two trees — boosting is
    deterministic, so the longer run's tree prefix equals the short
    run's trees exactly (the append-mostly rollout shape)."""
    registry = ModelRegistry()
    cfg = dict(num_layers=4, num_candidates=8)
    registry.publish(GBDT(TrainConfig(num_trees=2, **cfg))
                     .fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(num_trees=4, **cfg))
                     .fit(small_binary).ensemble)
    return registry


class TestDeltaDeploys:
    def test_off_by_default(self, append_registry):
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=2))
        replicas.deploy(1)
        replicas.deploy(2)
        assert replicas.deploy_bytes == replicas.deploy_raw_bytes
        assert replicas.network.snapshot().codec_savings_by_kind() == {}

    def test_second_rollout_ships_tree_suffix(self, append_registry):
        v1 = append_registry.get(1)
        v2 = append_registry.get(2)
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=3),
                              delta_deploys=True)
        replicas.deploy(1)
        assert replicas.deploy_bytes == 3 * v1.nbytes  # no predecessor
        replicas.deploy(2)
        full = 3 * (v1.nbytes + v2.nbytes)
        assert replicas.deploy_raw_bytes == full
        assert replicas.deploy_bytes < full
        assert replicas.deployed_versions() == [2, 2, 2]
        savings = replicas.network.snapshot().codec_savings_by_kind()
        assert savings["codec:" + DEPLOY_KIND] == \
            full - replicas.deploy_bytes
        # the wire still carries only the deploy kind
        assert set(replicas.network.snapshot().bytes_by_kind) == \
            {DEPLOY_KIND}

    def test_delta_deployed_model_serves_identically(
            self, append_registry):
        rng = np.random.default_rng(0)
        features = rng.standard_normal(
            (32, append_registry.get(2).compiled.num_features))
        full = ReplicaSet(append_registry, ClusterConfig(num_workers=1))
        delta = ReplicaSet(append_registry, ClusterConfig(num_workers=1),
                           delta_deploys=True)
        for replicas in (full, delta):
            replicas.deploy(1)
            replicas.deploy(2)
        np.testing.assert_array_equal(
            full.dispatch(features, 0.0).scores,
            delta.dispatch(features, 0.0).scores)

    def test_unrelated_versions_fall_back_to_full(self, registry):
        # the shared `registry` fixture's versions share no tree prefix
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              delta_deploys=True)
        replicas.deploy(1)
        replicas.deploy(2)
        assert replicas.deploy_bytes == replicas.deploy_raw_bytes == \
            2 * (registry.get(1).nbytes + registry.get(2).nbytes)


class TestBalancing:
    def test_round_robin_cycles_workers(self, registry):
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=3),
            balancer="round-robin", service_model=lambda k: 1e-4,
        )
        replicas.deploy()
        trace = make_trace(registry)
        report = MicroBatcher(replicas, BatchPolicy(16, 0.001)).run(trace)
        assert report.batch_worker[:6].tolist() == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_fast_worker(self, registry):
        # worker 1 is 10x faster; under sustained load it should take
        # the lion's share of batches
        cluster = ClusterConfig(num_workers=2,
                                worker_speeds=(0.1, 1.0))
        replicas = ReplicaSet(registry, cluster, balancer="least-loaded",
                              service_model=lambda k: 2e-4)
        replicas.deploy()
        trace = make_trace(registry, n=400, rate=50_000.0)
        report = MicroBatcher(replicas, BatchPolicy(16, 0.0005)).run(trace)
        counts = np.bincount(report.batch_worker, minlength=2)
        assert counts[1] > counts[0] * 2

    def test_straggler_slows_service(self, registry):
        slow = ReplicaSet(
            registry,
            ClusterConfig(num_workers=1, worker_speeds=(0.5,)),
            service_model=lambda k: 1e-3,
        )
        slow.deploy()
        result = slow.dispatch(np.zeros((4, 4)), 0.0)
        assert result.completion_s - result.start_s == \
            pytest.approx(2e-3)


class TestHotSwapUnderTraffic:
    def test_swap_is_atomic_and_accounted(self, registry):
        workers = 4
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=workers),
            balancer="least-loaded", service_model=lambda k: 2e-4,
        )
        replicas.deploy(1)
        trace = make_trace(registry, n=300, seed=8)
        swap_at = float(trace.arrivals[150])
        report = MicroBatcher(replicas, BatchPolicy(16, 0.001)).run(
            trace, swaps=[(swap_at, replicas.deployer(2))]
        )
        # every request served by exactly one version
        assert report.versions_served() == [1, 2]
        assert report.single_version_batches()
        # all requests served, none dropped during the swap
        assert sorted(report.request_id.tolist()) == list(range(300))
        # deploy traffic: both rollouts, every worker, exact bytes
        expected = workers * (registry.get(1).nbytes
                              + registry.get(2).nbytes)
        assert replicas.deploy_bytes == expected
        # the deployer also flipped the registry pointer
        assert registry.active.version == 2

    def test_deployer_with_explicit_entry_skips_activate(self, registry):
        registry.activate(1)
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deployer(registry.get(2))(0.5)
        assert replicas.deployed_versions() == [2, 2]
        assert registry.active.version == 1  # pointer untouched


class TestVersionTargeting:
    def test_subset_deploy_touches_only_the_pool(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        held = replicas.deployed_versions()
        assert held == [1, 1, 1, 2]
        assert [w for w, v in enumerate(held) if v == 1] == [0, 1, 2]
        assert [w for w, v in enumerate(held) if v == 2] == [3]
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert snapshot["deploy:canary"] == registry.get(2).nbytes
        assert snapshot[DEPLOY_KIND] == 4 * registry.get(1).nbytes

    def test_pool_validation(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        with pytest.raises(ValueError, match="must not be empty"):
            replicas.deploy(1, workers=[])
        with pytest.raises(ValueError, match="out of range"):
            replicas.deploy(1, workers=[5])

    def test_pool_dispatch_stays_inside_the_pool(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[2, 3])
        rows = np.zeros((2, registry.get(1).compiled.num_features))
        workers = {replicas.dispatch(rows, 0.0, pool=[2, 3]).worker
                   for _ in range(6)}
        assert workers == {2, 3}
        versions = {replicas.dispatch(rows, 0.0, pool=[0, 1])
                    .model_version for _ in range(6)}
        assert versions == {1}

    def test_pool_round_robin_cursor_is_independent(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=3),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        rows = np.zeros((1, registry.get(1).compiled.num_features))
        pooled = [replicas.dispatch(rows, 0.0, pool=[0, 1]).worker
                  for _ in range(4)]
        assert pooled == [0, 1, 0, 1]
        # the global cursor never moved while the pool cycled
        assert replicas.dispatch(rows, 0.0).worker == 0

    def test_canary_bytes_never_pollute_steady_state(self, registry):
        """``deploy_bytes``/``deploy_raw_bytes`` cover only the
        ``deploy:model`` kind — a subset deploy under another kind must
        leave both untouched (the regression that motivated the per-kind
        breakdown)."""
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        steady = replicas.deploy_bytes
        steady_raw = replicas.deploy_raw_bytes
        replicas.deploy(2, workers=[2, 3], kind="deploy:canary")
        assert replicas.deploy_bytes == steady
        assert replicas.deploy_raw_bytes == steady_raw

    def test_deploy_bytes_by_kind_breakdown(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        by_kind = deploy_bytes_by_kind(replicas)
        assert set(by_kind) == {DEPLOY_KIND, "deploy:canary"}
        assert by_kind[DEPLOY_KIND] == \
            (4 * registry.get(1).nbytes, 4 * registry.get(1).nbytes)
        assert by_kind["deploy:canary"] == \
            (registry.get(2).nbytes, registry.get(2).nbytes)
        # non-deploy kinds never leak into the breakdown
        replicas.network.record("serve:partial", 123, 0.0)
        assert "serve:partial" not in deploy_bytes_by_kind(replicas)

    def test_delta_subset_deploy_attributes_to_callers_kind(
            self, append_registry):
        """A delta-encoded canary deploy keeps its wire bytes *and* its
        raw (full-payload) baseline under the caller's kind, so the
        ``codec:deploy:canary`` savings dimension reports the delta's
        win without touching ``deploy:model``."""
        v1 = append_registry.get(1)
        v2 = append_registry.get(2)
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4,
                              delta_deploys=True)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        by_kind = deploy_bytes_by_kind(replicas)
        wire, raw = by_kind["deploy:canary"]
        assert raw == v2.nbytes        # full payload baseline
        assert 0 < wire < raw          # the tree-suffix delta shipped
        assert by_kind[DEPLOY_KIND] == (4 * v1.nbytes, 4 * v1.nbytes)
        savings = replicas.network.snapshot().codec_savings_by_kind()
        assert savings == {"codec:deploy:canary": raw - wire}

    def test_occupy_bills_without_serving(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        free_before = replicas._free.copy()
        worker, start, done = replicas.occupy([1], 0.5, 0.25)
        assert worker == 1
        assert start == pytest.approx(max(0.5, free_before[1]))
        assert done == pytest.approx(start + 0.25)
        assert replicas._free[0] == free_before[0]  # pool 0 untouched
