"""The serving seams that used to be copied: the single-version audit,
version resolution, the deployer swap action, provisioning — the
served model and its hot-swap successor — and the serving summary and
invariants both serving reports carry."""

from __future__ import annotations

import dataclasses
import hashlib
import types
from pathlib import Path

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.serve import (BatchPolicy, CanaryPolicy, CanaryRouter,
                         DeployController, DriftMonitor, MicroBatcher,
                         ModelRegistry, PredictionCache, ReplicaSet,
                         RollbackPolicy, ScenarioRunner, ServingReport,
                         ShardedReplicaSet, emit_labels, get_scenario,
                         publish_trained, synthetic_trace)
from repro.ledger import format_report, load_report, report_bytes
from repro.serve import batcher as batcher_module
from repro.serve.compiler import CompiledEnsemble
from repro.serve.replica import deployer, resolve_version
from repro.serve.scenarios import serving_invariants, serving_summary

from .test_replica import deploy_bytes_by_kind
from .test_sharded_traversal import (DEPLOY_QUARTER_EARLIER_SHA256,
                                     without_shared_keys)


@pytest.fixture(scope="module")
def registry(small_binary):
    registry = ModelRegistry()
    for trees in (3, 2):
        registry.publish(GBDT(TrainConfig(
            num_trees=trees, num_layers=4, num_candidates=8,
        )).fit(small_binary).ensemble)
    return registry


def _fleets(registry):
    return [
        ReplicaSet(registry, ClusterConfig(num_workers=2)),
        ShardedReplicaSet(registry, ClusterConfig(num_workers=4),
                          num_shards=2),
    ]


# -- single-version audit ------------------------------------------------

def test_a_real_hot_swap_run_passes_the_audit(registry):
    replicas = ReplicaSet(registry, ClusterConfig(num_workers=2))
    replicas.deploy(1)
    trace = synthetic_trace(
        300, registry.get(1).compiled.num_features, 5000.0, seed=3)
    swap_at = float(trace.arrivals[150])
    report = MicroBatcher(replicas, BatchPolicy(max_batch_size=16)).run(
        trace, swaps=[(swap_at, replicas.deployer(2))])
    assert report.versions_served() == [1, 2]
    assert report.single_version_batches()
    registry.activate(1)


# -- version resolution and the deployer ---------------------------------

def test_resolve_version_accepts_none_id_or_entry(registry):
    registry.activate(2)
    assert resolve_version(registry, None) is registry.get(2)
    assert resolve_version(registry, 1) is registry.get(1)
    assert resolve_version(registry, np.int64(1)) is registry.get(1)
    entry = registry.get(2)
    assert resolve_version(registry, entry) is entry
    with pytest.raises(KeyError):
        resolve_version(registry, 99)
    registry.activate(1)


def test_both_fleets_bind_the_one_deployer(registry):
    assert ReplicaSet.deployer is deployer
    assert ShardedReplicaSet.deployer is deployer
    assert "deploy" in vars(ReplicaSet) and "deploy" in vars(
        ShardedReplicaSet)


def test_deployer_activates_ids_and_deploys_at_the_swap_time(registry):
    for fleet in _fleets(registry):
        registry.activate(1)
        fleet.deploy()
        before = fleet.next_free_s()
        fleet.deployer(2)(before + 5.0)
        assert registry.active.version == 2
        assert set(fleet.deployed_versions()) == {2}
        assert fleet.next_free_s() > before + 5.0
    registry.activate(1)


def test_deployer_with_an_entry_or_none_leaves_the_pointer_alone(registry):
    for fleet in _fleets(registry):
        registry.activate(1)
        fleet.deployer(registry.get(2))(0.5)
        assert registry.active.version == 1
        assert set(fleet.deployed_versions()) == {2}
        fleet.deployer()(1.0)       # None: whatever is active, i.e. v1
        assert set(fleet.deployed_versions()) == {1}


# -- one R x S fleet under two names --------------------------------------

@pytest.fixture(scope="module")
def append_registry(small_binary):
    """v2 extends v1 by two trees (boosting is deterministic, so v1's
    trees are v2's prefix) — the append-only rollout shape."""
    registry = ModelRegistry()
    for trees in (2, 4):
        registry.publish(GBDT(TrainConfig(
            num_trees=trees, num_layers=4, num_candidates=8,
        )).fit(small_binary).ensemble)
    return registry


def _replay(fleet_class, registry, num_shards):
    """One hot-swapped trace through a 4-worker grid of ``num_shards``
    shard groups built under ``fleet_class``."""
    fleet = fleet_class(registry, ClusterConfig(num_workers=4),
                        num_shards=num_shards, balancer="least-loaded",
                        service_model=lambda k: 2e-4 + 1e-5 * k)
    fleet.deploy(1)
    trace = synthetic_trace(
        240, registry.get(1).compiled.num_features, 20_000.0, seed=6)
    report = MicroBatcher(
        fleet, BatchPolicy(max_batch_size=8, max_delay_s=0.0005,
                           max_queue=32, overload="shed-oldest"),
    ).run(trace, swaps=[(float(trace.arrivals[120]),
                         fleet.deployer(registry.get(2)))],
          collect_scores=True)
    return fleet, trace, report


def _ledger(fleet):
    snapshot = fleet.network.snapshot()
    return (dict(snapshot.bytes_by_kind), dict(snapshot.raw_bytes_by_kind),
            snapshot.total_seconds)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_the_class_name_changes_nothing(registry, num_shards):
    plain, trace, report = _replay(ReplicaSet, registry, num_shards)
    named, _, report2 = _replay(ShardedReplicaSet, registry, num_shards)
    for field in dataclasses.fields(ServingReport):
        np.testing.assert_array_equal(getattr(report, field.name),
                                      getattr(report2, field.name))
    assert _ledger(plain) == _ledger(named)
    assert deploy_bytes_by_kind(plain) == deploy_bytes_by_kind(named)
    assert plain.deploy_bytes == named.deploy_bytes > 0
    # and the layout never shows in the scores: every S serves what the
    # version's own compiled predictor says
    assert report.versions_served() == [1, 2]
    ids, served_by = report.request_id, report.request_version
    for version in (1, 2):
        mask = served_by == version
        np.testing.assert_array_equal(
            report.scores[mask],
            registry.get(version).compiled.raw_scores(
                trace.features[ids[mask]]))


@pytest.mark.parametrize("fleet_class", [ReplicaSet, ShardedReplicaSet])
def test_one_shard_group_is_a_replicated_fleet(registry, fleet_class):
    fleet, _, _ = _replay(fleet_class, registry, 1)
    kinds = set(fleet.network.snapshot().bytes_by_kind)
    assert kinds == {"deploy:model"}        # no serve:partial
    assert fleet.partial_bytes == 0
    assert fleet.deploy_bytes == 4 * (registry.get(1).nbytes
                                      + registry.get(2).nbytes)
    shard = registry.shards(1, 1)[0]       # the whole payload, verbatim
    assert (shard.nbytes, shard.checksum) == (registry.get(1).nbytes,
                                              registry.get(1).checksum)
    assert fleet.model_bytes_per_worker() == registry.get(2).nbytes


def test_default_layouts_by_name(registry):
    cluster = ClusterConfig(num_workers=4)
    assert ReplicaSet(registry, cluster).num_shards == 1
    assert ShardedReplicaSet(registry, cluster).num_shards == 2
    assert [name for name, value in vars(ShardedReplicaSet).items()
            if callable(value)] == ["__init__", "deploy", "dispatch"]
    assert ShardedReplicaSet.deploy is ReplicaSet.deploy
    assert ShardedReplicaSet.dispatch is ReplicaSet.dispatch


def test_pools_name_replica_rows(registry):
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=8),
                       num_shards=2, service_model=lambda k: 1e-4)
    assert fleet.num_rows == 4
    fleet.deploy(1)
    steady = fleet.deploy_bytes
    free = list(fleet._free)
    fleet.deploy(2, workers=[1], kind="deploy:canary", at_s=1.0)
    held = fleet.deployed_versions()
    assert held == [1, 1, 2, 2, 1, 1, 1, 1]
    # row 1 is workers 2 and 3
    assert [w for w, v in enumerate(held) if v == 2] == [2, 3]
    assert [w for w in range(8) if fleet._free[w] != free[w]] == [2, 3]
    assert fleet.network.snapshot().bytes_by_kind["deploy:canary"] == sum(
        shard.nbytes for shard in registry.shards(2, 2))
    assert fleet.deploy_bytes == steady     # the canary kind stays apart
    rows = np.zeros((3, registry.get(1).compiled.num_features))
    for _ in range(3):
        result = fleet.dispatch(rows, 2.0, pool=[1])
        assert (result.worker, result.model_version) == (3, 2)
    assert fleet.dispatch(rows, 2.0).worker == 1    # row 0's tail
    with pytest.raises(ValueError, match="out of range"):
        fleet.dispatch(rows, 2.0, pool=[4])         # rows, not workers
    worker, start, done = fleet.occupy([1], 5.0, 0.5)
    assert (worker, start) == (3, 5.0)
    # each member is billed its tree share; the row frees together
    assert fleet._free[2] == fleet._free[3] == done < 5.5


def test_delta_deploys_run_per_shard(append_registry):
    registry = append_registry
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=2),
                       num_shards=2, delta_deploys=True,
                       service_model=lambda k: 1e-4)
    fleet.deploy(1)
    assert fleet.deploy_bytes == fleet.deploy_raw_bytes   # no predecessor
    before = len(fleet.network.records)
    fleet.deploy(2)
    head, tail = fleet.network.records[before:]
    new = registry.shards(2, 2)
    # shard 0 grew by appended trees: a verified delta ships; shard 1's
    # tree range shares no prefix with its predecessor: the full shard
    assert 0 < head.nbytes < head.raw_nbytes == new[0].nbytes
    assert tail.nbytes == tail.raw_nbytes == new[1].nbytes
    assert fleet.deploy_raw_bytes - fleet.deploy_bytes \
        == head.raw_nbytes - head.nbytes
    features = np.random.default_rng(1).standard_normal(
        (16, registry.get(2).compiled.num_features))
    np.testing.assert_array_equal(
        fleet.dispatch(features, 0.0).scores,
        registry.get(2).compiled.raw_scores(features))


def test_a_sharded_fleet_refuses_a_cache_like_a_scenario_does(registry):
    cache = PredictionCache(8)
    with pytest.raises(ValueError, match="mutually exclusive") as fleet:
        ReplicaSet(registry, ClusterConfig(num_workers=2), num_shards=2,
                   cache=cache)
    with pytest.raises(ValueError) as scenario:
        dataclasses.replace(get_scenario("diurnal"), num_shards=2)
    assert str(fleet.value) == str(scenario.value)
    ReplicaSet(registry, ClusterConfig(num_workers=2), cache=cache)


def test_a_deploy_episode_canaries_whole_rows_of_a_sharded_fleet():
    scenario = get_scenario("sharded-steady", scale=0.1)
    assert (scenario.num_workers, scenario.num_shards) == (4, 2)
    controller = DeployController(scenario, canary_model="degraded")
    report = controller.run()
    fleet, router = controller.replicas, controller.router
    assert type(fleet) is ShardedReplicaSet and fleet.num_rows == 2
    # the pools partition rows, so the canary took workers 2-3 together
    assert (router.incumbent_pool, router.canary_pool) == ([0], [1])
    assert [d["kind"] for d in report["decisions"]][:2] \
        == ["deploy", "canary-start"]
    assert "2 canary worker(s)" in report["decisions"][1]["reason"]
    serving = controller.serving_report
    canary_workers = serving.batch_worker[serving.batch_version == 2]
    assert canary_workers.size and set(canary_workers.tolist()) == {3}
    assert report["verdict"] == "rollback"
    assert fleet.deployed_versions() == [1, 1, 1, 1]
    assert all(v is True for k, v in report["invariants"].items()
               if k != "split")
    kinds = fleet.network.snapshot().bytes_by_kind
    assert kinds["deploy:shard"] > 0 and "deploy:model" not in kinds
    assert kinds["serve:partial"] > 0
    # a canary must still leave one incumbent *row*
    with pytest.raises(ValueError, match="incumbent worker"):
        DeployController(scenario, canary=CanaryPolicy(canary_workers=2),
                         canary_model="degraded").run()


# -- satellites: shadow billing, per-batch polling -------------------------

def test_shadow_compute_is_billed_under_wall_clock_service(
        registry, monkeypatch):
    """Without a service model every batch — served or shadow-scored —
    is billed its own scoring's wall clock: a fake clock that ticks one
    second per row the compiled predictor scores bills each batch
    exactly its row count, so no book defers or pools a batch."""
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=2))
    assert fleet.service_model is None
    trace = synthetic_trace(
        8, registry.get(1).compiled.num_features, 1000.0, seed=1)
    router = CanaryRouter(
        fleet, DriftMonitor(window=8),
        CanaryPolicy(fraction=0.5, canary_workers=1, shadow=True, seed=1),
        RollbackPolicy(window=8, min_labels=4),
        emit_labels(trace, registry.get(1).compiled, 0.01, 1), 1, 2)
    fleet.deploy(1)
    fleet.deploy(2, workers=router.canary_pool, kind="deploy:canary")
    router.mark_canary_started(0.0)
    clock = [0.0]
    monkeypatch.setattr(batcher_module, "time", types.SimpleNamespace(
        perf_counter=lambda: clock[0]))
    score = CompiledEnsemble.raw_scores

    def ticking(self, features, *args):
        clock[0] += features.shape[0]
        return score(self, features, *args)

    monkeypatch.setattr(CompiledEnsemble, "raw_scores", ticking)
    canary = router.canary_pool[0]
    for rows, close_s in ((3, 10.0), (5, 100.0)):
        ids = np.arange(rows, dtype=np.int64)
        result = router.dispatch(trace.features[:rows], close_s, ids=ids)
        assert result.model_version == 1
        assert result.completion_s - result.start_s == rows
        # the shadow copy went to the canary row, billed the same way
        assert fleet._free[canary] == close_s + rows
    assert router.shadow_batches == 2
    assert clock[0] == 2 * (3 + 5)
    np.testing.assert_array_equal(
        result.scores, registry.get(1).compiled.raw_scores(
            trace.features[:5]))


def test_the_bounded_batcher_asks_for_free_time_once_per_batch(registry):
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=1),
                       service_model=lambda k: 2e-3)
    fleet.deploy(1)
    asked = []
    ask = fleet.next_free_s
    fleet.next_free_s = lambda: asked.append(1) or ask()
    trace = synthetic_trace(
        400, registry.get(1).compiled.num_features, 20_000.0, seed=5)
    report = MicroBatcher(
        fleet, BatchPolicy(max_batch_size=8, max_delay_s=0.001,
                           max_queue=16, overload="shed-oldest"),
    ).run(trace)
    assert report.drop_id.size > 100        # plenty of admission events
    assert len(asked) == report.batch_size.size + 1


# -- provisioning: one served model, one successor -------------------------

def _direct_checksum(dataset, config) -> str:
    """What publishing ``GBDT(config)``'s model by hand checksums to."""
    return ModelRegistry().publish(
        GBDT(config).fit(dataset).ensemble).checksum


@pytest.mark.parametrize("trees", [1, 3, 4])
def test_the_successor_is_the_half_size_retrain(small_binary, trees):
    config = TrainConfig(num_trees=trees, num_layers=3, num_candidates=8)
    registry = ModelRegistry()
    entry = publish_trained(registry, small_binary, config, "v1",
                            successor="v2")
    assert entry is registry.get(1) is registry.active
    assert [e.source for e in registry.versions()] == ["v1", "v2"]
    assert entry.checksum == _direct_checksum(small_binary, config)
    half = dataclasses.replace(config, num_trees=max(trees // 2, 1))
    assert registry.get(2).compiled.num_trees == half.num_trees
    assert registry.get(2).checksum == _direct_checksum(small_binary, half)
    alone = ModelRegistry()
    publish_trained(alone, small_binary, config, "v1")
    assert len(alone) == 1


def test_a_scenario_run_and_a_deploy_episode_publish_one_model():
    """Both runners train from the same scenario: the scenario's
    hot-swap successor is the deploy episode's healthy canary."""
    scenario = get_scenario("hot-swap-under-fire", scale=0.1)
    runner = ScenarioRunner(scenario)
    assert all(runner.run()["invariants"].values())
    controller = DeployController(scenario, canary_model="healthy")
    report = controller.run()
    served, deployed = runner.registry, controller.registry
    for version in (1, 2):
        assert served.get(version).checksum \
            == deployed.get(version).checksum \
            == report["versions"]["checksums"][str(version)]
    dataset, config = scenario.model_data("deploy")
    assert dataset.name == f"deploy-{scenario.name}"
    assert served.get(1).checksum == _direct_checksum(dataset, config)
    half = dataclasses.replace(
        config, num_trees=max(config.num_trees // 2, 1))
    assert served.get(2).checksum == _direct_checksum(dataset, half)


# -- one serving report core ----------------------------------------------

GOLDEN_DEPLOY = Path(__file__).resolve().parent.parent / "data" \
    / "golden" / "deploy_canary_v1.json"


def test_both_serving_reports_hold_the_summary_and_the_invariants():
    scenario = get_scenario("canary-under-fire", scale=0.25)
    runner = ScenarioRunner(scenario)
    scenario_report = runner.run()
    trace = runner.trace
    summary = serving_summary(trace, runner.serving_report)
    invariants = serving_invariants(trace, runner.serving_report,
                                    runner.registry)
    assert set(invariants) == {"conservation_ok", "priority_admission_ok",
                               "single_version_batches", "scores_exact"}
    assert {k: scenario_report["totals"][k] for k in summary} == summary
    assert scenario_report["invariants"] == invariants

    controller = DeployController(scenario)
    deploy_report = controller.run()
    served = controller.serving_report
    summary = serving_summary(trace, served)
    invariants = serving_invariants(trace, served, controller.registry)
    assert {k: deploy_report["serving"][k] for k in summary} == summary
    assert {k: deploy_report["invariants"][k]
            for k in invariants} == invariants
    assert all(deploy_report["invariants"].values())


def test_a_deploy_report_saved_without_the_shared_keys_renders():
    golden = load_report(str(GOLDEN_DEPLOY))
    old = without_shared_keys(golden)
    assert hashlib.sha256(report_bytes(old)).hexdigest() \
        == DEPLOY_QUARTER_EARLIER_SHA256["degraded"]
    text = format_report(old).splitlines()
    assert text[-2].startswith("  serving: 759 arrivals   759 served")
    assert text[-1].startswith("  invariants: conservation_ok=ok")
    assert "scores_exact" not in text[-1]
    # every line but the invariants reads the keys both formats carry
    assert format_report(golden).splitlines()[:-1] == text[:-1]
