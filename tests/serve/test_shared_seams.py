"""The serving seams that used to be copied: the single-version audit,
version resolution and the deployer swap action."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                         ReplicaSet, ServingReport, ShardedReplicaSet,
                         synthetic_trace)
from repro.serve.batcher import BatchRecord, RequestRecord
from repro.serve.replica import deployer, resolve_version


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

def _quadratic_audit(report: ServingReport) -> bool:
    """The audit as it was written before (O(batches x records))."""
    return all(
        len({r.model_version for r in report.records
             if r.batch_id == b.batch_id}) <= 1
        for b in report.batches
    )


def _report(versions_by_batch) -> ServingReport:
    report = ServingReport()
    for batch_id, versions in enumerate(versions_by_batch):
        report.batches.append(BatchRecord(
            batch_id, len(versions), 0.0, 0.0, 1.0, 0, versions[0]))
        for version in versions:
            report.records.append(RequestRecord(
                len(report.records), 0.0, batch_id, 0.0, 1.0, 0, version))
    return report


@pytest.mark.parametrize("versions_by_batch,expected", [
    ([], True),
    ([[1]], True),
    ([[1, 1, 1], [2, 2], [1]], True),      # a swap between batches
    ([[1, 1], [2, 1]], False),             # a batch straddles the swap
    ([[1, 2]], False),
    ([[3, 3, 3, 3], [3, 3, 3, 4]], False),
])
def test_single_version_batches_truth_table(versions_by_batch, expected):
    report = _report(versions_by_batch)
    assert report.single_version_batches() is expected
    assert _quadratic_audit(report) is expected


def test_single_version_batches_agrees_on_random_ledgers():
    rng = np.random.default_rng(4)
    verdicts = set()
    for _ in range(200):
        batches = [
            rng.choice([1, 2], size=rng.integers(1, 5),
                       p=[0.9, 0.1]).tolist()
            if rng.random() < 0.3 else [int(rng.integers(1, 3))] * 3
            for _ in range(rng.integers(0, 6))
        ]
        # records need not be grouped by batch: shuffle them
        report = _report(batches)
        rng.shuffle(report.records)
        verdict = report.single_version_batches()
        assert verdict is _quadratic_audit(report)
        verdicts.add(verdict)
    assert verdicts == {True, False}


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
