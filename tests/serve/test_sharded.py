"""Tree-sharded serving: exact shipped shards, conservation, ledgers.

The headline property is exactness under partition: for any shard count
the payloads a sharded deploy ships — each compiled on its own and
folded into the carry in shard order — must reproduce the version's
compiled predictor bit for bit, and what dispatch served, on
hypothesis-built adversarial ensembles and on a model trained by every
execution plan in the registry.  The dispatch path is then held to the
collective cost model: ``serve:partial`` bytes must equal the ring
reduce-scatter closed form exactly, per batch, and the serving price
list must quote what the ledger records.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GBDT, TrainConfig
from repro.cluster.comm import RingReduceScatter
from repro.config import NetworkModel
from repro.core.kernels import available_backends
from repro.core.serialize import canonical_payload_bytes, ensemble_from_dict
from repro.serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                         PARTIAL_KIND, SHARD_DEPLOY_KIND, ReplicaSet,
                         ShardedReplicaSet, compile_ensemble, shard_bounds,
                         shard_payload, synthetic_trace)
from repro.serve.registry import payload_checksum
from repro.systems.costmodel import (price_serving_layouts,
                                     score_reduction_bytes_per_batch)
from repro.systems.plans import PLANS

from .test_property import ensembles_and_batches


# ---------------------------------------------------------------------------
# Shard geometry
# ---------------------------------------------------------------------------

class TestShardBounds:
    def test_contiguous_cover(self):
        for trees in range(1, 12):
            for shards in range(1, 9):
                bounds = shard_bounds(trees, shards)
                assert len(bounds) == shards
                assert bounds[0][0] == 0 and bounds[-1][1] == trees
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_balanced_within_one_tree(self):
        for trees in range(1, 12):
            for shards in range(1, 9):
                sizes = [b - a for a, b in shard_bounds(trees, shards)]
                assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_trees_leaves_empty_tail(self):
        bounds = shard_bounds(3, 8)
        sizes = [b - a for a, b in bounds]
        assert sum(sizes) == 3
        assert sizes.count(0) == 5


# ---------------------------------------------------------------------------
# Bit-identity of the shipped shards
# ---------------------------------------------------------------------------

def shipped_chain(registry, version, num_shards, features, backend=None):
    """The chain fold over what a deploy ships: each shard's payload,
    compiled on its own, folds into the carry in shard order."""
    acc = np.zeros((features.shape[0],
                    registry.get(version).compiled.gradient_dim))
    for shard in registry.shards(version, num_shards):
        compile_ensemble(ensemble_from_dict(shard.payload),
                         backend=backend).add_raw_scores(features, acc)
    return acc


def served(registry, version, num_shards, features):
    """What a one-row fleet of ``num_shards`` workers serves."""
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=num_shards),
                       num_shards=num_shards,
                       service_model=lambda k: 1e-4)
    fleet.deploy(version)
    return fleet.dispatch(features, 0.0).scores


def assert_shards_exact(registry, version, num_shards, features,
                        backend=None, label=""):
    """Chained shipped shards == the compiled predictor == dispatch, as
    bytes; the shards cover the version's trees once, in order."""
    shards = registry.shards(version, num_shards)
    compiled = registry.get(version).compiled
    assert [(s.start_tree, s.stop_tree) for s in shards] \
        == shard_bounds(compiled.num_trees, num_shards)
    want = compiled.raw_scores(features).tobytes()
    assert shipped_chain(registry, version, num_shards, features,
                         backend).tobytes() == want, label
    assert served(registry, version, num_shards,
                  features).tobytes() == want, label


class TestShippedShards:
    @settings(max_examples=60, deadline=None)
    @given(case=ensembles_and_batches(), num_shards=st.integers(1, 8))
    def test_adversarial_ensembles(self, case, num_shards):
        ensemble, dense = case
        registry = ModelRegistry()
        version = registry.publish(ensemble).version
        assert_shards_exact(registry, version, num_shards, dense)


@pytest.fixture(scope="module")
def plan_models(binned_binary, cluster4):
    """One trained model per registry plan, published to one registry."""
    config = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    registry = ModelRegistry()
    versions = {}
    for key in sorted(PLANS):
        result = PLANS[key].build(config, cluster4).fit(binned_binary)
        entry = registry.publish(result.ensemble, source=f"plan:{key}")
        versions[key] = entry.version
    return registry, versions


class TestEveryPlan:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 8])
    def test_shipped_shards_exact_for_all_plans(self, plan_models,
                                                num_shards, backend):
        registry, versions = plan_models
        rng = np.random.default_rng(17)
        features = rng.standard_normal((41, 25))
        features[rng.random(features.shape) < 0.2] = np.nan
        for key, version in versions.items():
            assert_shards_exact(
                registry, version, num_shards, features, backend,
                label=f"plan {key} diverged at S={num_shards}")


# ---------------------------------------------------------------------------
# Registry shards: payloads, checksums, caching
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry(small_binary):
    registry = ModelRegistry()
    registry.publish(GBDT(TrainConfig(
        num_trees=6, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(
        num_trees=3, num_layers=3, num_candidates=8,
    )).fit(small_binary).ensemble)
    return registry


class TestRegistryShards:
    def test_shard_payloads_are_checksummed_slices(self, registry):
        entry = registry.get(1)
        for shard in registry.shards(1, 3):
            piece = shard_payload(entry.payload, shard.start_tree,
                                  shard.stop_tree)
            assert shard.payload == piece
            assert shard.checksum == payload_checksum(piece)
            assert piece["trees"] == \
                entry.payload["trees"][shard.start_tree:shard.stop_tree]

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_corrupted_shard_bytes_never_verify(self, registry,
                                                num_shards):
        """Every truncation and 400 seeded single-bit flips of each
        shard's canonical bytes: decoding raises ``ValueError`` (not
        UTF-8, not JSON, or refused by ``ensemble_from_dict``), or the
        decoded payload's checksum is not the shard's — unless JSON
        reading absorbs the flip (a 17th significant digit that parses
        to the same float), so it decodes to the shard's own payload."""
        rng = np.random.default_rng(num_shards)
        for shard in registry.shards(1, num_shards):
            data = canonical_payload_bytes(shard.payload)
            copies = [data[:cut] for cut in range(len(data))]
            for at, bit in zip(rng.integers(0, len(data), 400),
                               rng.integers(0, 8, 400)):
                flipped = bytearray(data)
                flipped[at] ^= 1 << int(bit)
                copies.append(bytes(flipped))
            for copy in copies:
                try:
                    payload = json.loads(copy)
                    ensemble_from_dict(payload)
                except ValueError:
                    continue
                if payload == shard.payload:
                    continue
                assert payload_checksum(payload) != shard.checksum, copy

    def test_shards_cached_per_version_and_count(self, registry):
        assert registry.shards(1, 2) is registry.shards(1, 2)
        assert registry.shards(1, 2) is not registry.shards(1, 4)
        assert registry.shards(2, 2) is not registry.shards(1, 2)

    def test_shard_sizes_sum_close_to_full(self, registry):
        entry = registry.get(1)
        for num_shards in (2, 4, 8):
            shards = registry.shards(1, num_shards)
            total = sum(s.nbytes for s in shards)
            # only the few metadata keys repeat per shard
            assert entry.nbytes <= total <= entry.nbytes \
                + num_shards * 200
            # so what one worker holds scales ~1/S, with slack for those
            # keys and the one-tree granularity of the contiguous ranges
            assert max(s.nbytes for s in shards) \
                <= entry.nbytes / num_shards \
                + entry.nbytes / entry.compiled.num_trees + 512


# ---------------------------------------------------------------------------
# Sharded dispatch through the micro-batcher
# ---------------------------------------------------------------------------

def make_fleet(registry, num_shards, workers=None, **kwargs):
    workers = workers or 2 * num_shards
    kwargs.setdefault("service_model", lambda k: 1e-4)
    return ShardedReplicaSet(
        registry, ClusterConfig(num_workers=workers),
        num_shards=num_shards, **kwargs)


def run_trace(registry, replicas, n=150, rate=5000.0, seed=2,
              policy=None):
    trace = synthetic_trace(
        n, registry.get(1).compiled.num_features, rate, seed=seed)
    replicas.deploy(1)
    report = MicroBatcher(
        replicas, policy or BatchPolicy(max_batch_size=16,
                                        max_delay_s=0.001),
    ).run(trace, collect_scores=True)
    return trace, report


class TestShardedDispatch:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_served_scores_bit_identical(self, registry, num_shards):
        replicas = make_fleet(registry, num_shards)
        trace, report = run_trace(registry, replicas)
        assert report.request_id.size == trace.num_requests
        direct = registry.get(1).compiled.raw_scores(
            trace.features[report.request_id])
        np.testing.assert_array_equal(report.scores, direct)

    def test_conservation_under_overload(self, registry):
        replicas = make_fleet(registry, 2, workers=2,
                              service_model=lambda k: 5e-3)
        trace, report = run_trace(
            registry, replicas, n=300, rate=50_000.0,
            policy=BatchPolicy(max_batch_size=8, max_delay_s=0.0005,
                               max_queue=16, overload="shed-oldest"))
        assert report.drop_id.size > 0
        assert report.exactly_once()

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 8])
    def test_partial_bytes_match_collective_closed_form(self, registry,
                                                        num_shards):
        replicas = make_fleet(registry, num_shards,
                              workers=num_shards)
        _, report = run_trace(registry, replicas)
        ring = RingReduceScatter()
        expected = sum(
            int(ring.per_worker_bytes(size * 8, num_shards)
                * num_shards)
            for size in report.batch_size.tolist()
        )
        assert replicas.partial_bytes == expected
        # the layout pricer quotes the same number
        assert expected == sum(
            score_reduction_bytes_per_batch(size, 1, num_shards)
            for size in report.batch_size.tolist())

    def test_single_shard_pays_no_reduction(self, registry):
        replicas = make_fleet(registry, 1, workers=2)
        _, report = run_trace(registry, replicas)
        assert replicas.partial_bytes == 0
        assert PARTIAL_KIND not in replicas.network.snapshot().bytes_by_kind

    def test_batch_occupies_a_whole_row(self, registry):
        replicas = make_fleet(registry, 2, workers=4)
        replicas.deploy(1)
        row1_free = replicas._free[2:4].copy()
        rows = np.zeros((3, registry.get(1).compiled.num_features))
        result = replicas.dispatch(rows, 0.0)
        # both members of row 0 stay busy until the collective is done
        assert replicas._free[0] == replicas._free[1] \
            == result.completion_s
        np.testing.assert_array_equal(replicas._free[2:4],
                                      row1_free)  # row 1 untouched

    def test_mixed_version_row_rejected(self, registry):
        replicas = make_fleet(registry, 2, workers=2)
        replicas.deploy(1)
        replicas._deployed[1] = registry.shards(2, 2)[1]
        with pytest.raises(RuntimeError, match="mixed versions"):
            replicas.dispatch(np.zeros(
                (1, registry.get(1).compiled.num_features)), 0.0)


# ---------------------------------------------------------------------------
# The serving price list against the ledger
# ---------------------------------------------------------------------------

class TestServingPriceList:
    @pytest.mark.parametrize("network", [
        NetworkModel(), NetworkModel(bandwidth_gbps=1.0, latency_s=0.01)])
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_quote_is_what_the_ledger_records(self, registry, num_shards,
                                              network):
        rows, entry = 7, registry.get(1)
        replicas = ShardedReplicaSet(
            registry, ClusterConfig(num_workers=num_shards,
                                    network=network),
            num_shards=num_shards, service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.dispatch(np.zeros((rows, entry.compiled.num_features)),
                          0.0)
        ledger = replicas.network.snapshot()
        shards = registry.shards(1, num_shards)
        layout, = price_serving_layouts(
            entry.nbytes, {num_shards: [s.nbytes for s in shards]},
            num_shards, rows, entry.compiled.gradient_dim,
            network.bytes_per_second, network.latency_s)
        assert layout["reduction_bytes_per_batch"] \
            == ledger.bytes_by_kind[PARTIAL_KIND] > 0
        assert layout["reduction_seconds_per_batch"] \
            == ledger.seconds_by_kind[PARTIAL_KIND] > 0
        assert layout["reduction_rounds"] == num_shards - 1
        assert layout["deploy_bytes"] \
            == ledger.bytes_by_kind[SHARD_DEPLOY_KIND]


# ---------------------------------------------------------------------------
# Deploy accounting
# ---------------------------------------------------------------------------

class TestShardDeploy:
    def test_deploy_bytes_exact_per_shard(self, registry):
        replicas = make_fleet(registry, 2, workers=4)
        replicas.deploy(1)
        shards = registry.shards(1, 2)
        expected = 2 * sum(s.nbytes for s in shards)   # 2 rows
        assert replicas.deploy_bytes == expected
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert set(snapshot) == {SHARD_DEPLOY_KIND}
        assert replicas.model_bytes_per_worker() \
            == max(s.nbytes for s in shards)
        assert replicas.deployed_versions() == [1] * 4

    def test_sharded_rollout_undercuts_replicated(self, registry):
        entry = registry.get(1)
        for num_shards in (2, 4):
            replicas = make_fleet(registry, num_shards, workers=4)
            replicas.deploy(1)
            assert replicas.deploy_bytes < 4 * entry.nbytes
            assert replicas.model_bytes_per_worker() < entry.nbytes

    def test_deploy_time_follows_network_model(self, registry):
        network = NetworkModel(bandwidth_gbps=1.0, latency_s=0.01)
        replicas = ShardedReplicaSet(
            registry,
            ClusterConfig(num_workers=2, network=network),
            num_shards=2, service_model=lambda k: 1e-4)
        replicas.deploy(1, at_s=5.0)
        shards = registry.shards(1, 2)
        expected = 5.0 + max(network.transfer_time(s.nbytes)
                             for s in shards)
        assert replicas.next_free_s() == pytest.approx(expected)

    def test_hot_swap_reshards(self, registry):
        replicas = make_fleet(registry, 2, workers=2)
        trace, report = run_trace(registry, replicas, n=100)
        swap_at = float(trace.arrivals[50])
        replicas2 = make_fleet(registry, 2, workers=2)
        trace2, report2 = None, None
        replicas2.deploy(1)
        trace2 = synthetic_trace(
            100, registry.get(1).compiled.num_features, 5000.0, seed=2)
        report2 = MicroBatcher(
            replicas2, BatchPolicy(max_batch_size=16, max_delay_s=0.001)
        ).run(trace2, swaps=[(swap_at, replicas2.deployer(2))],
              collect_scores=True)
        assert report2.versions_served() == [1, 2]
        assert report2.single_version_batches()
        shards1 = registry.shards(1, 2)
        shards2 = registry.shards(2, 2)
        expected = sum(s.nbytes for s in shards1) \
            + sum(s.nbytes for s in shards2)
        assert replicas2.deploy_bytes == expected


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_workers_must_divide(self, registry):
        with pytest.raises(ValueError, match="multiple of num_shards"):
            ShardedReplicaSet(registry,
                              ClusterConfig(num_workers=3),
                              num_shards=2)

    def test_unknown_balancer(self, registry):
        with pytest.raises(ValueError, match="unknown balancer"):
            ShardedReplicaSet(registry, ClusterConfig(num_workers=2),
                              num_shards=2, balancer="random")

    def test_serving_before_deploy_rejected(self, registry):
        replicas = make_fleet(registry, 2, workers=2)
        with pytest.raises(RuntimeError, match="undeployed"):
            replicas.dispatch(np.zeros((1, 4)), 0.0)

