"""Tree-sharded serving: bit-identity, conservation, ledger formulas.

The headline property is exactness under partition: for any shard count
the ordered chain fold must reproduce the monolithic compiled predictor
bit for bit — on hypothesis-built adversarial ensembles, and on a model
trained by every execution plan in the registry.  The dispatch path is
then held to the collective cost model: ``serve:partial`` bytes must
equal the ring reduce-scatter closed form exactly, per batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GBDT, TrainConfig
from repro.cluster.comm import RingAllReduce, RingReduceScatter
from repro.config import NetworkModel
from repro.serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                         PARTIAL_KIND, REDUCE_KIND, SHARD_DEPLOY_KIND,
                         ShardedReplicaSet, compile_ensemble,
                         reduce_shard_scores, shard_bounds,
                         shard_ensemble, shard_payload, synthetic_trace)
from repro.serve.registry import payload_checksum
from repro.systems.costmodel import score_reduction_bytes_per_batch
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
# Bit-identity: hypothesis-built adversarial ensembles
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(case=ensembles_and_batches(), num_shards=st.integers(1, 8))
    def test_chain_fold_bit_identical(self, case, num_shards):
        ensemble, dense = case
        compiled = compile_ensemble(ensemble)
        shards = shard_ensemble(compiled, num_shards)
        assert len(shards) == num_shards
        np.testing.assert_array_equal(
            reduce_shard_scores(shards, dense),
            compiled.raw_scores(dense),
        )

    @settings(max_examples=30, deadline=None)
    @given(case=ensembles_and_batches(), num_shards=st.integers(2, 8))
    def test_shard_tree_counts_partition_the_ensemble(self, case,
                                                      num_shards):
        ensemble, _ = case
        compiled = compile_ensemble(ensemble)
        shards = shard_ensemble(compiled, num_shards)
        assert sum(s.num_trees for s in shards) == compiled.num_trees

    def test_empty_shards_are_harmless(self):
        rng = np.random.default_rng(3)
        dataset_rows = rng.standard_normal((17, 6))
        from repro.data.synthetic import make_classification

        data = make_classification(300, 6, seed=3)
        compiled = compile_ensemble(GBDT(TrainConfig(
            num_trees=2, num_layers=3, num_candidates=8,
        )).fit(data).ensemble)
        shards = shard_ensemble(compiled, 8)   # 6 of them hold no trees
        np.testing.assert_array_equal(
            reduce_shard_scores(shards, dataset_rows),
            compiled.raw_scores(dataset_rows),
        )


# ---------------------------------------------------------------------------
# Bit-identity: every execution plan's trained model
# ---------------------------------------------------------------------------

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
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 8])
    def test_sharded_scores_exact_for_all_plans(self, plan_models,
                                                num_shards):
        registry, versions = plan_models
        rng = np.random.default_rng(17)
        features = rng.standard_normal((41, 25))
        features[rng.random(features.shape) < 0.2] = np.nan
        for key, version in versions.items():
            compiled = registry.get(version).compiled
            shards = registry.shards(version, num_shards)
            np.testing.assert_array_equal(
                reduce_shard_scores(
                    [s.compiled for s in shards], features),
                compiled.raw_scores(features),
                err_msg=f"plan {key} diverged at S={num_shards}",
            )


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
    def test_shard_payloads_checksum_and_recompile(self, registry):
        entry = registry.get(1)
        shards = registry.shards(1, 3)
        rng = np.random.default_rng(5)
        features = rng.standard_normal((19, entry.compiled.num_features))
        for shard in shards:
            piece = shard_payload(entry.payload, shard.start_tree,
                                  shard.stop_tree)
            assert shard.checksum == payload_checksum(piece)
            assert piece["trees"] == \
                entry.payload["trees"][shard.start_tree:shard.stop_tree]
            # the sliced compiled shard serves what the payload says
            from repro.core.serialize import ensemble_from_dict

            recompiled = compile_ensemble(ensemble_from_dict(piece))
            np.testing.assert_array_equal(
                recompiled.raw_scores(features),
                shard.compiled.raw_scores(features))

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
        assert replicas.reduce_bytes == 0   # gather mode
        # the layout pricer quotes the same number
        assert expected == sum(
            score_reduction_bytes_per_batch(size, 1, num_shards)
            for size in report.batch_size.tolist())

    def test_allreduce_charges_both_halves(self, registry):
        num_shards = 4
        replicas = make_fleet(registry, num_shards,
                              workers=num_shards,
                              reduction="allreduce")
        _, report = run_trace(registry, replicas)
        assert replicas.reduce_bytes == replicas.partial_bytes > 0
        ring = RingAllReduce()
        expected = sum(
            int(RingReduceScatter().per_worker_bytes(
                size * 8, num_shards) * num_shards)
            for size in report.batch_size.tolist()
        ) * 2
        assert replicas.partial_bytes + replicas.reduce_bytes == expected
        assert expected == sum(
            int(ring.per_worker_bytes(size * 8, num_shards) / 2
                * num_shards) * 2
            for size in report.batch_size.tolist()
        )

    def test_single_shard_pays_no_reduction(self, registry):
        replicas = make_fleet(registry, 1, workers=2)
        _, report = run_trace(registry, replicas)
        assert replicas.partial_bytes == 0
        assert replicas.reduce_bytes == 0
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert PARTIAL_KIND not in snapshot
        assert REDUCE_KIND not in snapshot

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
# Score codecs on the carry
# ---------------------------------------------------------------------------

class TestScoreCodec:
    def test_f16_carries_save_wire_bytes(self, registry):
        narrow = make_fleet(registry, 4, workers=4, codec="f16")
        _, report = run_trace(registry, narrow)
        ring = RingReduceScatter()
        raw_expected = sum(
            int(ring.per_worker_bytes(size * 8, 4) * 4)
            for size in report.batch_size.tolist())
        wire_expected = sum(
            int(sum(ring.per_worker_bytes(size * 2, 4)
                    for _ in range(4)))
            for size in report.batch_size.tolist())
        assert narrow.partial_bytes == wire_expected < raw_expected
        # raw accounting keeps the dense float64 baseline
        snapshot = narrow.network.snapshot()
        assert snapshot.raw_bytes_by_kind[PARTIAL_KIND] == raw_expected
        assert snapshot.codec_savings_by_kind()[
            "codec:" + PARTIAL_KIND] == raw_expected - wire_expected

    def test_lossy_carry_changes_scores_lossless_does_not(self,
                                                          registry):
        features = np.random.default_rng(9).standard_normal(
            (32, registry.get(1).compiled.num_features))
        direct = registry.get(1).compiled.raw_scores(features)
        for codec, lossless in (("none", True), ("sparse", True),
                                ("f16", False)):
            replicas = make_fleet(registry, 4, workers=4, codec=codec)
            replicas.deploy(1)
            scores = replicas.dispatch(features, 0.0).scores
            if lossless:
                np.testing.assert_array_equal(scores, direct)
            else:
                assert not np.array_equal(scores, direct)
                np.testing.assert_allclose(scores, direct, rtol=2e-3,
                                           atol=2e-3)


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

    def test_unknown_balancer_and_reduction(self, registry):
        with pytest.raises(ValueError, match="unknown balancer"):
            ShardedReplicaSet(registry, ClusterConfig(num_workers=2),
                              num_shards=2, balancer="random")
        with pytest.raises(ValueError, match="unknown reduction"):
            ShardedReplicaSet(registry, ClusterConfig(num_workers=2),
                              num_shards=2, reduction="tree")

    def test_serving_before_deploy_rejected(self, registry):
        replicas = make_fleet(registry, 2, workers=2)
        with pytest.raises(RuntimeError, match="undeployed"):
            replicas.dispatch(np.zeros((1, 4)), 0.0)

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            reduce_shard_scores([], np.zeros((1, 2)))
