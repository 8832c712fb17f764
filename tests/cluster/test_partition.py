"""Partitioning tests: shards tile the data; grouping balances load."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partition import (greedy_column_groups, group_imbalance,
                                     hash_column_groups,
                                     horizontal_row_ranges,
                                     horizontal_shards,
                                     round_robin_column_groups,
                                     vertical_shards)


class TestHorizontal:
    def test_ranges_tile_instances(self):
        ranges = horizontal_row_ranges(103, 4)
        assert len(ranges) == 4
        combined = np.concatenate(ranges)
        np.testing.assert_array_equal(combined, np.arange(103))

    def test_near_equal_sizes(self):
        sizes = [r.size for r in horizontal_row_ranges(100, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_rows(self):
        ranges = horizontal_row_ranges(2, 5)
        assert sum(r.size for r in ranges) == 2

    def test_shards_preserve_rows(self, binned_binary):
        shards, ranges = horizontal_shards(binned_binary, 4)
        assert sum(s.num_instances for s in shards) == \
            binned_binary.num_instances
        for shard, rows in zip(shards, ranges):
            np.testing.assert_array_equal(shard.labels,
                                          binned_binary.labels[rows])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            horizontal_row_ranges(10, 0)

    @settings(max_examples=60, deadline=None)
    @given(num_instances=st.integers(0, 300), num_workers=st.integers(1, 40))
    def test_ranges_are_contiguous_ascending_spans_in_order(
            self, num_instances, num_workers):
        """The invariant the horizontal partition's gradient views rest
        on: worker ``w``'s rows are ``[start_w, start_w + size_w)`` and
        the spans follow each other — also when ``W > N`` leaves some
        empty."""
        ranges = horizontal_row_ranges(num_instances, num_workers)
        assert len(ranges) == num_workers
        start = 0
        for rows in ranges:
            np.testing.assert_array_equal(
                rows, np.arange(start, start + rows.size))
            start += rows.size
        assert start == num_instances


class TestColumnGrouping:
    def test_greedy_covers_every_feature_once(self, rng):
        pairs = rng.integers(0, 1000, size=50)
        groups = greedy_column_groups(pairs, 4)
        combined = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_greedy_beats_or_ties_round_robin(self, rng):
        """LPT balances at least as well as round-robin on skewed loads."""
        pairs = (rng.pareto(1.5, size=200) * 100).astype(np.int64) + 1
        greedy = greedy_column_groups(pairs, 8)
        rr = round_robin_column_groups(200, 8)
        assert group_imbalance(greedy, pairs) <= \
            group_imbalance(rr, pairs) + 1e-9

    def test_greedy_lpt_bound(self, rng):
        """LPT guarantee: max load <= mean + max item weight."""
        pairs = rng.integers(1, 500, size=120)
        groups = greedy_column_groups(pairs, 6)
        loads = np.array([pairs[g].sum() for g in groups])
        assert loads.max() <= pairs.sum() / 6 + pairs.max()

    def test_round_robin(self):
        groups = round_robin_column_groups(10, 3)
        np.testing.assert_array_equal(groups[0], [0, 3, 6, 9])
        np.testing.assert_array_equal(groups[2], [2, 5, 8])

    def test_hash_covers_all(self):
        groups = hash_column_groups(77, 4, seed=3)
        combined = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(combined, np.arange(77))

    def test_groups_are_sorted(self, rng):
        pairs = rng.integers(0, 100, size=30)
        for group in greedy_column_groups(pairs, 3):
            assert np.all(np.diff(group) > 0)


class TestVerticalShards:
    def test_features_tile(self, binned_binary):
        shards, groups = vertical_shards(binned_binary, 4)
        combined = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(
            combined, np.arange(binned_binary.num_features)
        )
        assert sum(s.num_features for s in shards) == \
            binned_binary.num_features

    def test_every_shard_has_all_instances(self, binned_binary):
        shards, _ = vertical_shards(binned_binary, 4)
        for shard in shards:
            assert shard.num_instances == binned_binary.num_instances

    def test_shard_columns_match_source(self, binned_binary):
        shards, groups = vertical_shards(binned_binary, 3)
        dense = binned_binary.binned.to_dense()
        for shard, group in zip(shards, groups):
            np.testing.assert_array_equal(
                shard.binned.to_dense(), dense[:, group]
            )

    def test_strategies(self, binned_binary):
        for strategy in ("greedy", "round-robin", "hash"):
            shards, groups = vertical_shards(binned_binary, 3,
                                             strategy=strategy)
            assert len(shards) == 3

    def test_unknown_strategy(self, binned_binary):
        with pytest.raises(ValueError, match="strategy"):
            vertical_shards(binned_binary, 3, strategy="zigzag")

    def test_greedy_balances_pairs(self, binned_sparse):
        shards, groups = vertical_shards(binned_sparse, 4)
        loads = np.array([s.binned.nnz for s in shards])
        assert loads.max() <= loads.mean() * 1.3 + 10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_features=st.integers(1, 100),
    num_workers=st.integers(1, 10),
)
def test_property_greedy_partition_and_bound(seed, num_features,
                                             num_workers):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 1000, size=num_features)
    groups = greedy_column_groups(pairs, num_workers)
    assert len(groups) == num_workers
    combined = np.sort(np.concatenate([g for g in groups]))
    np.testing.assert_array_equal(combined, np.arange(num_features))
    loads = np.array([pairs[g].sum() if g.size else 0 for g in groups])
    if pairs.size:
        assert loads.max() <= pairs.sum() / num_workers + pairs.max()
