"""Horizontal-to-vertical transformation tests (Section 4.2.1, Table 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.blocks import BlockedColumnGroup, blockify_shard
from repro.cluster.partition import horizontal_row_ranges, vertical_shards
from repro.cluster.transform import (_sketch_candidates,
                                     compressed_pair_bytes,
                                     horizontal_to_vertical)
from repro.config import ClusterConfig
from repro.data.matrix import CSRMatrix
from repro.data.synthetic import make_classification
from repro.sketch.proposer import propose_candidates
from repro.sketch.quantile import SKETCH_EPS, MergingSketch


@pytest.fixture(scope="module")
def transform_result():
    ds = make_classification(600, 80, density=0.3, seed=21)
    cluster = ClusterConfig(num_workers=4)
    return ds, horizontal_to_vertical(ds, cluster, num_candidates=12)


def blocked_group(result, group, num_workers):
    """One column group assembled as Vero's repartition ships it: one
    block per horizontal row range of the binned matrix (Fig. 9)."""
    binned = result.global_binned.binned
    return BlockedColumnGroup(
        [blockify_shard(binned.select_rows(rows).select_cols(group),
                        int(rows[0]))
         for rows in horizontal_row_ranges(binned.shape[0], num_workers)
         if rows.size],
        group.size)


class TestCorrectness:
    def test_features_tile(self, transform_result):
        ds, result = transform_result
        assert len(result.groups) == 4
        combined = np.sort(np.concatenate(result.groups))
        np.testing.assert_array_equal(combined,
                                      np.arange(ds.num_features))

    def test_shards_agree_with_global(self, transform_result):
        """The shards the vertical partition trains on are the priced
        groups' columns of the transformation's binned matrix."""
        _, result = transform_result
        shards, groups = vertical_shards(result.global_binned, 4)
        assert len(shards) == len(result.groups) == 4
        dense = result.global_binned.binned.to_dense()
        for shard, group, priced in zip(shards, groups, result.groups):
            np.testing.assert_array_equal(group, priced)
            np.testing.assert_array_equal(shard.binned.to_dense(),
                                          dense[:, group])

    def test_blocked_groups_match_shards(self, transform_result):
        """A group blockified over the horizontal row ranges holds the
        same data as its training shard, instance by instance
        (two-phase lookup)."""
        ds, result = transform_result
        shards, _ = vertical_shards(result.global_binned, 4)
        for shard, group in zip(shards, result.groups):
            blocked = blocked_group(result, group, 4)
            assert blocked.num_rows == ds.num_instances
            for i in (0, 5, 100, 151, ds.num_instances - 1):
                cols, bins = blocked.lookup(i)
                ref_cols, ref_bins = shard.binned.row(i)
                np.testing.assert_array_equal(cols, ref_cols)
                np.testing.assert_array_equal(bins, ref_bins)

    def test_blocks_are_merged(self, transform_result):
        _, result = transform_result
        for group in result.groups:
            blocked = blocked_group(result, group, 4)
            assert blocked.num_blocks == 4
            merged = blocked.merge(max_blocks=2)
            assert merged.num_blocks == 2
            expected = result.global_binned.binned.select_cols(group)
            np.testing.assert_array_equal(merged.to_csr().to_dense(),
                                          expected.to_dense())

    def test_bin_values_consistent_with_cuts(self, transform_result):
        """Every binned value equals the searchsorted rank of the raw
        value in that feature's cut array — the encoding is lossless with
        respect to the histograms."""
        ds, result = transform_result
        csr = ds.features
        binned = result.global_binned.binned
        for i in (0, 17, 300):
            cols, vals = csr.row(i)
            _, bins = binned.row(i)
            for c, v, b in zip(cols, vals, bins):
                assert b == np.searchsorted(result.cuts[c], v,
                                            side="left")

    def test_labels_preserved(self, transform_result):
        ds, result = transform_result
        np.testing.assert_array_equal(result.global_binned.labels,
                                      ds.labels)


class TestCostReport:
    def test_all_steps_accounted(self, transform_result):
        _, result = transform_result
        report = result.report
        assert report.load_data_seconds > 0
        assert report.get_splits_seconds > 0
        assert report.broadcast_label_seconds > 0
        assert set(report.repartition_seconds) == {
            "naive", "compressed", "blockified"
        }

    def test_encoding_ordering(self, transform_result):
        """Table 5 shape: naive >= compressed >= blockified (time), and
        naive strictly exceeds compressed in bytes."""
        _, result = transform_result
        seconds = result.report.repartition_seconds
        nbytes = result.report.repartition_bytes
        assert seconds["naive"] >= seconds["compressed"] >= \
            seconds["blockified"]
        assert nbytes["naive"] > nbytes["compressed"]
        assert nbytes["compressed"] == nbytes["blockified"]

    def test_compression_ratio_about_4x(self, transform_result):
        """12-byte raw pairs vs 2-3 encoded bytes: the paper reports up
        to 4x compression."""
        _, result = transform_result
        assert result.report.compression_ratio >= 4.0

    def test_total_seconds(self, transform_result):
        _, result = transform_result
        report = result.report
        assert report.total_seconds("blockified") <= \
            report.total_seconds("naive")


class TestCompressedPairBytes:
    def test_small_group(self):
        # 100 features -> 1 byte fid; 20 bins -> 1 byte bin
        assert compressed_pair_bytes(100, 20) == 2

    def test_large_group(self):
        # 100k features -> 3 bytes fid
        assert compressed_pair_bytes(100_000, 20) == 4

    def test_minimum_one_byte_each(self):
        assert compressed_pair_bytes(1, 1) == 2


class TestTrainingOnTransformed:
    def test_vero_fit_from_raw(self):
        from repro import TrainConfig, get_plan

        ds = make_classification(500, 40, density=0.5, seed=22)
        train, valid = ds.split(0.8, seed=1)
        cfg = TrainConfig(num_trees=4, num_layers=4, num_candidates=8)
        vero = get_plan("vero").build(cfg, ClusterConfig(num_workers=3))
        result, transform = vero.fit_from_raw(train, valid=valid)
        assert len(result.ensemble) == 4
        assert result.evals[-1].metric_value > 0.7
        assert transform.report.compression_ratio >= 4.0

    def test_the_move_is_made_once(self, monkeypatch):
        """``fit_from_raw`` cuts each column group from the binned matrix
        once (in the vertical partition), builds no shipped block, and
        trains on the groups the transformation priced."""
        from repro import TrainConfig, get_plan
        from repro.cluster.blocks import Block
        from repro.data.dataset import BinnedDataset

        calls = {"select_features": 0, "block": 0}
        select_features = BinnedDataset.select_features
        block_init = Block.__post_init__

        def count_select(self, *args, **kwargs):
            calls["select_features"] += 1
            return select_features(self, *args, **kwargs)

        def count_block(self):
            calls["block"] += 1
            block_init(self)

        monkeypatch.setattr(BinnedDataset, "select_features", count_select)
        monkeypatch.setattr(Block, "__post_init__", count_block)
        train = make_classification(300, 30, density=0.4, seed=23)
        cfg = TrainConfig(num_trees=2, num_layers=3, num_candidates=8)
        system = get_plan("vero").build(cfg, ClusterConfig(num_workers=4))
        _, transform = system.fit_from_raw(train)
        assert calls == {"select_features": 4, "block": 0}
        assert len(transform.groups) == len(system.groups) == 4
        for priced, trained in zip(transform.groups, system.groups):
            np.testing.assert_array_equal(priced, trained)

    def test_the_move_is_priced_on_every_grouping_it_trains(self):
        """Whatever grouping the executor uses, the transformation
        prices the groups it trains on; the repartition costs equal
        greedy's, since the mean group size is D/W for any tiling."""
        from repro import TrainConfig, get_plan

        train = make_classification(200, 20, seed=0)
        cfg = TrainConfig(num_trees=1, num_layers=2, num_candidates=8)
        reports = {}
        for grouping in ("greedy", "round-robin", "hash"):
            system = get_plan("vero").build(cfg,
                                            ClusterConfig(num_workers=3))
            system.grouping = grouping
            _, transform = system.fit_from_raw(train)
            assert len(transform.groups) == len(system.groups) == 3
            for priced, trained in zip(transform.groups, system.groups):
                np.testing.assert_array_equal(priced, trained)
            reports[grouping] = transform.report
        greedy = reports["greedy"]
        for report in reports.values():
            assert report.repartition_bytes == greedy.repartition_bytes
            assert report.repartition_seconds == \
                greedy.repartition_seconds


def sketch_every_feature(raw_shards, num_features, num_candidates, eps):
    """Steps 1-2 with one ``MergingSketch`` per feature per shard — the
    path ``_sketch_candidates`` keeps for heavy features only."""
    merged = [None] * num_features
    sketch_bytes = 0
    for shard in raw_shards:
        csc = shard.to_csc()
        for j in range(num_features):
            _, vals = csc.col(j)
            if vals.size == 0:
                continue
            local = MergingSketch(eps=eps)
            local.update(vals)
            sketch_bytes += local.serialized_nbytes
            merged[j] = local if merged[j] is None \
                else merged[j].merge(local)
    cuts = [propose_candidates(sketch, num_candidates)
            if sketch is not None else np.empty(0, dtype=np.float64)
            for sketch in merged]
    return cuts, sketch_bytes


def spread(total, num_shards, rng):
    """``total`` stored values dealt over the shards, some left empty."""
    return np.bincount(rng.integers(0, num_shards, size=total),
                       minlength=num_shards)


#: feature kind -> (per-shard counts, value sampler)
FEATURE_KINDS = {
    "empty": lambda w, rng: (np.zeros(w, dtype=np.int64), None),
    "few": lambda w, rng: (
        spread(int(rng.integers(1, 40)), w, rng), rng.standard_normal),
    "constant": lambda w, rng: (
        spread(int(rng.integers(1, 60)), w, rng),
        lambda n: np.full(n, -2.5)),
    "duplicates": lambda w, rng: (
        spread(int(rng.integers(1, 300)), w, rng),
        lambda n: rng.integers(-3, 4, size=n).astype(np.float64)),
    "at-max-summary": lambda w, rng: (
        spread(int(rng.choice([399, 400, 401])), w, rng),
        rng.standard_normal),
    "heavy": lambda w, rng: (
        spread(int(rng.integers(402, 3000)), w, rng),
        lambda n: np.round(rng.standard_normal(n), 2)),
    "at-buffer-size": lambda w, rng: (
        np.roll(np.r_[int(rng.choice([8191, 8192, 8193])),
                      spread(50, w, rng)[1:]], int(rng.integers(w))),
        rng.standard_normal),
}


def shards_of(kinds, num_shards, rng):
    """One CSR shard per worker; feature ``j`` is of ``kinds[j]``."""
    counts, samplers = zip(*(FEATURE_KINDS[kind](num_shards, rng)
                             for kind in kinds))
    counts = np.array(counts)                     # (D, W)
    shards = []
    for w in range(num_shards):
        rows = max(int(counts[:, w].max()), 1)
        present = np.zeros((rows, len(kinds)), dtype=bool)
        dense = np.zeros((rows, len(kinds)))
        for j, sampler in enumerate(samplers):
            held = rng.permutation(rows)[:counts[j, w]]
            present[held, j] = True
            if held.size:
                dense[held, j] = sampler(held.size)
        row_of, col_of = np.nonzero(present)
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
        shards.append(CSRMatrix(indptr, col_of, dense[row_of, col_of],
                                len(kinds)))
    return shards


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(FEATURE_KINDS)), min_size=1,
                   max_size=8),
    num_shards=st.integers(1, 8),
    num_candidates=st.sampled_from([1, 2, 7, 20, 64]),
    seed=st.integers(0, 100_000),
)
def test_blocked_sketching_equals_per_feature_sketches(
        kinds, num_shards, num_candidates, seed):
    """Light features sorted in one block and heavy ones sketched return
    the cuts and the sketch bytes of sketching every feature."""
    shards = shards_of(kinds, num_shards, np.random.default_rng(seed))
    cuts, sketch_bytes = _sketch_candidates(
        shards, len(kinds), num_candidates)
    expected_cuts, expected_bytes = sketch_every_feature(
        shards, len(kinds), num_candidates, SKETCH_EPS)
    assert sketch_bytes == expected_bytes
    assert len(cuts) == len(expected_cuts)
    for got, expected in zip(cuts, expected_cuts):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
