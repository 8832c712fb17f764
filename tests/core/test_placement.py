"""Placement computation tests (node splitting, Section 2.2.1): both
layouts against a brute-force dense lookup on random sparse shards
and on full shards (every feature of every row stored)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import NodeToInstanceIndex
from repro.core.placement import (layer_placements_colstore,
                                  layer_placements_rowstore)
from repro.core.split import SplitInfo
from repro.data.matrix import CSRMatrix


def random_shard(rng, num_rows, num_cols, density, num_bins=6,
                 absent=None):
    """Binned CSR plus its dense view (-1 = missing).  Row 0 is empty,
    the last row holds a single entry, and column ``absent`` (drawn when
    ``None``; ``-1`` for none) is absent from every row."""
    dense = np.full((num_rows, num_cols), -1, dtype=np.int64)
    mask = rng.random((num_rows, num_cols)) < density
    mask[0] = False
    if absent is None:
        absent = rng.integers(-1, num_cols)
    if absent >= 0:
        mask[:, absent] = False
    if num_rows > 1:
        mask[-1] = False
        mask[-1, rng.integers(num_cols)] = True
    dense[mask] = rng.integers(0, num_bins, size=mask.sum())
    return binned_csr(dense), dense


def full_shard(rng, num_rows, num_cols, num_bins=6, short=False):
    """Binned CSR storing every feature of every row (``nnz == N * D``,
    the full-row route), or one entry short of that when ``short``."""
    dense = rng.integers(0, num_bins, size=(num_rows, num_cols))
    if short:
        dense[rng.integers(num_rows), rng.integers(num_cols)] = -1
    return binned_csr(dense), dense


def binned_csr(dense):
    """The CSR of a dense bin matrix (-1 = missing)."""
    rows = [[(int(c), int(dense[i, c])) for c in np.flatnonzero(row >= 0)]
            for i, row in enumerate(dense)]
    return CSRMatrix.from_rows(rows, dense.shape[1], dtype=np.int32)


def expected_go_left(dense, rows, feature, bin_id, default_left):
    """The brute-force lookup: one dense cell per row."""
    values = dense[rows, feature]
    return np.where(values < 0, default_left, values <= bin_id)


def split_some_layers(rng, index, layers):
    """Random earlier splits, so nodes hold scattered row subsets."""
    for _ in range(layers):
        index.split_nodes({node: rng.random(index.count_of(node)) < 0.5
                           for node in index.active_nodes()})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), num_rows=st.integers(2, 40),
       num_cols=st.integers(2, 13),
       density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.95, 1.0]),
       layers=st.integers(0, 3), offset=st.integers(0, 5))
def test_both_layouts_equal_the_dense_lookup(seed, num_rows, num_cols,
                                             density, layers, offset):
    rng = np.random.default_rng(seed)
    shard, dense = random_shard(rng, num_rows, num_cols, density)
    check_layer_against_dense(rng, shard, dense, layers, offset)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), num_rows=st.integers(1, 40),
       num_cols=st.integers(1, 13), short=st.booleans(),
       layers=st.integers(0, 3), offset=st.integers(0, 5))
def test_full_and_one_short_shards_equal_the_dense_lookup(
        seed, num_rows, num_cols, short, layers, offset):
    """A full shard takes the direct ``r * D + f`` lookup; one entry
    short of full, the same rows take the bisection."""
    rng = np.random.default_rng(seed)
    shard, dense = full_shard(rng, num_rows, num_cols, short=short)
    assert (shard.nnz == num_rows * num_cols) != short
    check_layer_against_dense(rng, shard, dense, layers, offset)


def check_layer_against_dense(rng, shard, dense, layers, offset):
    """One layer of random splits, some on features of other shards,
    placed by both layouts and compared with the dense lookup."""
    num_rows, num_cols = dense.shape
    index = NodeToInstanceIndex(num_rows)
    split_some_layers(rng, index, layers)
    nodes = index.active_nodes()
    # global feature ids: the shard's columns start at ``offset``; ids
    # below or past them belong to another worker's shard
    splits = {
        node: SplitInfo(int(rng.integers(-1, num_cols + 1)) + offset,
                        int(rng.integers(0, 6)), bool(rng.integers(2)),
                        1.0)
        for node in nodes if rng.random() < 0.8
    }
    local = {node: split for node, split in splits.items()
             if 0 <= split.feature - offset < num_cols}
    row_p = layer_placements_rowstore(shard, index, splits, offset)
    col_p = layer_placements_colstore(shard.to_csc(), index, splits, offset)
    assert set(row_p) == set(col_p) == set(local)
    for node, split in local.items():
        want = expected_go_left(dense, index.rows_of(node),
                                split.feature - offset, split.bin,
                                split.default_left)
        np.testing.assert_array_equal(row_p[node], want)
        np.testing.assert_array_equal(col_p[node], want)


class TestRowstorePlacements:
    def test_feature_absent_from_every_row_takes_the_default(self, rng):
        shard, _ = random_shard(rng, 30, 5, 0.6, absent=2)
        index = NodeToInstanceIndex(30)
        for default_left in (False, True):
            placements = layer_placements_rowstore(
                shard, index, {0: SplitInfo(2, 0, default_left, 1.0)})
            assert placements[0].tolist() == [default_left] * 30

    def test_empty_shard(self):
        shard = CSRMatrix.from_rows([[], [], []], 4, dtype=np.int32)
        index = NodeToInstanceIndex(3)
        placements = layer_placements_rowstore(
            shard, index, {0: SplitInfo(1, 0, True, 1.0)})
        assert placements[0].tolist() == [True] * 3

    def test_empty_node(self, rng):
        shard, _ = random_shard(rng, 10, 4, 0.5)
        index = NodeToInstanceIndex(10)
        index.split_nodes({0: np.ones(10, dtype=bool)})
        placements = layer_placements_rowstore(
            shard, index, {1: SplitInfo(0, 2, False, 1.0),
                           2: SplitInfo(1, 2, True, 1.0)})
        assert placements[1].size == 10
        assert placements[2].size == 0

    def test_foreign_features_skipped(self, rng):
        """Vertical partitioning: splits on features outside the shard
        produce no placement (another worker owns them)."""
        shard, _ = random_shard(rng, 30, 5, 0.6)
        index = NodeToInstanceIndex(30)
        split = {0: SplitInfo(feature=100, bin=1, default_left=False,
                              gain=1.0)}
        assert layer_placements_rowstore(shard, index, split) == {}

    def test_full_shard_never_reads_row_lengths(self, rng, monkeypatch):
        """The full-row route addresses entries without the per-row
        bounds; only the bisection reads ``row_lengths``."""
        calls = []
        real = CSRMatrix.row_lengths
        monkeypatch.setattr(CSRMatrix, "row_lengths",
                            lambda m: calls.append(m) or real(m))
        index = NodeToInstanceIndex(30)
        index.split_nodes({0: rng.random(30) < 0.5})
        splits = {1: SplitInfo(2, 3, False, 1.0),
                  2: SplitInfo(4, 1, True, 1.0)}
        for short in (False, True):
            shard, _ = full_shard(rng, 30, 5, short=short)
            layer_placements_rowstore(shard, index, splits)
            assert bool(calls) == short
