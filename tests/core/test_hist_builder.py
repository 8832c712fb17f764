"""HistogramBuilder engine tests.

Covers the builder around the kernels: repeated builds carry no stale
state, the root fast path of the row-store kernel and its whole-row
gather on full shards are bit-for-bit identical to the entry-position
gather, all four kernels agree on random sparse shards for 1- and
3-dimensional gradients, the histogram store
tracks live and peak bytes, and the lookup-table leaf gathers match the
masked loops they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (ColumnwiseIndex, Histogram,
                                  HistogramBuilder, default_builder)
from repro.core.tree import Tree, leaf_matrix
from repro.data.matrix import CSRMatrix
from repro.systems.base import HistogramStore


def make_binned(rng, num_rows=40, num_features=6, num_bins=5,
                density=0.6):
    """Random binned CSR plus the dense bin matrix (-1 = missing)."""
    dense = np.full((num_rows, num_features), -1, dtype=np.int64)
    mask = rng.random((num_rows, num_features)) < density
    dense[mask] = rng.integers(0, num_bins, size=mask.sum())
    rows = []
    for i in range(num_rows):
        cols = np.flatnonzero(dense[i] >= 0)
        rows.append([(int(c), int(dense[i, c])) for c in cols])
    csr = CSRMatrix.from_rows(rows, num_features, dtype=np.int32)
    return csr, dense


class TestBuilderReuse:
    def test_recycled_kernel_runs_carry_no_stale_state(self, rng):
        """Two builds through one builder equal two independent builds."""
        csr, _ = make_binned(rng)
        rows = np.arange(40, dtype=np.int64)
        builder = HistogramBuilder()
        for trial in range(3):
            grad = rng.standard_normal((40, 1))
            hess = rng.random((40, 1))
            hist, touched = builder.build_rowstore(csr, rows, grad, hess, 5)
            fresh, fresh_touched = HistogramBuilder().build_rowstore(
                csr, rows, grad, hess, 5
            )
            assert touched == fresh_touched
            assert np.array_equal(hist.grad, fresh.grad)
            assert np.array_equal(hist.hess, fresh.hess)

    def test_default_builder_is_shared(self):
        assert default_builder() is default_builder()


class TestRootFastPath:
    @pytest.mark.parametrize("gradient_dim", [1, 3])
    def test_bit_for_bit_vs_generic(self, rng, gradient_dim):
        csr, _ = make_binned(rng, num_rows=60, num_features=8, num_bins=7,
                             density=0.4)
        grad = rng.standard_normal((60, gradient_dim))
        hess = rng.random((60, gradient_dim))
        rows = np.arange(60, dtype=np.int64)
        builder = HistogramBuilder()
        via_root, touched_root = builder._rowstore_root(csr, grad, hess, 7)
        via_gather, touched_gather = builder._rowstore_gather(
            csr, rows, grad, hess, 7
        )
        assert touched_root == touched_gather == csr.nnz
        assert np.array_equal(via_root.grad, via_gather.grad)
        assert np.array_equal(via_root.hess, via_gather.hess)

    def test_dispatch_takes_root_path_for_all_rows(self, rng, monkeypatch):
        csr, _ = make_binned(rng)
        grad = rng.standard_normal((40, 1))
        builder = HistogramBuilder()
        called = {}

        def spy(shard, g, h, num_bins):
            called["root"] = True
            return HistogramBuilder._rowstore_root(builder, shard, g, h,
                                                   num_bins)

        monkeypatch.setattr(builder, "_rowstore_root", spy)
        builder.build_rowstore(csr, np.arange(40), grad, grad, 5)
        assert called.get("root")
        called.clear()
        builder.build_rowstore(csr, np.arange(39), grad, grad, 5)
        assert "root" not in called

    def test_empty_shard(self, rng):
        csr = CSRMatrix.from_rows([[] for _ in range(4)], 3,
                                  dtype=np.int32)
        grad = np.ones((4, 1))
        hist, touched = default_builder().build_rowstore(
            csr, np.arange(4), grad, grad, 5)
        assert touched == 0
        assert np.all(hist.grad == 0.0)


def full_binned(rng, num_rows, num_features, num_bins, bins_used=None):
    """A binned CSR storing every feature of every row (the full-row
    route), its bins drawn from the first ``bins_used`` bins."""
    dense = rng.integers(0, bins_used or num_bins,
                         size=(num_rows, num_features))
    rows = [[(f, int(b)) for f, b in enumerate(row)] for row in dense]
    return CSRMatrix.from_rows(rows, num_features, dtype=np.int32)


def with_empty_row(csr):
    """``csr`` plus one trailing empty row: the same entries, not full."""
    return CSRMatrix(np.append(csr.indptr, csr.indptr[-1]), csr.indices,
                     csr.values, csr.num_cols)


class TestFullShardGather:
    """A non-root node of a full shard takes whole rows of the shard's
    keys; the same shard with one empty row appended takes the
    entry-position gather.  Same keys in the same order: every bin must
    be bit for bit the same."""

    @pytest.mark.parametrize("gradient_dim", [1, 3])
    @pytest.mark.parametrize("bins_used", [None, 2])
    def test_bit_for_bit_vs_entry_position_gather(self, rng, gradient_dim,
                                                  bins_used):
        num_rows, num_features, num_bins = 50, 6, 7
        full = full_binned(rng, num_rows, num_features, num_bins, bins_used)
        padded = with_empty_row(full)
        assert full.nnz == num_rows * num_features
        assert padded.nnz < padded.num_rows * num_features
        # two of seven bins used: the slots basis; all seven: dense keys
        assert (full.hist_basis(num_bins) is None) == (bins_used is None)
        grad = rng.standard_normal((num_rows + 1, gradient_dim))
        hess = rng.random((num_rows + 1, gradient_dim))
        builder = HistogramBuilder()
        picks = [np.sort(rng.choice(num_rows, size, replace=False))
                 for size in (1, 17, num_rows - 1)]
        picks += [rng.permutation(num_rows)[:23],
                  np.array([], dtype=np.int64)]
        for rows in picks:
            a, touched_a = builder.build_rowstore(full, rows, grad, hess,
                                                  num_bins)
            b, touched_b = builder.build_rowstore(padded, rows, grad, hess,
                                                  num_bins)
            assert touched_a == touched_b == rows.size * num_features
            assert np.array_equal(a.slots, b.slots)
            assert np.array_equal(a.grad, b.grad)
            assert np.array_equal(a.hess, b.hess)

    def test_full_shard_never_reads_row_lengths(self, rng, monkeypatch):
        """Only the entry-position gather reads ``row_lengths``."""
        calls = []
        real = CSRMatrix.row_lengths
        monkeypatch.setattr(CSRMatrix, "row_lengths",
                            lambda m: calls.append(m) or real(m))
        full = full_binned(rng, 30, 5, 6)
        grad = rng.standard_normal((31, 1))
        builder = HistogramBuilder()
        builder.build_rowstore(full, np.arange(0, 30, 2), grad, grad, 6)
        assert calls == []
        builder.build_rowstore(with_empty_row(full), np.arange(0, 30, 2),
                               grad, grad, 6)
        assert calls


class TestFourKernelAgreement:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           gradient_dim=st.sampled_from([1, 3]))
    def test_all_kernels_allclose(self, seed, gradient_dim):
        rng = np.random.default_rng(seed)
        num_rows, num_features, num_bins = 50, 7, 6
        csr, dense = make_binned(rng, num_rows=num_rows,
                                 num_features=num_features,
                                 num_bins=num_bins,
                                 density=float(rng.uniform(0.1, 0.9)))
        csc = csr.to_csc()
        grad = rng.standard_normal((num_rows, gradient_dim))
        hess = rng.random((num_rows, gradient_dim))
        node_of = rng.integers(0, 2, size=num_rows).astype(np.int64)
        node_rows = np.flatnonzero(node_of == 1).astype(np.int64)
        builder = HistogramBuilder()

        via_row, _ = builder.build_rowstore(csr, node_rows, grad, hess,
                                            num_bins)
        layer_hists, _ = builder.build_colstore_layer(
            csc, node_of, 2, grad, hess, num_bins
        )
        via_layer = layer_hists[1]
        via_hybrid, _, _ = builder.build_colstore_hybrid(
            csc, node_rows, node_of, 1, grad, hess, num_bins
        )
        index = ColumnwiseIndex(csc)
        index.update_after_split(node_of, [0, 1])
        via_columnwise, _ = builder.build_colstore_columnwise(
            index, 1, grad, hess, num_bins
        )

        for other in (via_layer, via_hybrid, via_columnwise):
            assert via_row.allclose(other, rtol=1e-9, atol=1e-12)


class TestHistogramStore:
    def test_pop_returns_hist_and_tracks_bytes(self):
        store = HistogramStore()
        hist = Histogram(3, 4, 1)
        store.put(0, hist)
        assert store.live_bytes == hist.nbytes
        assert store.pop(0) is hist
        assert store.pop(0) is None
        assert store.live_bytes == 0
        assert store.peak_bytes == hist.nbytes

    def test_clear_forgets_live_bytes(self):
        store = HistogramStore()
        store.put(0, Histogram(3, 4, 1))
        store.put(1, Histogram(3, 4, 1))
        store.clear()
        assert store.live_bytes == 0
        assert 0 not in store and 1 not in store


class TestLeafLookupTables:
    def _make_tree(self):
        tree = Tree(3, 1)
        tree.set_leaf(1, np.array([0.5]))
        tree.set_leaf(2, np.array([-1.25]))
        return tree

    def _reference(self, tree, leaf_of_instance):
        out = np.zeros((leaf_of_instance.size, tree.gradient_dim))
        for node_id, node in tree.nodes.items():
            if node.is_leaf:
                mask = leaf_of_instance == node_id
                if mask.any():
                    out[mask] = node.weight
        return out

    def test_matches_masked_loop(self, rng):
        tree = self._make_tree()
        leaf_of = rng.choice([1, 2], size=30).astype(np.int32)
        assert np.array_equal(leaf_matrix(tree, leaf_of),
                              self._reference(tree, leaf_of))

    def test_subsampled_rows_get_zero(self, rng):
        tree = self._make_tree()
        leaf_of = rng.choice([1, 2, -1], size=30).astype(np.int32)
        got = leaf_matrix(tree, leaf_of)
        assert np.array_equal(got, self._reference(tree, leaf_of))
        assert np.all(got[leaf_of == -1] == 0.0)
