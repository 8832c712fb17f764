"""HistogramBuilder engine tests.

Covers the reusable-workspace layer added on top of the kernels: pool
recycling carries no stale state, the root fast path of the row-store
kernel is bit-for-bit identical to the generic gather path, all four
kernels agree on random sparse shards for 1- and 3-dimensional
gradients, and the lookup-table leaf gathers match the masked loops
they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (ColumnwiseIndex, Histogram,
                                  HistogramBuilder, HistogramPool,
                                  default_builder)
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


class TestHistogramPool:
    def test_recycles_by_shape(self):
        pool = HistogramPool()
        a = pool.acquire(3, 4, 2)
        pool.release(a)
        b = pool.acquire(3, 4, 2)
        assert b is a
        assert pool.hits == 1 and pool.misses == 1
        # a different shape must not reuse the parked buffer
        c = pool.acquire(3, 4, 1)
        assert c is not a

    def test_recycled_buffer_is_zeroed(self):
        pool = HistogramPool()
        hist = pool.acquire(3, 4, 2)
        hist.grad[:] = 7.0
        hist.hess[:] = -1.0
        pool.release(hist)
        again = pool.acquire(3, 4, 2)
        assert again is hist
        assert np.all(again.grad == 0.0)
        assert np.all(again.hess == 0.0)

    def test_double_release_ignored(self):
        pool = HistogramPool()
        hist = Histogram(2, 2, 1)
        pool.release(hist)
        pool.release(hist)
        assert pool.retained == 1
        assert pool.acquire(2, 2, 1) is hist
        assert pool.acquire(2, 2, 1) is not hist

    def test_release_none_is_noop(self):
        pool = HistogramPool()
        pool.release(None)
        assert pool.retained == 0

    def test_retention_cap(self):
        pool = HistogramPool(max_retained=2)
        for _ in range(5):
            pool.release(Histogram(2, 2, 1))
        assert pool.retained == 2

    def test_interleaved_stress_never_aliases_live_buffers(self):
        """Seeded storm of acquire/release across mixed shapes: a live
        buffer must never be handed out twice, sentinel contents must
        survive other traffic, and the pool stays within its cap."""
        pool = HistogramPool(max_retained=8)
        rng = np.random.default_rng(20260807)
        shapes = [(2, 3, 1), (2, 3, 2), (4, 2, 1)]
        live = {}  # id(hist) -> (hist, shape, sentinel)
        for step in range(600):
            if live and (rng.random() < 0.45 or len(live) > 32):
                key = rng.choice(list(live))
                hist, shape, sentinel = live.pop(key)
                # the sentinel written at acquire time is intact: no
                # other live acquire ever aliased this buffer
                assert np.all(hist.grad == sentinel), \
                    f"step {step}: buffer clobbered while live"
                assert np.all(hist.hess == -sentinel)
                pool.release(hist)
            else:
                shape = shapes[rng.integers(len(shapes))]
                hist = pool.acquire(*shape)
                assert id(hist) not in live, \
                    f"step {step}: live buffer handed out twice"
                assert (hist.num_features, hist.num_bins,
                        hist.gradient_dim) == shape
                # recycled buffers come back zeroed
                assert np.all(hist.grad == 0.0)
                assert np.all(hist.hess == 0.0)
                sentinel = float(step + 1)
                hist.grad[:] = sentinel
                hist.hess[:] = -sentinel
                live[id(hist)] = (hist, shape, sentinel)
            assert pool.retained <= pool.max_retained
        # drain: every survivor still holds its own sentinel
        for hist, _, sentinel in live.values():
            assert np.all(hist.grad == sentinel)
        # every acquire was either a recycle hit or a fresh allocation
        assert pool.hits + pool.misses > 0
        assert pool.hits > 0 and pool.misses > 0


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
            builder.release(hist)

    def test_pool_feeds_kernel_results(self, rng):
        csr, _ = make_binned(rng)
        rows = np.arange(40, dtype=np.int64)
        grad = rng.standard_normal((40, 1))
        builder = HistogramBuilder()
        first, _ = builder.build_rowstore(csr, rows, grad, grad, 5)
        builder.release(first)
        second, _ = builder.build_rowstore(csr, rows, grad, grad, 5)
        assert second is first  # recycled, not reallocated

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


class TestPooledHistogramStore:
    def test_pop_recycles_and_returns_none(self):
        pool = HistogramPool()
        store = HistogramStore(pool=pool)
        hist = Histogram(3, 4, 1)
        store.put(0, hist)
        assert store.live_bytes == hist.nbytes
        assert store.pop(0) is None
        assert store.live_bytes == 0
        assert store.peak_bytes == hist.nbytes
        assert pool.acquire(3, 4, 1) is hist

    def test_pop_without_pool_returns_hist(self):
        store = HistogramStore()
        hist = Histogram(3, 4, 1)
        store.put(0, hist)
        assert store.pop(0) is hist

    def test_clear_recycles(self):
        pool = HistogramPool()
        store = HistogramStore(pool=pool)
        store.put(0, Histogram(3, 4, 1))
        store.put(1, Histogram(3, 4, 1))
        store.clear()
        assert store.live_bytes == 0
        assert pool.retained == 2


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
