"""Empirical validation of the Section 3.2.4 complexity claims.

Rather than wall-clock time (noisy), these tests count *stored-entry
accesses* reported by the instrumented kernels and check they scale as
the paper's analysis says: histogram construction O(N d / W) per layer,
subtraction skipping at least half the instances below the root, the
hybrid column kernel's search/scan split, and the columnwise index's
O(nnz)-per-layer maintenance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_classification
from repro.core.gbdt import build_histograms_with_subtraction
from repro.core.histogram import ColumnwiseIndex, HistogramBuilder
from repro.core.indexing import NodeToInstanceIndex
from repro.core.loss import make_loss
from repro.data.dataset import bin_dataset

BUILDER = HistogramBuilder()


@pytest.fixture(scope="module")
def counted():
    ds = make_classification(4_000, 80, density=0.5, seed=88)
    binned = bin_dataset(ds, 12)
    loss = make_loss("binary")
    grad, hess = loss.gradients(
        ds.labels, loss.init_scores(ds.num_instances)
    )
    return ds, binned, grad, hess


class TestAccessCounts:
    def test_rowstore_touches_exactly_node_entries(self, counted):
        _, binned, grad, hess = counted
        rows = np.arange(0, binned.num_instances, 3)
        _, touched = BUILDER.build_rowstore(binned.binned, rows, grad,
                                            hess, binned.num_bins)
        lengths = np.diff(binned.binned.indptr)[rows]
        assert touched == int(lengths.sum())

    def test_colstore_layer_always_touches_everything(self, counted):
        """QD1's kernel scans all nnz per layer regardless of how many
        rows remain on active nodes — the no-subtraction cost."""
        _, binned, grad, hess = counted
        csc = binned.csc()
        # only 10% of instances still active
        slot = np.full(binned.num_instances, -1, dtype=np.int64)
        slot[:binned.num_instances // 10] = 0
        _, touched = BUILDER.build_colstore_layer(csc, slot, 1, grad, hess,
                                                  binned.num_bins)
        assert touched == csc.nnz

    def test_subtraction_halves_layer_accesses(self, counted):
        """With subtraction, one layer's builds touch only the smaller
        sibling of each pair: at most half the parent entries."""
        _, binned, grad, hess = counted
        index = NodeToInstanceIndex(binned.num_instances)
        store = {}
        root_scanned = build_histograms_with_subtraction(
            binned, index, [0], grad, hess, store,
        )
        rng = np.random.default_rng(0)
        index.split_nodes({0: rng.random(binned.num_instances) < 0.5})
        layer_scanned = build_histograms_with_subtraction(
            binned, index, [1, 2], grad, hess, store,
        )
        assert layer_scanned <= root_scanned * 0.55

    def test_hybrid_kernel_work_bounded(self, counted):
        """scanned + searched stays within the per-column minimum of the
        two strategies (summed), i.e. never worse than either plan."""
        _, binned, grad, hess = counted
        csc = binned.csc()
        node_of = np.zeros(binned.num_instances, dtype=np.int64)
        node_of[:20] = 1  # tiny node: search beats scanning long columns
        node_rows = np.flatnonzero(node_of == 1)
        _, scanned, searched = BUILDER.build_colstore_hybrid(
            csc, node_rows, node_of, 1, grad, hess, binned.num_bins,
        )
        # upper bound: pure linear scan of all columns
        assert scanned + searched <= csc.nnz
        # small node on long columns: the kernel must binary-search
        assert searched > 0

    def test_columnwise_update_touches_all_entries(self, counted):
        _, binned, grad, hess = counted
        csc = binned.csc()
        index = ColumnwiseIndex(csc)
        node_of = np.random.default_rng(1).integers(
            1, 3, size=binned.num_instances
        )
        moved = index.update_after_split(node_of, [1, 2])
        assert moved == csc.nnz  # D-times the other indexes' bookkeeping

    def test_node_split_updates_linear_in_instances(self, counted):
        """NodeToInstanceIndex moves each instance exactly once per
        layer: O(N) node splitting (Section 3.2.4)."""
        _, binned, grad, hess = counted
        index = NodeToInstanceIndex(binned.num_instances)
        rng = np.random.default_rng(2)
        index.split_nodes({0: rng.random(binned.num_instances) < 0.5})
        first_layer = index.updates
        assert first_layer == binned.num_instances
        index.split_nodes({node: rng.random(index.count_of(node)) < 0.5
                           for node in (1, 2)})
        assert index.updates == 2 * binned.num_instances


class TestScalingWithWorkers:
    def test_vertical_per_worker_entries_shrink_with_w(self, counted):
        """Each vertical worker's histogram work is ~nnz / W."""
        from repro.cluster.partition import vertical_shards

        _, binned, grad, hess = counted
        total = binned.binned.nnz
        for workers in (2, 4, 8):
            shards, _ = vertical_shards(binned, workers)
            max_load = max(s.binned.nnz for s in shards)
            assert max_load <= total / workers * 1.3

    def test_horizontal_per_worker_entries_shrink_with_w(self, counted):
        from repro.cluster.partition import horizontal_shards

        _, binned, grad, hess = counted
        total = binned.binned.nnz
        for workers in (2, 4, 8):
            shards, _ = horizontal_shards(binned, workers)
            max_load = max(s.binned.nnz for s in shards)
            assert max_load <= total / workers * 1.3
