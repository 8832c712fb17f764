"""Histogram kernel tests: every kernel against a brute-force reference,
plus the subtraction identity of Section 2.1.2."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (ColumnwiseIndex, Histogram,
                                  HistogramBuilder, histogram_size_bytes,
                                  subtraction_schedule)
from repro.data.matrix import CSRMatrix

BUILDER = HistogramBuilder()


def brute_force_histogram(dense_bins, rows, grad, hess, num_bins):
    """Reference: iterate entries one by one. -1 marks a missing value."""
    num_features = dense_bins.shape[1]
    hist = Histogram(num_features, num_bins, grad.shape[1])
    gv, hv = hist.grad_view(), hist.hess_view()
    for i in rows:
        for f in range(num_features):
            b = dense_bins[i, f]
            if b < 0:
                continue
            gv[f, b] += grad[i]
            hv[f, b] += hess[i]
    return hist


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


class TestHistogramContainer:
    def test_size_formula(self):
        # Sizehist = 2 * D * q * C * 8 (Section 3.1.1)
        assert histogram_size_bytes(330_000, 20, 9) == \
            2 * 330_000 * 20 * 9 * 8
        hist = Histogram(10, 8, 3)
        assert hist.nbytes == histogram_size_bytes(10, 8, 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Histogram(0, 5, 1)

    def test_add_and_subtract(self, rng):
        a = Histogram(3, 4, 2)
        b = Histogram(3, 4, 2)
        a.grad[:] = rng.standard_normal(a.grad.shape)
        b.grad[:] = rng.standard_normal(b.grad.shape)
        total = a.copy().add_inplace(b)
        back = total.subtract(b)
        assert back.allclose(a)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            Histogram(3, 4, 2).subtract(Histogram(3, 4, 1))

    def test_views_share_memory(self):
        hist = Histogram(2, 3, 1)
        hist.grad_view()[1, 2, 0] = 5.0
        assert hist.grad[1 * 3 + 2, 0] == 5.0


class TestRowstoreKernel:
    @pytest.mark.parametrize("gradient_dim", [1, 3])
    def test_matches_brute_force(self, rng, gradient_dim):
        csr, dense = make_binned(rng)
        grad = rng.standard_normal((40, gradient_dim))
        hess = rng.random((40, gradient_dim))
        rows = rng.choice(40, size=17, replace=False)
        rows.sort()
        hist, touched = BUILDER.build_rowstore(csr, rows, grad, hess, 5)
        ref = brute_force_histogram(dense, rows, grad, hess, 5)
        assert hist.allclose(ref, rtol=1e-12)
        assert touched == sum((dense[r] >= 0).sum() for r in rows)

    def test_empty_rows(self, rng):
        csr, _ = make_binned(rng)
        grad = rng.standard_normal((40, 1))
        hist, touched = BUILDER.build_rowstore(
            csr, np.empty(0, dtype=np.int64), grad, grad, 5)
        assert touched == 0
        assert np.all(hist.grad == 0)


class TestColstoreLayerKernel:
    @pytest.mark.parametrize("gradient_dim", [1, 2])
    def test_matches_brute_force_per_node(self, rng, gradient_dim):
        csr, dense = make_binned(rng)
        csc = csr.to_csc()
        grad = rng.standard_normal((40, gradient_dim))
        hess = rng.random((40, gradient_dim))
        # three "nodes" plus some retired rows (slot -1)
        slot = rng.integers(-1, 3, size=40)
        hists, touched = BUILDER.build_colstore_layer(csc, slot, 3, grad,
                                                      hess, 5)
        assert touched == csc.nnz
        for s in range(3):
            rows = np.flatnonzero(slot == s)
            ref = brute_force_histogram(dense, rows, grad, hess, 5)
            assert hists[s].allclose(ref, rtol=1e-12)

    def test_no_active_slots(self, rng):
        csr, _ = make_binned(rng)
        grad = rng.standard_normal((40, 1))
        hists, _ = BUILDER.build_colstore_layer(
            csr.to_csc(), np.full(40, -1), 0, grad, grad, 5
        )
        assert hists == []


class TestColstoreHybridKernel:
    def test_matches_brute_force(self, rng):
        csr, dense = make_binned(rng, num_rows=60, density=0.3)
        csc = csr.to_csc()
        grad = rng.standard_normal((60, 1))
        hess = rng.random((60, 1))
        node_of = rng.integers(5, 8, size=60)
        node_rows = np.flatnonzero(node_of == 6)
        hist, scanned, searched = BUILDER.build_colstore_hybrid(
            csc, node_rows, node_of, 6, grad, hess, 5
        )
        ref = brute_force_histogram(dense, node_rows, grad, hess, 5)
        assert hist.allclose(ref, rtol=1e-12)
        assert scanned + searched > 0

    def test_uses_both_strategies(self, rng):
        # tiny node on a dataset with long columns forces binary search;
        # short columns force linear scans
        csr, dense = make_binned(rng, num_rows=200, num_features=4,
                                 density=0.9)
        sparse_csr, sparse_dense = make_binned(rng, num_rows=200,
                                               num_features=4,
                                               density=0.01)
        grad = rng.standard_normal((200, 1))
        node_of = np.zeros(200, dtype=np.int64)
        node_of[:3] = 1
        node_rows = np.arange(3)
        _, scanned_dense, searched_dense = BUILDER.build_colstore_hybrid(
            csr.to_csc(), node_rows, node_of, 1, grad, grad, 5
        )
        assert searched_dense > 0  # long columns -> binary search
        _, scanned_sparse, searched_sparse = BUILDER.build_colstore_hybrid(
            sparse_csr.to_csc(), node_rows, node_of, 1, grad, grad, 5
        )
        assert scanned_sparse > 0  # short columns -> linear scan


class TestColumnwiseIndexKernel:
    def test_matches_brute_force_after_splits(self, rng):
        csr, dense = make_binned(rng, num_rows=50)
        csc = csr.to_csc()
        index = ColumnwiseIndex(csc)
        grad = rng.standard_normal((50, 1))
        hess = rng.random((50, 1))
        # initial: everything on node 0
        hist, _ = BUILDER.build_colstore_columnwise(index, 0, grad, hess, 5)
        ref = brute_force_histogram(dense, np.arange(50), grad, hess, 5)
        assert hist.allclose(ref, rtol=1e-12)
        # split node 0 -> nodes 1, 2 and regroup
        node_of = np.where(rng.random(50) < 0.4, 1, 2)
        moved = index.update_after_split(node_of, [1, 2])
        assert moved == csc.nnz
        for node in (1, 2):
            hist, _ = BUILDER.build_colstore_columnwise(index, node, grad,
                                                        hess, 5)
            ref = brute_force_histogram(
                dense, np.flatnonzero(node_of == node), grad, hess, 5
            )
            assert hist.allclose(ref, rtol=1e-12)

    def test_node_entries_empty_for_unknown_node(self, rng):
        csr, _ = make_binned(rng)
        index = ColumnwiseIndex(csr.to_csc())
        rows, bins = index.node_entries(0, 99)
        assert rows.size == 0 and bins.size == 0


class TestSubtractionSchedule:
    """The one smaller-sibling rule the oracle and every plan follow."""

    def test_builds_the_smaller_child_and_subtracts_the_larger(self):
        assert subtraction_schedule([1, 2], {1: 7, 2: 3}, {0}) == [
            ("build", 2, -1), ("subtract", 1, 2)]
        assert subtraction_schedule([1, 2], {1: 3, 2: 7}, {0}) == [
            ("build", 1, -1), ("subtract", 2, 1)]

    @pytest.mark.parametrize("nodes", [[3, 4], [4, 3]])
    def test_a_tie_builds_the_left_child(self, nodes):
        assert subtraction_schedule(nodes, {3: 5, 4: 5}, {1}) == [
            ("build", 3, -1), ("subtract", 4, 3)]

    def test_the_root_is_built_directly(self):
        assert subtraction_schedule([0], {0: 10}, {0}) == [("build", 0, -1)]

    def test_a_node_without_its_parent_histogram_is_built_directly(self):
        counts = {3: 2, 4: 8, 5: 1, 6: 9}
        # node 2's histogram is gone; node 1's is retained
        assert subtraction_schedule([3, 4, 5, 6], counts, {1}) == [
            ("build", 3, -1), ("subtract", 4, 3),
            ("build", 5, -1), ("build", 6, -1)]
        # nothing retained (subtraction off): every node is built
        assert subtraction_schedule([3, 4], counts, ()) == [
            ("build", 3, -1), ("build", 4, -1)]

    def test_a_node_whose_sibling_left_the_layer_is_built_directly(self):
        # node 4 became a leaf, so node 3 has no sibling to pair with
        assert subtraction_schedule([3, 5, 6], {3: 4, 5: 6, 6: 2},
                                    {1, 2}) == [
            ("build", 3, -1), ("build", 6, -1), ("subtract", 5, 6)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_subtraction_identity(seed):
    """parent histogram == left + right for any disjoint split."""
    rng = np.random.default_rng(seed)
    csr, _ = make_binned(rng, num_rows=30, num_features=5, num_bins=4)
    grad = rng.standard_normal((30, 2))
    hess = rng.random((30, 2))
    rows = np.arange(30)
    go_left = rng.random(30) < rng.random()
    parent, _ = BUILDER.build_rowstore(csr, rows, grad, hess, 4)
    left, _ = BUILDER.build_rowstore(csr, rows[go_left], grad, hess, 4)
    right, _ = BUILDER.build_rowstore(csr, rows[~go_left], grad, hess, 4)
    derived = parent.subtract(left)
    assert derived.allclose(right, rtol=1e-9, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_kernels_agree(seed):
    """Row-store, hybrid column and columnwise kernels give one answer."""
    rng = np.random.default_rng(seed)
    csr, _ = make_binned(rng, num_rows=25, num_features=4, num_bins=4)
    csc = csr.to_csc()
    grad = rng.standard_normal((25, 1))
    hess = rng.random((25, 1))
    node_of = rng.integers(0, 2, size=25)
    rows = np.flatnonzero(node_of == 1)
    row_hist, _ = BUILDER.build_rowstore(csr, rows, grad, hess, 4)
    hyb_hist, _, _ = BUILDER.build_colstore_hybrid(csc, rows, node_of, 1,
                                                   grad, hess, 4)
    index = ColumnwiseIndex(csc)
    index.update_after_split(node_of, [0, 1])
    col_hist, _ = BUILDER.build_colstore_columnwise(index, 1, grad, hess, 4)
    assert row_hist.allclose(hyb_hist, rtol=1e-12)
    assert row_hist.allclose(col_hist, rtol=1e-12)
