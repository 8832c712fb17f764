"""Dataset and binning tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import dataset as dataset_module
from repro.data.dataset import BinnedDataset, Dataset, apply_cuts, \
    bin_dataset
from repro.data.matrix import CSRMatrix
from repro.data.synthetic import make_classification
from repro.sketch.proposer import propose_candidates_exact


class TestDatasetValidation:
    def test_label_length_checked(self):
        features = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="labels"):
            Dataset(features, np.array([0, 1]))

    def test_binary_labels_checked(self):
        features = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match=r"\{0, 1\}"):
            Dataset(features, np.array([0, 1, 2]))

    def test_multiclass_range_checked(self):
        features = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="lie in"):
            Dataset(features, np.array([0, 1, 5]), task="multiclass",
                    num_classes=3)

    def test_unknown_task(self):
        features = CSRMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="task"):
            Dataset(features, np.array([0, 1]), task="ranking")

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 2, 4], [0, 0, 0, 1]),       # a repeated id in a full row
        ([0, 0, 2, 2], [1, 0]),          # an unsorted row
        ([0, 0, 2, 4], [0, 1, 1, 1]),    # a repeat in the last row
    ])
    def test_row_feature_ids_must_ascend(self, indptr, indices):
        """The row-store kernels address feature f of a full row at
        entry f, so every row must hold each feature at most once, in
        order."""
        features = CSRMatrix(indptr, indices, np.ones(len(indices)), 2)
        with pytest.raises(ValueError, match="ascend strictly"):
            Dataset(features, np.zeros(len(indptr) - 1, dtype=np.int64))

    def test_ids_restart_at_each_row(self):
        features = CSRMatrix([0, 0, 2, 3, 4, 4], [0, 1, 0, 1],
                             np.ones(4), 2)
        dataset = Dataset(features, np.zeros(5, dtype=np.int64))
        assert dataset.num_instances == 5

    def test_properties(self, small_binary):
        assert small_binary.num_instances == 1200
        assert small_binary.num_features == 25
        assert 0.3 < small_binary.density <= 0.5


class TestSplit:
    def test_partition_is_exact(self, small_binary):
        train, valid = small_binary.split(0.8, seed=1)
        assert train.num_instances + valid.num_instances == \
            small_binary.num_instances
        assert train.num_features == small_binary.num_features

    def test_rejects_bad_fraction(self, small_binary):
        with pytest.raises(ValueError):
            small_binary.split(1.0)

    def test_seed_controls_split(self, small_binary):
        a1, _ = small_binary.split(0.8, seed=1)
        a2, _ = small_binary.split(0.8, seed=1)
        b, _ = small_binary.split(0.8, seed=2)
        np.testing.assert_array_equal(a1.labels, a2.labels)
        assert not np.array_equal(a1.labels, b.labels)


class TestApplyCuts:
    def test_matches_searchsorted(self, rng):
        dense = rng.standard_normal((50, 4))
        csr = CSRMatrix.from_dense(dense)
        cuts = [np.sort(rng.standard_normal(3)) for _ in range(4)]
        binned = apply_cuts(csr, cuts)
        for i, cols, vals in csr.iter_rows():
            bcols, bvals = binned.row(i)
            np.testing.assert_array_equal(cols, bcols)
            for c, v, b in zip(cols, vals, bvals):
                assert b == np.searchsorted(cuts[c], v, side="left")

    def test_no_cuts_gives_zero_bins(self, rng):
        csr = CSRMatrix.from_dense(rng.standard_normal((5, 2)))
        binned = apply_cuts(csr, [np.empty(0), np.empty(0)])
        assert np.all(binned.values == 0)

    def test_wrong_cut_count(self, rng):
        csr = CSRMatrix.from_dense(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            apply_cuts(csr, [np.empty(0)])


class TestBinDataset:
    def test_bins_in_range(self, small_binary):
        binned = bin_dataset(small_binary, 16)
        assert binned.binned.values.max() < 16
        assert binned.binned.values.min() >= 0
        assert binned.bins_per_feature.max() <= 16

    def test_preserves_sparsity_pattern(self, small_sparse):
        binned = bin_dataset(small_sparse, 8)
        np.testing.assert_array_equal(binned.binned.indptr,
                                      small_sparse.features.indptr)
        np.testing.assert_array_equal(binned.binned.indices,
                                      small_sparse.features.indices)

    def test_threshold_of_round_trip(self, small_binary):
        """Splitting binned data at bin b == thresholding raw at cut b."""
        binned = bin_dataset(small_binary, 8)
        csc_raw = small_binary.csc()
        csc_bin = binned.csc()
        for f in (0, 7, 19):
            cuts = binned.cuts[f]
            for b in range(cuts.size):
                threshold = binned.threshold_of(f, b)
                rows_r, vals_r = csc_raw.col(f)
                rows_b, vals_b = csc_bin.col(f)
                np.testing.assert_array_equal(rows_r, rows_b)
                np.testing.assert_array_equal(
                    vals_r <= threshold, vals_b <= b
                )

    def test_threshold_of_invalid_bin(self, binned_binary):
        with pytest.raises(ValueError):
            binned_binary.threshold_of(0, 99)


def assert_cuts_equal_the_per_feature_loop(dataset, q):
    """Exact binning groups columns by stored-value count; the oracle
    proposes one column at a time."""
    csc = dataset.csc()
    expected = [propose_candidates_exact(csc.col(j)[1], q)
                for j in range(csc.num_cols)]
    cuts = bin_dataset(dataset, q).cuts
    assert len(cuts) == len(expected)
    for got, want in zip(cuts, expected):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    return cuts


def dataset_of(dense):
    dense = np.asarray(dense, dtype=np.float64)
    return Dataset(CSRMatrix.from_dense(dense),
                   np.arange(dense.shape[0]) % 2)


class TestGroupedExactCuts:
    def test_degenerate_columns(self):
        rows = 12
        ramp = np.arange(1.0, rows + 1)
        dense = np.column_stack([
            np.zeros(rows),                          # empty
            np.full(rows, 2.5),                      # constant
            np.repeat([1.0, 2.0, 3.0], 4),           # duplicated
            -ramp,                                   # negative
            np.where(ramp == 5, 7.0, 0.0),           # a single value
            np.where(ramp > 9, -1.0, 0.0),           # one distinct, thrice
            ramp * 0.1,                              # same length as others
            ramp[::-1] ** 2,                         # ... tied on length
        ])
        for q in (1, 2, 3, 4, 8, 20):
            cuts = assert_cuts_equal_the_per_feature_loop(
                dataset_of(dense), q)
            assert cuts[0].size == cuts[1].size == cuts[4].size == 0

    def test_interpolation_is_lower(self):
        # (n - 1) * p is fractional at every p: "linear" would
        # interpolate between stored values, "lower" returns one of them
        dense = np.column_stack([[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
                                 [3.0, 5.0, 9.0, 17.0, 33.0, 65.0]])
        cuts = assert_cuts_equal_the_per_feature_loop(dataset_of(dense), 4)
        assert set(cuts[0]) <= set(dense[:, 0])

    @pytest.mark.parametrize("bound", (1, 12, 64, 1 << 16))
    def test_blocks_straddling_the_entry_bound(self, bound, monkeypatch):
        monkeypatch.setattr(dataset_module, "EXACT_BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(bound)
        # eleven columns of 5 stored values, four of 9, three of 1
        dense = np.zeros((9, 18))
        for j, n in enumerate([5] * 11 + [9] * 4 + [1] * 3):
            dense[rng.choice(9, n, replace=False), j] = \
                rng.standard_normal(n).round(1) + 0.05
        assert_cuts_equal_the_per_feature_loop(dataset_of(dense), 5)

    @pytest.mark.parametrize("density", (1.0, 0.01))
    def test_dense_and_one_percent_dense_matrices(self, density):
        dataset = make_classification(800, 60, density=density, seed=21)
        cuts = assert_cuts_equal_the_per_feature_loop(dataset, 20)
        assert any(c.size for c in cuts)

    def test_rejects_bad_q(self, small_binary):
        with pytest.raises(ValueError, match="num_candidates"):
            bin_dataset(small_binary, 0)


class TestBinnedSelection:
    def test_select_features_renumbers(self, binned_binary):
        group = np.array([3, 11, 17])
        shard = binned_binary.select_features(group)
        assert shard.num_features == 3
        dense_full = binned_binary.binned.to_dense()
        # compare nonzero patterns column by column
        dense_shard = shard.binned.to_dense()
        for local, fid in enumerate(group):
            np.testing.assert_array_equal(dense_shard[:, local],
                                          dense_full[:, fid])
        assert shard.bins_per_feature.tolist() == [
            int(binned_binary.bins_per_feature[f]) for f in group
        ]

    def test_select_instances(self, binned_binary):
        rows = np.arange(100, 200)
        shard = binned_binary.select_instances(rows)
        assert shard.num_instances == 100
        np.testing.assert_array_equal(shard.labels,
                                      binned_binary.labels[rows])

    def test_constructor_validates_cuts(self, binned_binary):
        with pytest.raises(ValueError, match="per feature"):
            BinnedDataset(binned_binary.binned, binned_binary.cuts[:-1],
                          binned_binary.labels, binned_binary.num_bins,
                          "binary", 2)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.integers(2, 24))
def test_property_binning_respects_quantiles(seed, q):
    """Each bin of a dense feature holds roughly N/q values."""
    ds = make_classification(500, 3, density=1.0, seed=seed)
    binned = bin_dataset(ds, q)
    for f in range(3):
        vals = binned.csc().col(f)[1]
        counts = np.bincount(vals, minlength=q)
        used = counts[counts > 0]
        # quantile binning: no bin is more than ~3x the ideal share
        assert used.max() <= max(3 * 500 / q, 8)
