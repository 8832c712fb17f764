"""LibSVM I/O tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.io import read_libsvm, write_libsvm
from repro.data.synthetic import make_classification, make_regression


class TestRoundTrip:
    def test_binary(self, tmp_path, small_binary):
        path = tmp_path / "data.libsvm"
        write_libsvm(small_binary, path)
        back = read_libsvm(path, num_features=small_binary.num_features)
        assert back.features == small_binary.features
        np.testing.assert_array_equal(back.labels, small_binary.labels)

    def test_multiclass(self, tmp_path):
        ds = make_classification(50, 8, num_classes=3, seed=1)
        path = tmp_path / "mc.libsvm"
        write_libsvm(ds, path)
        back = read_libsvm(path, num_features=8, task="multiclass",
                           num_classes=3)
        assert back.features == ds.features
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_regression_precision(self, tmp_path):
        ds = make_regression(30, 5, seed=2)
        path = tmp_path / "reg.libsvm"
        write_libsvm(ds, path)
        back = read_libsvm(path, num_features=5, task="regression")
        np.testing.assert_allclose(back.labels, ds.labels, rtol=1e-15)
        np.testing.assert_allclose(back.features.values,
                                   ds.features.values, rtol=1e-15)


class TestReader:
    def test_parses_fixture(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text(
            "# a comment\n"
            "1 1:0.5 3:2.0\n"
            "0 2:-1.5\n"
            "\n"
            "1\n"
        )
        ds = read_libsvm(path)
        assert ds.num_instances == 3
        assert ds.num_features == 3
        cols, vals = ds.features.row(0)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_allclose(vals, [0.5, 2.0])
        assert ds.features.row(2)[0].size == 0

    def test_unsorted_pairs_are_sorted(self, tmp_path):
        path = tmp_path / "u.libsvm"
        path.write_text("0 3:3.0 1:1.0\n1 2:2.0\n")
        ds = read_libsvm(path)
        cols, vals = ds.features.row(0)
        np.testing.assert_array_equal(cols, [0, 2])

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("spam 1:1.0\n")
        with pytest.raises(ValueError, match="bad label"):
            read_libsvm(path)

    def test_bad_pair(self, tmp_path):
        path = tmp_path / "bad2.libsvm"
        path.write_text("1 1:one\n")
        with pytest.raises(ValueError, match="bad pair"):
            read_libsvm(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad3.libsvm"
        path.write_text("1 0:1.0\n")
        with pytest.raises(ValueError, match=">= 1"):
            read_libsvm(path)

    def test_repeated_index_rejected(self, tmp_path):
        path = tmp_path / "repeat.libsvm"
        path.write_text("1 1:0.5 1:0.7\n0 1:0.3 2:0.9\n")
        with pytest.raises(ValueError, match="ascend strictly"):
            read_libsvm(path)

    def test_num_features_too_small(self, tmp_path):
        path = tmp_path / "wide.libsvm"
        path.write_text("1 5:1.0\n0 1:1.0\n")
        with pytest.raises(ValueError, match="smaller"):
            read_libsvm(path, num_features=3)

    def test_num_features_widens(self, tmp_path):
        path = tmp_path / "w.libsvm"
        path.write_text("1 1:1.0\n0 1:0.5\n")
        ds = read_libsvm(path, num_features=10)
        assert ds.num_features == 10
