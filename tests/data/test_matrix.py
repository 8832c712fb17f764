"""CSR/CSC sparse matrix tests: construction, validation, conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.matrix import CSCMatrix, CSRMatrix


def csr_of(csc: CSCMatrix) -> CSRMatrix:
    """``csc``'s matrix row-major: a CSC's arrays read as a CSR hold the
    transpose, and the transpose's column store is the matrix's rows."""
    flipped = CSRMatrix(csc.indptr, csc.indices, csc.values,
                        csc.num_rows).to_csc()
    return CSRMatrix(flipped.indptr, flipped.indices, flipped.values,
                     csc.num_cols)


def random_dense(rng, rows, cols, density=0.4):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense


class TestCSRConstruction:
    def test_from_dense_round_trip(self, rng):
        dense = random_dense(rng, 13, 7)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr.to_dense(), dense)

    def test_from_rows(self):
        rows = [[(0, 1.0), (3, 2.0)], [], [(1, -1.0)]]
        csr = CSRMatrix.from_rows(rows, num_cols=4)
        assert csr.shape == (3, 4)
        assert csr.nnz == 3
        cols, vals = csr.row(0)
        np.testing.assert_array_equal(cols, [0, 3])
        np.testing.assert_array_equal(vals, [1.0, 2.0])
        cols, vals = csr.row(1)
        assert cols.size == 0

    def test_from_rows_sorts_pairs(self):
        csr = CSRMatrix.from_rows([[(3, 30.0), (1, 10.0)]], num_cols=4)
        cols, vals = csr.row(0)
        np.testing.assert_array_equal(cols, [1, 3])
        np.testing.assert_array_equal(vals, [10.0, 30.0])

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(np.array([1, 2]), np.array([0, 0]),
                      np.array([1.0, 1.0]), 2)

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(np.array([0, 2, 1, 3]), np.array([0, 1, 0]),
                      np.array([1.0, 1.0, 1.0]), 2)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), 2)

    def test_rejects_misaligned_values(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRMatrix(np.array([0, 2]), np.array([0, 1]),
                      np.array([1.0]), 2)


class TestCSRAccess:
    def test_row_out_of_range(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng, 3, 3))
        with pytest.raises(IndexError):
            csr.row(3)
        with pytest.raises(IndexError):
            csr.row(-1)

    def test_iter_rows_covers_all(self, rng):
        dense = random_dense(rng, 9, 5)
        csr = CSRMatrix.from_dense(dense)
        seen = np.zeros_like(dense)
        for i, cols, vals in csr.iter_rows():
            seen[i, cols] = vals
        np.testing.assert_array_equal(seen, dense)

    def test_row_lengths(self, rng):
        dense = random_dense(rng, 6, 4)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(
            csr.row_lengths(), (dense != 0).sum(axis=1)
        )

    def test_nbytes_positive(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng, 4, 4))
        assert csr.nbytes > 0


class TestCSRSelection:
    def test_select_rows(self, rng):
        dense = random_dense(rng, 10, 6)
        csr = CSRMatrix.from_dense(dense)
        picked = csr.select_rows(np.array([7, 2, 2, 0]))
        np.testing.assert_array_equal(
            picked.to_dense(), dense[[7, 2, 2, 0]]
        )

    def test_select_rows_empty(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng, 5, 3))
        picked = csr.select_rows(np.array([], dtype=np.int64))
        assert picked.shape == (0, 3)

    def test_select_rows_out_of_range(self, rng):
        csr = CSRMatrix.from_dense(random_dense(rng, 5, 3))
        with pytest.raises(IndexError):
            csr.select_rows(np.array([5]))

    def test_select_cols_renumber(self, rng):
        dense = random_dense(rng, 8, 6)
        csr = CSRMatrix.from_dense(dense)
        picked = csr.select_cols(np.array([4, 1]))
        np.testing.assert_array_equal(
            picked.to_dense(), dense[:, [4, 1]]
        )

    def test_select_cols_keep_ids(self, rng):
        dense = random_dense(rng, 8, 6)
        csr = CSRMatrix.from_dense(dense)
        picked = csr.select_cols(np.array([0, 5]), renumber=False)
        expected = np.zeros_like(dense)
        expected[:, [0, 5]] = dense[:, [0, 5]]
        assert picked.num_cols == 6
        np.testing.assert_array_equal(picked.to_dense(), expected)


class TestConversions:
    def test_csr_csc_round_trip(self, rng):
        dense = random_dense(rng, 12, 9)
        csr = CSRMatrix.from_dense(dense)
        assert csr_of(csr.to_csc()) == csr

    def test_csc_matches_dense(self, rng):
        dense = random_dense(rng, 12, 9)
        csc = CSCMatrix.from_dense(dense)
        np.testing.assert_array_equal(csc.to_dense(), dense)

    def test_csc_col_access(self, rng):
        dense = random_dense(rng, 10, 5)
        csc = CSCMatrix.from_dense(dense)
        for j in range(5):
            rows, vals = csc.col(j)
            expected = np.flatnonzero(dense[:, j])
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_array_equal(vals, dense[expected, j])

    def test_csc_rows_sorted_within_column(self, rng):
        csc = CSCMatrix.from_dense(random_dense(rng, 30, 4))
        for j in range(4):
            rows, _ = csc.col(j)
            assert np.all(np.diff(rows) > 0)

    def test_csc_col_out_of_range(self, rng):
        csc = CSCMatrix.from_dense(random_dense(rng, 3, 3))
        with pytest.raises(IndexError):
            csc.col(3)

    def test_empty_matrix(self):
        csr = CSRMatrix(np.zeros(1, dtype=np.int64),
                        np.empty(0, dtype=np.int32),
                        np.empty(0), 4)
        assert csr.shape == (0, 4)
        assert csr.to_csc().shape == (0, 4)


@settings(max_examples=30, deadline=None)
@given(
    dense=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 10)),
        elements=st.floats(-10, 10, allow_nan=False).map(
            lambda x: 0.0 if abs(x) < 2 else x
        ),
    )
)
def test_property_round_trips(dense):
    """CSR<->dense and CSR<->CSC round trips on arbitrary matrices."""
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_array_equal(csr.to_dense(), dense)
    csc = csr.to_csc()
    np.testing.assert_array_equal(csc.to_dense(), dense)
    assert csr_of(csc) == csr


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_property_select_rows_matches_dense(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    dense = random_dense(rng, 15, 6)
    ids = data.draw(
        st.lists(st.integers(0, 14), min_size=0, max_size=20)
    )
    csr = CSRMatrix.from_dense(dense)
    picked = csr.select_rows(np.array(ids, dtype=np.int64))
    np.testing.assert_array_equal(picked.to_dense(),
                                  dense[np.array(ids, dtype=int)])
