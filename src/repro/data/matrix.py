"""Sparse matrix substrate: CSR (row-store) and CSC (column-store).

The paper's storage-pattern axis (Section 2.2.2) is exactly the choice
between these two layouts.  We implement both from scratch on top of numpy
arrays so the quadrant implementations can share one code base:

* :class:`CSRMatrix` — each row is a run of ``(col_index, value)`` pairs;
  this is the row-store used by QD2 and QD4 (Vero).
* :class:`CSCMatrix` — each column is a run of ``(row_index, value)`` pairs;
  this is the column-store used by QD1 (XGBoost) and QD3 (Yggdrasil).

Values are stored as ``float64`` when holding raw feature values and as
integer bin indexes after the quantization step of Section 4.2.1; both
classes are dtype-agnostic.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np


class CSRMatrix:
    """Compressed Sparse Row matrix.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_rows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        column index of each stored value, non-decreasing within a row.
    values:
        stored values, aligned with ``indices``.
    num_cols:
        logical width of the matrix (columns may be entirely empty).
    """

    __slots__ = ("indptr", "indices", "values", "num_cols",
                 "_row_lengths", "_row_of", "_hist_keys", "_hist_basis")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        num_cols: int,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        values = np.asarray(values)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                "indptr must start at 0 and end at len(indices); got "
                f"[{indptr[0]}, {indptr[-1]}] for {indices.size} entries"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size != values.size:
            raise ValueError("indices and values must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= num_cols):
            raise ValueError(
                f"column indices out of range [0, {num_cols})"
            )
        self.indptr = indptr
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.values = np.ascontiguousarray(values)
        self.num_cols = int(num_cols)
        # lazily-built invariants used by the histogram hot path; the
        # backing arrays are treated as immutable after construction
        self._row_lengths: "np.ndarray | None" = None
        self._row_of: "np.ndarray | None" = None
        self._hist_keys: dict = {}
        self._hist_basis: dict = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a 2-D dense array, treating exact zeros as missing."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        mask = dense != 0
        counts = mask.sum(axis=1)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        rows, cols = np.nonzero(mask)
        return cls(indptr, cols.astype(np.int32), dense[rows, cols],
                   dense.shape[1])

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Tuple[int, float]]],
        num_cols: int,
        dtype=np.float64,
    ) -> "CSRMatrix":
        """Build from a list of rows, each a list of ``(col, value)``."""
        counts = [len(r) for r in rows]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int32)
        values = np.empty(nnz, dtype=dtype)
        pos = 0
        for row in rows:
            for col, val in sorted(row):
                indices[pos] = col
                values[pos] = val
                pos += 1
        return cls(indptr, indices, values, num_cols)

    # -- basic properties --------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.values.size

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nbytes(self) -> int:
        """Bytes held by the three backing arrays (memory accounting)."""
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def row_lengths(self) -> np.ndarray:
        """Number of stored values in each row (cached)."""
        if self._row_lengths is None:
            self._row_lengths = np.diff(self.indptr)
        return self._row_lengths

    def row_of_entries(self) -> np.ndarray:
        """Row id of every stored entry, in storage order (cached).

        This is the expansion ``repeat(arange(num_rows), row_lengths)``
        that the histogram kernels would otherwise rebuild per call.
        """
        if self._row_of is None:
            self._row_of = np.repeat(
                np.arange(self.num_rows, dtype=np.int32),
                self.row_lengths(),
            )
        return self._row_of

    def hist_keys(self, num_bins: int) -> np.ndarray:
        """``feature * num_bins + bin`` per entry, for binned matrices.

        Cached per ``num_bins``: these composite scatter keys are invariant
        for the life of a binned shard, so the root-node histogram build can
        skip the whole gather+key computation (the values *are* the bins).
        """
        keys = self._hist_keys.get(num_bins)
        if keys is None:
            keys = self.indices.astype(np.int64) * num_bins
            keys += self.values
            self._hist_keys[num_bins] = keys
        return keys

    def hist_basis(self, num_bins: int
                   ) -> "Tuple[np.ndarray, np.ndarray] | None":
        """The shard's occupied ``(feature, bin)`` slots, for binned
        matrices: ``(slots, positions)``.

        ``slots`` is the sorted ``int32`` list of the
        :meth:`hist_keys` that occur in the shard and ``positions`` each
        entry's index into it — its scatter key in that basis.  Every
        node histogram of the shard is zero outside ``slots``.  ``None``
        when ``slots`` covers more than half of ``num_cols * num_bins``
        (the finder's "at most half occupied" rule): the dense layout is
        then used.  Cached per ``num_bins``; decided with one
        ``bincount`` over the keys, O(nnz + D·q).
        """
        if num_bins not in self._hist_basis:
            keys = self.hist_keys(num_bins)
            occupied = np.bincount(
                keys, minlength=self.num_cols * num_bins).astype(bool)
            slots = np.flatnonzero(occupied)
            basis = None
            if 2 * slots.size <= occupied.size:
                rank = np.cumsum(occupied) - 1
                slots = slots.astype(np.int32)
                slots.flags.writeable = False
                basis = (slots, rank.take(keys))
            self._hist_basis[num_bins] = basis
        return self._hist_basis[num_bins]

    # -- access -------------------------------------------------------------

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(column_indices, values)`` of row ``i`` (views, no copy)."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range [0, {self.num_rows})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row_id, column_indices, values)`` for each row."""
        for i in range(self.num_rows):
            cols, vals = self.row(i)
            yield i, cols, vals

    def select_rows(self, row_ids: np.ndarray) -> "CSRMatrix":
        """New CSR containing only ``row_ids``, in the given order."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size and (row_ids.min() < 0
                             or row_ids.max() >= self.num_rows):
            raise IndexError("row id out of range")
        lengths = self.row_lengths()[row_ids]
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int32)
        values = np.empty(nnz, dtype=self.values.dtype)
        # Gather positions of all selected entries in one vectorized pass.
        starts = self.indptr[row_ids]
        if nnz:
            offsets = np.arange(nnz) - np.repeat(indptr[:-1], lengths)
            src = np.repeat(starts, lengths) + offsets
            indices[:] = self.indices[src]
            values[:] = self.values[src]
        return CSRMatrix(indptr, indices, values, self.num_cols)

    def select_cols(self, col_ids: np.ndarray,
                    renumber: bool = True) -> "CSRMatrix":
        """New CSR keeping only columns in ``col_ids``.

        With ``renumber=True`` (the default) the kept columns are renamed
        ``0..len(col_ids)-1`` in the order given — this is the column
        grouping step of the horizontal-to-vertical transformation.
        """
        col_ids = np.asarray(col_ids, dtype=np.int64)
        remap = np.full(self.num_cols, -1, dtype=np.int64)
        remap[col_ids] = np.arange(col_ids.size) if renumber else col_ids
        keep = remap[self.indices] >= 0
        new_indices = remap[self.indices[keep]].astype(np.int32)
        new_values = self.values[keep]
        row_of = self.row_of_entries()
        counts = np.bincount(row_of[keep], minlength=self.num_rows)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        width = col_ids.size if renumber else self.num_cols
        return CSRMatrix(indptr, new_indices, new_values, width)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        row_of = self.row_of_entries()
        dense[row_of, self.indices] = self.values
        return dense

    def to_csc(self) -> "CSCMatrix":
        """Convert to column-store (stable within each column)."""
        row_of = np.repeat(
            np.arange(self.num_rows, dtype=np.int32), np.diff(self.indptr)
        )
        order = np.argsort(self.indices, kind="stable")
        col_counts = np.bincount(self.indices, minlength=self.num_cols)
        indptr = np.concatenate(([0], np.cumsum(col_counts))).astype(np.int64)
        return CSCMatrix(
            indptr, row_of[order], self.values[order], self.num_rows
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.values.dtype})"
        )


class CSCMatrix:
    """Compressed Sparse Column matrix (see :class:`CSRMatrix`)."""

    __slots__ = ("indptr", "indices", "values", "num_rows",
                 "_col_lengths", "_col_of", "_hist_keys")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        num_rows: int,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        values = np.asarray(values)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size != values.size:
            raise ValueError("indices and values must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
            raise ValueError(f"row indices out of range [0, {num_rows})")
        self.indptr = indptr
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.values = np.ascontiguousarray(values)
        self.num_rows = int(num_rows)
        self._col_lengths: "np.ndarray | None" = None
        self._col_of: "np.ndarray | None" = None
        self._hist_keys: dict = {}

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        return CSRMatrix.from_dense(np.asarray(dense)).to_csc()

    @property
    def num_cols(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.values.size

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of column ``j`` (views, no copy)."""
        if not 0 <= j < self.num_cols:
            raise IndexError(f"column {j} out of range [0, {self.num_cols})")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def col_lengths(self) -> np.ndarray:
        """Number of stored values in each column (cached)."""
        if self._col_lengths is None:
            self._col_lengths = np.diff(self.indptr)
        return self._col_lengths

    def col_of_entries(self) -> np.ndarray:
        """Column id of every stored entry, in storage order (cached)."""
        if self._col_of is None:
            self._col_of = np.repeat(
                np.arange(self.num_cols, dtype=np.int32),
                self.col_lengths(),
            )
        return self._col_of

    def hist_keys(self, num_bins: int) -> np.ndarray:
        """``column * num_bins + bin`` per entry, for binned matrices
        (cached per ``num_bins``; see :meth:`CSRMatrix.hist_keys`)."""
        keys = self._hist_keys.get(num_bins)
        if keys is None:
            keys = self.col_of_entries().astype(np.int64) * num_bins
            keys += self.values
            self._hist_keys[num_bins] = keys
        return keys

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        col_of = np.repeat(np.arange(self.num_cols), np.diff(self.indptr))
        dense[self.indices, col_of] = self.values
        return dense

    def to_csr(self) -> CSRMatrix:
        col_of = np.repeat(
            np.arange(self.num_cols, dtype=np.int32), np.diff(self.indptr)
        )
        order = np.argsort(self.indices, kind="stable")
        row_counts = np.bincount(self.indices, minlength=self.num_rows)
        indptr = np.concatenate(([0], np.cumsum(row_counts))).astype(np.int64)
        return CSRMatrix(
            indptr, col_of[order], self.values[order], self.num_cols
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSCMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.values.dtype})"
        )
