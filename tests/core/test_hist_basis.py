"""Row-store histograms in a sparse shard's occupied-slot basis.

A binned CSR shard whose occupied ``(feature, bin)`` slots cover at most
half of ``D·q`` carries a basis (:meth:`CSRMatrix.hist_basis`), and
:meth:`HistogramBuilder.build_rowstore` builds into it.  Every test here
holds the basis path to the dense build it replaces, bit for bit:
:func:`dense_build` is that build (the shard's dense ``hist_keys`` over
all ``D·q`` slots, through the same backend scatter).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.codecs import CODEC_STACKS
from repro.core.histogram import Histogram, HistogramBuilder
from repro.core.kernels import available_backends
from repro.data.matrix import CSRMatrix

#: the lossless and lossy histogram codecs of the registered stacks
CODECS = {name: CODEC_STACKS[name].histogram
          for name in ("none", "sparse", "f32", "f16")}


def dense_build(builder: HistogramBuilder, shard: CSRMatrix,
                rows: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                num_bins: int) -> Histogram:
    """The dense row-store build: gather the rows' entries, scatter them
    at ``feature * num_bins + bin`` into all ``D·q`` slots."""
    rows = np.asarray(rows, dtype=np.int64)
    lengths = shard.row_lengths()[rows]
    total = int(lengths.sum())
    hist = Histogram(shard.num_cols, num_bins, grad.shape[1])
    if total:
        entry_pos = np.repeat(
            shard.indptr[rows] - np.cumsum(lengths) + lengths, lengths)
        entry_pos += np.arange(total)
        builder._scatter(hist, shard.hist_keys(num_bins).take(entry_pos),
                         np.repeat(rows, lengths), grad, hess)
    return hist


def assert_bits_equal(got: Histogram, want: Histogram) -> None:
    """``got`` densified equals the dense ``want`` bit for bit."""
    assert got.nbytes == want.nbytes
    dense = got.to_dense()
    assert dense.slots is None
    for mine, theirs in ((dense.grad, want.grad), (dense.hess, want.hess)):
        assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def payload_arrays(payload) -> list:
    """An encoded payload's parts, histograms opened into their arrays."""
    parts = []
    for part in payload:
        if isinstance(part, Histogram):
            parts += [part.grad, part.hess]
        else:
            parts.append(part)
    return parts


def assert_same_encoding(got: Histogram, want: Histogram) -> None:
    """Every codec encodes the basis histogram to the same tag, bytes and
    payload arrays as the dense one."""
    for codec in CODECS.values():
        mine, theirs = codec.encode(got), codec.encode(want)
        assert (mine.codec, mine.nbytes, mine.raw_nbytes) == \
            (theirs.codec, theirs.nbytes, theirs.raw_nbytes)
        for a, b in zip(payload_arrays(mine.payload),
                        payload_arrays(theirs.payload), strict=True):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b


def random_shard(rng, num_rows: int, num_features: int, num_bins: int,
                 density: float) -> CSRMatrix:
    """Random binned CSR; empty rows occur at any density below 1."""
    mask = rng.random((num_rows, num_features)) < density
    counts = mask.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    _, cols = np.nonzero(mask)
    bins = rng.integers(0, num_bins, size=cols.size)
    return CSRMatrix(indptr, cols.astype(np.int32), bins.astype(np.int32),
                     num_features)


def one_entry_shard(slots, num_features: int, num_bins: int) -> CSRMatrix:
    """One row per slot, holding just that ``(feature, bin)``."""
    slots = np.asarray(slots, dtype=np.int64)
    return CSRMatrix(np.arange(slots.size + 1),
                     (slots // num_bins).astype(np.int32),
                     (slots % num_bins).astype(np.int32), num_features)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       shape=st.tuples(st.integers(1, 30), st.integers(1, 12),
                       st.integers(2, 8)),
       density=st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.7]),
       dim=st.sampled_from([1, 3]),
       backend=st.sampled_from(available_backends()),
       unit_hessian=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_property_basis_build_matches_the_dense_build(
        data, shape, density, dim, backend, unit_hessian, seed):
    """Root, gathered and empty nodes, then a parent -> child -> sibling
    subtraction chain two layers deep, and every codec's encoding."""
    num_rows, num_features, num_bins = shape
    rng = np.random.default_rng(seed)
    shard = random_shard(rng, num_rows, num_features, num_bins, density)
    grad = rng.standard_normal((num_rows, dim))
    builder = HistogramBuilder(backend=backend)
    if unit_hessian:
        hess = np.ones((num_rows, dim))
        builder.constant_hessian = 1.0
    else:
        hess = rng.random((num_rows, dim))
    basis = shard.hist_basis(num_bins)
    if basis is not None:
        assert 2 * basis[0].size <= num_features * num_bins

    def check(rows):
        got, touched = builder.build_rowstore(shard, rows, grad, hess,
                                              num_bins)
        want = dense_build(builder, shard, rows, grad, hess, num_bins)
        assert touched == int(shard.row_lengths()[rows].sum())
        assert got.slots is (None if basis is None else basis[0])
        assert_bits_equal(got, want)
        return got, want

    root = check(np.arange(num_rows))
    check(np.empty(0, dtype=np.int64))
    empty_rows = np.flatnonzero(shard.row_lengths() == 0)
    if empty_rows.size:
        check(empty_rows)
    parent, rows = root, np.arange(num_rows)
    for _ in range(2):
        go_left = np.array(data.draw(st.lists(
            st.booleans(), min_size=rows.size, max_size=rows.size)),
            dtype=bool)
        child = check(rows[go_left])
        sibling = tuple(builder.subtract(p, c)
                        for p, c in zip(parent, child))
        assert sibling[0].slots is parent[0].slots
        assert_bits_equal(*sibling)
        assert_same_encoding(*sibling)
        parent, rows = sibling, rows[~go_left]
    assert_same_encoding(*root)


class TestGate:
    """The basis exists at most half occupied, and not one slot above."""

    def test_exactly_half_occupied_has_a_basis(self, rng):
        shard = one_entry_shard([0, 3, 4, 7, 8, 11, 12, 15, 16, 19], 4, 5)
        slots, positions = shard.hist_basis(5)
        assert 2 * slots.size == 4 * 5
        assert slots.dtype == np.int32 and not slots.flags.writeable
        assert np.array_equal(slots[positions], shard.hist_keys(5))
        self._check_builds(rng, shard, 5, slots)

    def test_one_slot_above_half_is_dense(self, rng):
        shard = one_entry_shard([0, 1, 3, 4, 7, 8, 11, 12, 15, 16, 19],
                                4, 5)
        assert shard.hist_basis(5) is None
        self._check_builds(rng, shard, 5, None)

    def test_no_entries_is_an_empty_basis(self, rng):
        empty = np.empty(0, dtype=np.int32)
        shard = CSRMatrix(np.zeros(4, dtype=np.int64), empty, empty, 3)
        slots, positions = shard.hist_basis(4)
        assert slots.size == positions.size == 0
        self._check_builds(rng, shard, 4, slots)

    @staticmethod
    def _check_builds(rng, shard, num_bins, slots):
        grad = rng.standard_normal((shard.num_rows, 3))
        hess = rng.random((shard.num_rows, 3))
        builder = HistogramBuilder()
        for rows in (np.arange(shard.num_rows), np.arange(0, 7, 2)):
            rows = rows[rows < shard.num_rows]
            got, _ = builder.build_rowstore(shard, rows, grad, hess,
                                            num_bins)
            assert got.slots is slots
            assert_bits_equal(got, dense_build(builder, shard, rows, grad,
                                               hess, num_bins))


class TestBasisHistogram:
    def test_nbytes_is_the_logical_dense_size(self):
        slots = np.array([1, 5], dtype=np.int32)
        hist = Histogram(4, 5, 3, slots=slots)
        assert hist.grad.shape == (2, 3)
        assert hist.nbytes == Histogram(4, 5, 3).nbytes

    def test_to_dense_places_rows_at_their_slots(self):
        hist = Histogram(2, 3, 1, slots=np.array([1, 4], dtype=np.int32))
        hist.grad[:, 0] = [2.0, -1.0]
        hist.hess[:, 0] = [3.0, 5.0]
        dense = hist.to_dense()
        assert dense.grad[:, 0].tolist() == [0, 2, 0, 0, -1, 0]
        assert dense.hess[:, 0].tolist() == [0, 3, 0, 0, 5, 0]
        assert dense.to_dense() is dense

    def test_copy_keeps_the_basis(self):
        slots = np.array([0, 2], dtype=np.int32)
        hist = Histogram(1, 4, 1, slots=slots)
        assert hist.copy().slots is slots

    def test_mismatched_bases_do_not_combine(self):
        builder = HistogramBuilder()
        basis = Histogram(2, 3, 1, slots=np.array([1, 4], dtype=np.int32))
        for other in (Histogram(2, 3, 1),
                      Histogram(2, 3, 1,
                                slots=np.array([1, 5], dtype=np.int32))):
            with pytest.raises(ValueError, match="bases do not match"):
                builder.subtract(basis, other)
            with pytest.raises(ValueError, match="bases do not match"):
                other.add_inplace(basis)
