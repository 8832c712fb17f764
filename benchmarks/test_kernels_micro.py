"""Micro-benchmarks of the four histogram construction kernels.

These use pytest-benchmark's real measurement machinery (multiple rounds)
on a fixed workload, giving the per-kernel throughput numbers behind the
Section 3.2 storage-pattern analysis: the row-store kernel sets the
baseline, the layer-wise column kernel pays for scanning retired rows,
the hybrid kernel pays search/filter overheads, and the column-wise
kernel is fast to *read* but pays at index update time (benchmarked
separately)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histogram import ColumnwiseIndex, HistogramBuilder
from repro.data.dataset import bin_dataset
from repro.data.synthetic import make_classification

NUM_BINS = 20
BUILDER = HistogramBuilder()


@pytest.fixture(scope="module")
def kernel_workload():
    dataset = make_classification(20_000, 500, density=0.1, seed=99)
    binned = bin_dataset(dataset, NUM_BINS)
    rng = np.random.default_rng(0)
    grad = rng.standard_normal((20_000, 1))
    hess = rng.random((20_000, 1))
    node_of = rng.integers(0, 2, size=20_000).astype(np.int64)
    rows = np.flatnonzero(node_of == 1)
    return binned, grad, hess, node_of, rows


def test_kernel_rowstore(benchmark, kernel_workload):
    binned, grad, hess, _, rows = kernel_workload
    hist, touched = benchmark(
        BUILDER.build_rowstore, binned.binned, rows, grad, hess, NUM_BINS,
    )
    assert touched > 0


def test_kernel_colstore_layer(benchmark, kernel_workload):
    binned, grad, hess, node_of, _ = kernel_workload
    csc = binned.csc()
    hists, touched = benchmark(
        BUILDER.build_colstore_layer, csc, node_of, 2, grad, hess,
        NUM_BINS,
    )
    assert touched == csc.nnz


def test_kernel_colstore_hybrid(benchmark, kernel_workload):
    binned, grad, hess, node_of, rows = kernel_workload
    csc = binned.csc()
    hist, scanned, searched = benchmark(
        BUILDER.build_colstore_hybrid, csc, rows, node_of, 1, grad, hess,
        NUM_BINS,
    )
    assert scanned + searched > 0


def test_kernel_colstore_columnwise_read(benchmark, kernel_workload):
    binned, grad, hess, node_of, _ = kernel_workload
    index = ColumnwiseIndex(binned.csc())
    index.update_after_split(node_of, [0, 1])
    hist, touched = benchmark(
        BUILDER.build_colstore_columnwise, index, 1, grad, hess, NUM_BINS,
    )
    assert touched > 0


def test_kernel_columnwise_index_update(benchmark, kernel_workload):
    """The hidden cost of the Yggdrasil index: reordering every column."""
    binned, _, _, node_of, _ = kernel_workload
    csc = binned.csc()

    def update():
        index = ColumnwiseIndex(csc)
        return index.update_after_split(node_of, [0, 1])

    moved = benchmark(update)
    assert moved == csc.nnz


def test_kernel_subtraction(benchmark, kernel_workload):
    """Deriving a sibling histogram is orders of magnitude cheaper than
    building it (the Section 2.1.2 speedup)."""
    binned, grad, hess, node_of, rows = kernel_workload
    parent, _ = BUILDER.build_rowstore(binned.binned,
                                       np.arange(binned.num_instances),
                                       grad, hess, NUM_BINS)
    child, _ = BUILDER.build_rowstore(binned.binned, rows, grad, hess,
                                      NUM_BINS)
    sibling = benchmark(BUILDER.subtract, parent, child)
    assert sibling.grad.shape == parent.grad.shape
