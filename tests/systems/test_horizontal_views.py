"""Horizontal workers read their shard in place.

Under ``HorizontalPartition`` a worker's rows are one contiguous span of
the global arrays (``horizontal_row_ranges`` tiles ``[0, N)`` in order),
so ``worker_grad`` hands out views of that span, never a copy of the
worker's shard per node.  The numbers must be the copying path's bit for
bit, nothing may write through the views into the global gradients, and
the split election reads a node's count once, not once per worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, get_plan, make_classification
from repro.cluster.partition import horizontal_row_ranges
from repro.data.dataset import bin_dataset
from repro.systems.strategies import (HorizontalPartition,
                                      ReduceScatterAggregation)

HORIZONTAL_PLANS = ("qd1", "qd2", "qd2-ps")
#: (workers, instances): one worker, a few, many, and more workers than
#: rows (one span is empty)
LAYOUTS = ((1, 200), (3, 200), (8, 200), (9, 8))

CONFIG = TrainConfig(num_trees=2, num_layers=4, num_candidates=8,
                     min_node_instances=1)


def fitted(plan, num_workers, num_instances):
    binned = bin_dataset(
        make_classification(num_instances, 12, density=0.5, seed=5), 8)
    system = get_plan(plan).build(CONFIG, ClusterConfig(num_workers))
    system.fit(binned)
    return system


def copy_oracle_stats(ex, node, grad, hess):
    """The copying path: each worker's rows gathered into a fresh shard,
    then the node's rows gathered out of that."""
    ranges = horizontal_row_ranges(grad.shape[0], ex.cluster.num_workers)
    total_g = np.zeros(grad.shape[1])
    total_h = np.zeros(hess.shape[1])
    for rows, index in zip(ranges, ex.indexes):
        node_rows = index.rows_of(node)
        total_g += grad[rows][node_rows].sum(axis=0)
        total_h += hess[rows][node_rows].sum(axis=0)
    return total_g, total_h


@pytest.mark.parametrize("num_workers, num_instances", LAYOUTS)
def test_worker_grad_is_a_view_of_the_workers_span(num_workers,
                                                   num_instances):
    system = fitted("qd2", num_workers, num_instances)
    rng = np.random.default_rng(num_workers)
    grad = rng.standard_normal((num_instances, 3))
    hess = rng.random((num_instances, 3))
    ranges = horizontal_row_ranges(num_instances, num_workers)
    for worker, rows in enumerate(ranges):
        local_g, local_h = system.partition.worker_grad(system, worker,
                                                        grad, hess)
        assert local_g.shape == local_h.shape == (rows.size, 3)
        assert local_g.tobytes() == grad[rows].tobytes()
        assert local_h.tobytes() == hess[rows].tobytes()
        if rows.size:
            assert np.shares_memory(local_g, grad)
            assert np.shares_memory(local_h, hess)
    if num_workers > num_instances:
        assert min(rows.size for rows in ranges) == 0


@pytest.mark.parametrize("plan", HORIZONTAL_PLANS)
@pytest.mark.parametrize("num_workers, num_instances", LAYOUTS)
def test_stats_equal_the_copy_oracle_and_gradients_stay_untouched(
        plan, num_workers, num_instances, monkeypatch):
    real = HorizontalPartition.compute_stats
    checked = []
    seen = []

    def compute_stats(self, ex, nodes, grad, hess, clock):
        if nodes == [0]:
            seen.append((grad, grad.tobytes(), hess, hess.tobytes()))
        real(self, ex, nodes, grad, hess, clock)
        for node in nodes:
            want_g, want_h = copy_oracle_stats(ex, node, grad, hess)
            got_g, got_h = ex.stats[node]
            checked.append(got_g.tobytes() == want_g.tobytes()
                           and got_h.tobytes() == want_h.tobytes())

    monkeypatch.setattr(HorizontalPartition, "compute_stats", compute_stats)
    fitted(plan, num_workers, num_instances)
    assert checked and all(checked)
    assert len(seen) == CONFIG.num_trees
    for grad, grad_bytes, hess, hess_bytes in seen:
        assert grad.tobytes() == grad_bytes
        assert hess.tobytes() == hess_bytes


@pytest.mark.parametrize("plan", ("qd2", "qd2-ps"))
def test_the_election_reads_each_node_count_once(plan, monkeypatch):
    real_count = HorizontalPartition.node_count
    real_find = ReduceScatterAggregation.find_splits
    reads = []
    per_layer = []

    def node_count(self, ex, node):
        reads.append(node)
        return real_count(self, ex, node)

    def find_splits(self, ex, nodes, clock):
        reads.clear()
        splits = real_find(self, ex, nodes, clock)
        per_layer.append((sorted(reads), sorted(nodes)))
        return splits

    monkeypatch.setattr(HorizontalPartition, "node_count", node_count)
    monkeypatch.setattr(ReduceScatterAggregation, "find_splits",
                        find_splits)
    fitted(plan, 4, 200)
    assert per_layer
    for got, nodes in per_layer:
        assert got == nodes
