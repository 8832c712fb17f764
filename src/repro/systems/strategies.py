"""The four strategy axes of a distributed GBDT execution plan.

The paper's thesis is that distributed GBDT decomposes into orthogonal
data-management choices.  This module makes each axis a first-class
strategy object:

* :class:`PartitionStrategy` — who owns which slice of the dataset
  (horizontal row shards / vertical column groups / full replicas) and,
  consequently, where gradients and node statistics live.
* :class:`StorageLayout` — how a worker lays out its shard (CSR row
  store / CSC column store / blockified column group) and which
  histogram-construction and placement kernels that layout admits.
* :class:`IndexPlan` — which node/instance index drives histogram
  construction (level-wise instance-to-node pass, node-to-instance with
  subtraction scheduling, per-column node-to-instance, the hybrid plan
  of Section 5.2.2, or Figure 9's ``two-phase`` key, which runs
  node-to-instance over the merged one-block CSR — no kernel calls the
  block ``lookup``).
* :class:`AggregationStrategy` — how per-worker histograms become global
  split decisions (ring all-reduce, reduce-scatter, parameter-server
  push, or no aggregation at all with local election plus placement
  bitmap broadcast), including every byte the pattern puts on the wire.

Strategies are stateless policy singletons: all per-run state lives on
the :class:`~repro.systems.executor.PlanExecutor` they are handed, in one
shape for every plan (index replicas over row spans, one stored matrix
per worker; see :class:`PartitionStrategy` and :class:`StorageLayout`),
so one strategy instance can serve any number of concurrent executors.
The combination of one strategy per axis is an
:class:`~repro.systems.plans.ExecutionPlan`; the quadrants of the paper
are entries in that plan registry rather than subclasses.  A strategy
that needs a particular strategy on another axis says so in
``requires``, and a plan composing it with anything else is refused.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, TYPE_CHECKING, Tuple, Union)

import numpy as np

from ..cluster.comm import (SPLIT_INFO_BYTES, allreduce_histograms,
                            broadcast_bytes, exchange_split_infos,
                            ps_push_histograms, record_collective,
                            reduce_scatter_histograms, scatter_features)
from ..cluster.partition import horizontal_shards, vertical_shards
from ..core.histogram import (ColumnwiseIndex, Histogram,
                              subtraction_schedule)
from ..core.indexing import NodeToInstanceIndex
from ..core.placement import (layer_placements_colstore,
                              layer_placements_rowstore)
from ..core.split import SplitInfo, decide_split, stacked
from ..core.tree import Tree
from .base import WorkerClock

if TYPE_CHECKING:
    from ..config import TrainConfig
    from .executor import PlanExecutor

#: leader worker that owns aggregated histograms under all-reduce (QD1)
LEADER = 0


def _layer_hists_over_wire(
    ex: "PlanExecutor", nodes: Sequence[int], clock: WorkerClock,
    pattern: str,
) -> Iterator[Tuple[int, Union[Histogram, List[Histogram]]]]:
    """One layer's histograms as the aggregating end receives them, node
    by node; once the last node has been handed out the layer's single
    batched collective is charged (real systems batch a layer's
    histograms into one collective).

    On the identity stack the stores' histograms come back one per
    worker, densified (:meth:`Histogram.to_dense`: a dense store
    histogram comes back untouched, no copy) — no encode, nothing
    charged.  Otherwise each
    histogram goes through the executor's histogram codec — the encode
    kernel charged to the owning worker, the decode to every worker (the
    payload is decoded wherever the aggregate is) — and the collective is
    charged the encoded sizes.  The receiving end accumulate-decodes:
    worker 0's payload becomes a fresh histogram (never a store's: those
    feed the next layer's subtraction), every later one is added into it
    in worker order, and the node comes back as that one aggregate.  A
    lossless codec ships bit-identical values, so the sum is the dense
    model's exactly.
    """
    num_workers = ex.cluster.num_workers
    codec = None if ex.codec.is_identity else ex.codec.histogram
    enc_bytes = None if codec is None else [0] * num_workers
    payload = 0
    for node in nodes:
        hists = [store.get(node) for store in ex.stores]
        payload += hists[0].nbytes
        if codec is None:
            hists = [hist.to_dense() for hist in hists]
        else:
            total = None
            for worker, hist in enumerate(hists):
                with clock.timed(worker, "codec"):
                    enc = codec.encode(hist)
                enc_bytes[worker] += enc.nbytes
                with clock.timed(None, "codec"):
                    total = codec.decode(enc, into=total)
            hists = total
        yield node, hists
    record_collective(ex.net, "hist-aggregation", payload, num_workers,
                      pattern, encoded_worker_bytes=enc_bytes)


def _elect_splits(
    ex: "PlanExecutor", nodes: Sequence[int],
    worker_features: Sequence[np.ndarray],
    hists_of: Callable[[int], List[Histogram]], clock: WorkerClock,
) -> Dict[int, SplitInfo]:
    """Global best split of each of a layer's ``nodes`` from per-worker
    local proposals.

    Worker ``w`` proposes, in one finder call, the best split of each of
    ``hists_of(w)`` (one histogram per node, whose rows are the features
    ``worker_features[w]``: a reduce-scatter slice, a server shard or a
    vertical column group); each proposal's local feature id is mapped
    back to the global one and every node's winner elected, in worker
    order, by :meth:`SplitInfo.better_than`.  Workers owning no
    features sit the election out.  A node's totals and instance count
    are the same for every worker, so they are read once.
    """
    bins = ex._binned.bins_per_feature
    stats = [ex.stats[node] for node in nodes]
    counts = [ex.partition.node_count(ex, node) for node in nodes]
    best: List[Optional[SplitInfo]] = [None] * len(nodes)
    for worker, features in enumerate(worker_features):
        if features.size == 0:
            continue
        with clock.timed(worker, "split-find"):
            proposals = decide_split(ex.config, hists_of(worker), stats,
                                     counts, bins[features])
        for i, candidate in enumerate(proposals):
            if candidate is None:
                continue
            candidate = SplitInfo(
                feature=int(features[candidate.feature]),
                bin=candidate.bin,
                default_left=candidate.default_left,
                gain=candidate.gain,
            )
            if candidate.better_than(best[i]):
                best[i] = candidate
    return {node: split for node, split in zip(nodes, best)
            if split is not None}


def _activate_children(ex: "PlanExecutor", splits: Dict[int, SplitInfo],
                       grad: np.ndarray, hess: np.ndarray,
                       active: Set[int], clock: WorkerClock) -> None:
    """Every index replica has applied ``splits``: compute the children's
    node statistics and swap them in for their parents."""
    children = [c for node in sorted(splits)
                for c in (2 * node + 1, 2 * node + 2)]
    ex.partition.compute_stats(ex, children, grad, hess, clock)
    active.difference_update(splits)
    active.update(children)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

class PartitionStrategy:
    """How the dataset is sliced across workers.

    Every partition leaves the same state on the executor: ``ex.shards``
    (one per worker), ``ex.row_ranges`` (one global row span per index
    replica), ``ex.replica_of`` (the replica each worker reads) and, per
    tree, ``ex.indexes`` (one :class:`NodeToInstanceIndex` per span).
    Horizontal partitioning keeps ``W`` replicas over its ``W`` row
    spans; vertical and replicated partitioning keep one over all ``N``
    rows, which every worker reads: the per-worker replicas never diverge
    because every worker applies identical placement updates
    (Section 4.2.2).  Gradients, node counts, leaf ids and label memory
    all follow from that state, so only :meth:`setup` and
    :meth:`compute_stats` differ by partition.
    """

    key: str = "abstract"

    def setup(self, ex: "PlanExecutor", binned) -> None:
        """Set ``ex.shards``, ``ex.row_ranges`` and ``ex.replica_of``."""
        raise NotImplementedError

    def reset(self, ex: "PlanExecutor") -> None:
        """Per-tree reset: a fresh index over every row span."""
        ex.indexes = [NodeToInstanceIndex(rows.stop - rows.start)
                      for rows in ex.row_ranges]

    def hist_workers(self, ex: "PlanExecutor") -> Sequence[int]:
        """Workers that participate in histogram construction."""
        return range(ex.cluster.num_workers)

    def worker_grad(self, ex: "PlanExecutor", worker: int,
                    grad: np.ndarray,
                    hess: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the gradient rows worker ``worker`` holds locally:
        the row span of the replica it reads."""
        rows = ex.row_ranges[ex.replica_of[worker]]
        return grad[rows], hess[rows]

    def worker_index(self, ex: "PlanExecutor",
                     worker: int) -> NodeToInstanceIndex:
        """The index replica tracking the worker's local rows."""
        return ex.indexes[ex.replica_of[worker]]

    def gradient_instances(self, ex: "PlanExecutor") -> int:
        """Gradients each worker computes: its replica's rows."""
        return max(rows.stop - rows.start for rows in ex.row_ranges)

    def node_count(self, ex: "PlanExecutor", node: int) -> int:
        return sum(index.count_of(node) for index in ex.indexes)

    def compute_stats(self, ex: "PlanExecutor", nodes: Sequence[int],
                      grad: np.ndarray, hess: np.ndarray,
                      clock: WorkerClock) -> None:
        """Fill ``ex.stats[node]`` with each node's global (G, H) totals
        (one gather of the nodes' rows per index replica)."""
        raise NotImplementedError

    def retire_node(self, ex: "PlanExecutor", node: int) -> None:
        for index in ex.indexes:
            index.retire_node(node)

    def assemble_leaves(self, ex: "PlanExecutor") -> np.ndarray:
        """Global per-instance leaf ids from the index replicas."""
        leaf = np.empty(ex._binned.num_instances, dtype=np.int32)
        for rows, index in zip(ex.row_ranges, ex.indexes):
            leaf[rows] = index.node_of_instance
        return leaf

    def label_bytes(self, ex: "PlanExecutor", worker: int) -> int:
        """Labels a worker holds: those of its replica's rows."""
        return ex._binned.labels[ex.row_ranges[ex.replica_of[worker]]].nbytes

    def held_bytes(self, ex: "PlanExecutor", worker: int) -> int:
        """Dataset bytes a worker holds, labels aside: its stored shard."""
        return ex.stored[worker].nbytes

    def data_bytes(self, ex: "PlanExecutor") -> int:
        """Max per-worker dataset memory (held bytes + labels)."""
        return max(
            self.held_bytes(ex, w) + self.label_bytes(ex, w)
            for w in range(ex.cluster.num_workers)
        )


class HorizontalPartition(PartitionStrategy):
    """Each worker owns a contiguous row range (QD1/QD2, Figure 4(a)).

    Workers see all features of their own rows, so node splitting is
    purely local, but histograms must be aggregated before split finding
    and node statistics are sums of per-worker partial totals.
    """

    key = "horizontal"

    def setup(self, ex: "PlanExecutor", binned) -> None:
        num_workers = ex.cluster.num_workers
        ex.shards, ranges = horizontal_shards(binned, num_workers)
        # the ranges tile [0, N) in order, each one contiguous: a worker's
        # rows are one span, so its gradients are read (and its leaf ids
        # written) through views of the global arrays, never copies
        stops = accumulate(rows.size for rows in ranges)
        ex.row_ranges = [slice(stop - rows.size, stop)
                         for rows, stop in zip(ranges, stops)]
        ex.replica_of = list(range(num_workers))
        # contiguous feature ranges used for reduce-scatter / server shards
        bounds = np.linspace(0, binned.num_features,
                             num_workers + 1).astype(np.int64)
        ex.feature_ranges = [
            np.arange(bounds[w], bounds[w + 1], dtype=np.int64)
            for w in range(num_workers)
        ]

    def compute_stats(self, ex, nodes, grad, hess, clock) -> None:
        """Global node totals as the sums of per-worker local totals,
        added in worker order; each worker is charged its own gather."""
        total_g = np.zeros((len(nodes), grad.shape[1]))
        total_h = np.zeros((len(nodes), hess.shape[1]))
        for worker, (rows, index) in enumerate(zip(ex.row_ranges,
                                                   ex.indexes)):
            with clock.timed(worker, "split-find"):
                g, h = index.node_totals(nodes, grad[rows], hess[rows])
            total_g += g
            total_h += h
        ex.stats.update(zip(nodes, zip(total_g, total_h)))


class VerticalPartition(PartitionStrategy):
    """Each worker owns a column group plus all labels (QD3/QD4).

    Histograms never need aggregation, and every worker computes all
    ``N`` gradients over the one shared index replica.
    """

    key = "vertical"

    def setup(self, ex: "PlanExecutor", binned) -> None:
        num_workers = ex.cluster.num_workers
        ex.shards, ex.groups = vertical_shards(
            binned, num_workers, strategy=ex.grouping,
            seed=ex.cluster.seed,
        )
        ex.row_ranges = [slice(0, binned.num_instances)]
        ex.replica_of = [0] * num_workers
        ex.owner_of_feature = np.empty(binned.num_features, dtype=np.int64)
        ex.local_of_feature = np.empty(binned.num_features, dtype=np.int64)
        for worker, group in enumerate(ex.groups):
            ex.owner_of_feature[group] = worker
            ex.local_of_feature[group] = np.arange(group.size)

    def hist_workers(self, ex) -> Sequence[int]:
        """Skip workers owning no features (W > D)."""
        return [w for w in range(ex.cluster.num_workers)
                if ex.groups[w].size > 0]

    def compute_stats(self, ex, nodes, grad, hess, clock) -> None:
        """Node totals — computed identically on every worker."""
        (index,) = ex.indexes
        with clock.timed(None, "split-find"):
            ex.stats.update(zip(
                nodes, zip(*index.node_totals(nodes, grad, hess))))


class ReplicatedPartition(VerticalPartition):
    """Feature-parallel mode: every worker holds the *full* dataset.

    Histogram work is still divided by column group (so the group
    structures of :class:`VerticalPartition` apply unchanged), but no
    placement traffic is ever needed and dataset memory is ``W`` full
    copies — the Appendix D trade-off.
    """

    key = "replicated"

    def held_bytes(self, ex, worker) -> int:
        """Every worker holds the entire binned matrix."""
        return ex._binned.binned.nbytes


# ---------------------------------------------------------------------------
# Storage layout
# ---------------------------------------------------------------------------

class StorageLayout:
    """How a worker materializes its shard, and the kernels that admits.

    :meth:`setup` fills ``ex.stored``: one stored matrix per worker, the
    one its histogram and placement kernels read.
    """

    key: str = "abstract"

    def setup(self, ex: "PlanExecutor") -> None:
        """Materialize the storage representation of every shard."""
        raise NotImplementedError

    def build_node_hist(self, ex: "PlanExecutor", worker: int, node: int,
                        rows: np.ndarray, grad: np.ndarray,
                        hess: np.ndarray,
                        index: NodeToInstanceIndex) -> Histogram:
        """Histogram of one node over the worker's stored entries."""
        raise NotImplementedError

    def build_layer_hists(self, ex: "PlanExecutor", worker: int,
                          nodes: Sequence[int], grad: np.ndarray,
                          hess: np.ndarray,
                          index: NodeToInstanceIndex) -> List[Histogram]:
        """All node histograms of one layer in a single pass."""
        raise NotImplementedError

    def placements(self, ex: "PlanExecutor", worker: int,
                   index: NodeToInstanceIndex,
                   splits: Dict[int, SplitInfo]) -> Dict[int, np.ndarray]:
        """``go_left`` per split node, computed from the worker's shard."""
        raise NotImplementedError


class RowStore(StorageLayout):
    """CSR shard: rows of (feature, bin) pairs (QD2/QD4)."""

    key = "row"

    def setup(self, ex: "PlanExecutor") -> None:
        ex.stored = [shard.binned for shard in ex.shards]

    def build_node_hist(self, ex, worker, node, rows, grad, hess, index):
        hist, _ = ex.hist_builder.build_rowstore(
            ex.stored[worker], rows, grad, hess, ex._binned.num_bins,
        )
        return hist

    def placements(self, ex, worker, index, splits):
        return layer_placements_rowstore(ex.stored[worker], index, splits)


class ColumnStore(StorageLayout):
    """CSC shard: one bin-index array per feature column (QD1/QD3)."""

    key = "column"

    def setup(self, ex: "PlanExecutor") -> None:
        ex.stored = [shard.csc() for shard in ex.shards]

    def build_node_hist(self, ex, worker, node, rows, grad, hess, index):
        """The hybrid kernel (Section 5.2.2): per column, linear scan with
        instance-to-node lookups or binary search of the node's rows,
        whichever is cheaper."""
        hist, _, _ = ex.hist_builder.build_colstore_hybrid(
            ex.stored[worker], rows, index.node_of_instance, node,
            grad, hess, ex._binned.num_bins,
        )
        return hist

    def build_layer_hists(self, ex, worker, nodes, grad, hess, index):
        slots = index.slot_of_instance(nodes)
        hists, _ = ex.hist_builder.build_colstore_layer(
            ex.stored[worker], slots, len(nodes), grad, hess,
            ex._binned.num_bins,
        )
        return hists

    def placements(self, ex, worker, index, splits):
        return layer_placements_colstore(ex.stored[worker], index, splits)


class BlockifiedRowStore(RowStore):
    """Blockified column group (Figure 9): the post-repartition layout.

    A worker's shipped blocks merge down to one CSR block per column
    group (the paper's training representation,
    :class:`~repro.cluster.blocks.BlockedColumnGroup`), which holds entry
    for entry the plain row store's CSR and bytes: the layout stores the
    shard as :class:`RowStore` does, so trees are bit-identical to QD4's
    and the memory report is the block arrays a worker holds.
    """

    key = "blocked-row"


# ---------------------------------------------------------------------------
# Index plan
# ---------------------------------------------------------------------------

class IndexPlan:
    """Which node/instance index drives histogram construction."""

    key: str = "abstract"

    #: the strategy keys this plan needs on another axis, by axis name
    #: (checked when an :class:`~repro.systems.plans.ExecutionPlan` is
    #: composed); an axis not named here admits every strategy
    requires: Dict[str, FrozenSet[str]] = {}

    def setup(self, ex: "PlanExecutor") -> None:
        """One-time structures next to the storage layout."""

    def reset(self, ex: "PlanExecutor") -> None:
        """Per-tree reset of index-plan-owned structures."""

    def build_layer(self, ex: "PlanExecutor", nodes: Sequence[int],
                    grad: np.ndarray, hess: np.ndarray,
                    clock: WorkerClock) -> None:
        """Fill every worker's histogram store for one layer's nodes."""
        raise NotImplementedError

    def after_layer(self, ex: "PlanExecutor", nodes: Sequence[int],
                    split_nodes: Sequence[int],
                    clock: WorkerClock) -> None:
        """Post-split maintenance: index reorders, histogram retirement."""


class InstanceToNodePlan(IndexPlan):
    """Level-wise pass keyed by the instance-to-node direction (QD1).

    One scan of *all* stored entries scatters each into the histogram of
    the node its instance currently occupies, so histogram subtraction
    cannot skip any data and the layer's histograms are discarded whole.
    """

    key = "instance-to-node"

    #: the level-wise layer kernel scans columns
    requires = {"storage": frozenset({"column"})}

    def build_layer(self, ex, nodes, grad, hess, clock) -> None:
        for worker in ex.partition.hist_workers(ex):
            local_g, local_h = ex.partition.worker_grad(ex, worker,
                                                        grad, hess)
            index = ex.partition.worker_index(ex, worker)
            with clock.timed(worker):
                hists = ex.storage.build_layer_hists(
                    ex, worker, nodes, local_g, local_h, index)
            store = ex.stores[worker]
            for node, hist in zip(nodes, hists):
                store.put(node, hist)

    def after_layer(self, ex, nodes, split_nodes, clock) -> None:
        # nothing is retained: the layer's histograms are discarded
        for store in ex.stores:
            for node in nodes:
                store.pop(node)


class NodeToInstancePlan(IndexPlan):
    """Node-to-instance index with histogram subtraction (QD2/QD4).

    The master plans each layer's schema from global node counts
    (Section 4.2.2): for every sibling pair whose parent histogram is
    retained, only the smaller child is built and the other is derived.
    """

    key = "node-to-instance"

    def build_node_hist(self, ex, worker, node, rows, grad, hess, index):
        return ex.storage.build_node_hist(ex, worker, node, rows,
                                          grad, hess, index)

    def build_layer(self, ex, nodes, grad, hess, clock) -> None:
        counts = {
            node: ex.partition.node_count(ex, node) for node in nodes
        }
        actions = subtraction_schedule(
            nodes, counts, ex.stores[0] if ex.use_subtraction else ())
        for worker in ex.partition.hist_workers(ex):
            local_g, local_h = ex.partition.worker_grad(ex, worker,
                                                        grad, hess)
            index = ex.partition.worker_index(ex, worker)
            store = ex.stores[worker]
            with clock.timed(worker):
                for op, node, other in actions:
                    if op == "build":
                        store.put(node, self.build_node_hist(
                            ex, worker, node, index.rows_of(node),
                            local_g, local_h, index))
                    else:  # subtract: node = parent_hist - other(sibling)
                        parent = (node - 1) // 2
                        store.put(node, ex.hist_builder.subtract(
                            store.get(parent), store.get(other)))
                # parents consumed this layer are no longer needed
                for op, node, _ in actions:
                    if op == "subtract":
                        store.pop((node - 1) // 2)

    def after_layer(self, ex, nodes, split_nodes, clock) -> None:
        if not ex.use_subtraction:
            # parents are never consumed by subtraction: drop them
            for store in ex.stores:
                for node in nodes:
                    store.pop(node)


class HybridIndexPlan(NodeToInstancePlan):
    """The paper's own QD3 plan (Section 5.2.2): subtraction scheduling
    over the column store's hybrid scan/search kernel."""

    key = "hybrid"


class ColumnwiseIndexPlan(NodeToInstancePlan):
    """Pure Yggdrasil: a per-column node-to-instance index gives free
    per-node column slices but costs an ``O(nnz)`` reorder of every
    column at each layer split (Appendix C)."""

    key = "columnwise"

    #: the per-column index is built over the worker's CSC
    requires = {"storage": frozenset({"column"})}

    def reset(self, ex: "PlanExecutor") -> None:
        ex.column_indexes = [ColumnwiseIndex(csc) for csc in ex.stored]

    def build_node_hist(self, ex, worker, node, rows, grad, hess, index):
        hist, _ = ex.hist_builder.build_colstore_columnwise(
            ex.column_indexes[worker], node, grad, hess,
            ex._binned.num_bins,
        )
        return hist

    def after_layer(self, ex, nodes, split_nodes, clock) -> None:
        if split_nodes:
            children = [c for n in split_nodes
                        for c in (2 * n + 1, 2 * n + 2)]
            for worker, column_index in enumerate(ex.column_indexes):
                index = ex.partition.worker_index(ex, worker)
                with clock.timed(worker, "node-split"):
                    column_index.update_after_split(index.node_of_instance,
                                                    children)
        super().after_layer(ex, nodes, split_nodes, clock)


class TwoPhaseIndexPlan(NodeToInstancePlan):
    """Subtraction scheduling over a blockified group (Figure 9).

    The storage merges each group down to one block and the kernels read
    that merged CSR, so no kernel calls the two-phase block index
    (:meth:`~repro.cluster.blocks.BlockedColumnGroup.lookup`); the key
    names the paper's layout.
    """

    key = "two-phase"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class AggregationStrategy:
    """How local histograms become global split decisions, and how the
    winning placements reach every replica of the index.

    Each strategy charges its own traffic on the executor's simulated
    network — histogram collectives, split-info exchanges and placement
    bitmaps — so per-plan ``comm_bytes`` accounting lives entirely on
    this axis.
    """

    key: str = "abstract"

    #: the strategy keys this pattern needs on another axis, by axis name
    #: (as :attr:`IndexPlan.requires`)
    requires: Dict[str, FrozenSet[str]] = {}

    #: how a crashed worker is brought back (see DESIGN.md §9):
    #: ``"reshard"`` — the horizontal patterns; any row shard can be
    #: re-shipped from durable storage, so the crashed worker is restored
    #: from the tree checkpoint plus a reshard of its rows.
    #: ``"rollback"`` — the vertical broadcast pattern; a column shard is
    #: irreplaceable without its owner, so the whole tree rolls back to
    #: the last checkpoint before the replacement rejoins.
    #: ``"replicate"`` — the feature-parallel pattern; every peer holds
    #: the full dataset, so the replacement copies a replica from any
    #: survivor.
    #: All three replay the interrupted tree from its checkpoint; the
    #: policy decides what restore traffic is charged.
    recovery_policy: str = "rollback"

    def validate(self, config: "TrainConfig") -> None:
        """Reject configurations the pattern cannot serve."""

    def find_splits(self, ex: "PlanExecutor", nodes: Sequence[int],
                    clock: WorkerClock) -> Dict[int, SplitInfo]:
        raise NotImplementedError

    def apply_splits(self, ex: "PlanExecutor", tree: Tree,
                     splits: Dict[int, SplitInfo], grad: np.ndarray,
                     hess: np.ndarray, active: Set[int],
                     clock: WorkerClock) -> None:
        raise NotImplementedError


class _LocalPlacementMixin:
    """Shared by the horizontal patterns: every worker knows all features
    of its own rows, so node splitting is purely local — no placement
    broadcast is needed."""

    #: per-worker row replicas, aggregated over feature ranges
    requires = {"partition": frozenset({"horizontal"})}

    def apply_splits(self, ex, tree, splits, grad, hess, active,
                     clock) -> None:
        binned = ex._binned
        for node, split in splits.items():
            tree.set_split(node, split,
                           binned.threshold_of(split.feature, split.bin))
        for worker, index in enumerate(ex.indexes):
            with clock.timed(worker, "node-split"):
                index.split_nodes(
                    ex.storage.placements(ex, worker, index, splits))
        _activate_children(ex, splits, grad, hess, active, clock)


class AllReduceAggregation(_LocalPlacementMixin, AggregationStrategy):
    """Ring all-reduce per layer; a leader enumerates every split (QD1).

    One all-reduce covers the whole layer (latency paid once); the
    leader's winning splits are broadcast as compact split infos.
    """

    key = "all-reduce"

    recovery_policy = "reshard"

    def find_splits(self, ex, nodes, clock) -> Dict[int, SplitInfo]:
        aggregated: Dict[int, Histogram] = {
            node: allreduce_histograms(hists)
            for node, hists in _layer_hists_over_wire(
                ex, nodes, clock, "allreduce")
        }
        with clock.timed(LEADER, "split-find"):
            found = decide_split(
                ex.config, [aggregated[node] for node in nodes],
                [ex.stats[node] for node in nodes],
                [ex.partition.node_count(ex, node) for node in nodes],
                ex._binned.bins_per_feature,
            )
        splits = {node: split for node, split in zip(nodes, found)
                  if split is not None}
        broadcast_bytes(len(splits) * SPLIT_INFO_BYTES,
                        ex.cluster.num_workers, ex.net,
                        kind="split-broadcast")
        return splits


class ReduceScatterAggregation(_LocalPlacementMixin, AggregationStrategy):
    """Reduce-scatter over contiguous feature slices (QD2, LightGBM).

    Each worker ends up owning the aggregated slice of ``D / W``
    features, proposes a local best split, and the global best is
    elected from the exchange.
    """

    key = "reduce-scatter"

    recovery_policy = "reshard"

    #: collective pattern used to aggregate one layer's histograms
    pattern = "reducescatter"

    def aggregate_node(self, ex, hists) -> List[Histogram]:
        """Aggregated feature-slice histograms, one per worker, from the
        histograms of one node as received over the wire (what
        :func:`_layer_hists_over_wire` hands out)."""
        return reduce_scatter_histograms(hists, ex.feature_ranges)

    def find_splits(self, ex, nodes, clock) -> Dict[int, SplitInfo]:
        # the finder stacks narrow slices, so the layer is elected at
        # once; wide ones it searches node by node anyway, and electing
        # them as they arrive keeps one wide aggregate alive at a time
        widest = max(features.size for features in ex.feature_ranges)
        group = len(nodes) if stacked(widest, ex._binned.num_bins) else 1
        stream = _layer_hists_over_wire(ex, nodes, clock, self.pattern)
        splits: Dict[int, SplitInfo] = {}
        for batch in iter(lambda: list(islice(stream, group)), []):
            slices = [self.aggregate_node(ex, hists) for _, hists in batch]
            splits.update(_elect_splits(
                ex, [node for node, _ in batch], ex.feature_ranges,
                lambda worker: [pieces[worker] for pieces in slices], clock))
        exchange_split_infos(len(nodes), ex.cluster.num_workers, ex.net)
        return splits


class ParameterServerAggregation(ReduceScatterAggregation):
    """Parameter-server push/pull (QD2-PS, the DimBoost architecture).

    Histograms are pushed whole to ``W`` range-sharded servers; split
    finding happens server-side on the aggregated slices, with none of
    reduce-scatter's savings.
    """

    key = "parameter-server"

    pattern = "ps"

    def validate(self, config: "TrainConfig") -> None:
        if config.objective == "multiclass":
            raise ValueError(
                "parameter-server aggregation (DimBoost) does not "
                "support multi-classification (Section 5.3 of the paper)"
            )

    def aggregate_node(self, ex, hists) -> List[Histogram]:
        return scatter_features(ps_push_histograms(hists),
                                ex.feature_ranges)


class _LocalElectionMixin:
    """Vertical split finding: every worker proposes a local best for its
    feature group and the global best is elected — no histogram ever
    crosses the wire (Section 2.2.1, Figure 4(b))."""

    #: column groups that own each feature, over one shared replica
    requires = {"partition": frozenset({"vertical", "replicated"})}

    def find_splits(self, ex, nodes, clock) -> Dict[int, SplitInfo]:
        splits = _elect_splits(
            ex, nodes, ex.groups,
            lambda worker: [ex.stores[worker].get(node) for node in nodes],
            clock)
        # one exchange covers every node of the layer
        exchange_split_infos(len(nodes), ex.cluster.num_workers, ex.net)
        return splits

    def _owner_splits(self, ex, tree, splits):
        """Record splits in the tree and group them by owning worker,
        with feature ids translated to shard-local ids — each owner then
        computes all of its placements in ONE pass over its shard
        (the Section 3.2.4 node-splitting bound)."""
        binned = ex._binned
        by_owner: Dict[int, Dict[int, SplitInfo]] = {}
        for node, split in sorted(splits.items()):
            tree.set_split(node, split,
                           binned.threshold_of(split.feature, split.bin))
            owner = int(ex.owner_of_feature[split.feature])
            local = SplitInfo(
                feature=int(ex.local_of_feature[split.feature]),
                bin=split.bin,
                default_left=split.default_left,
                gain=split.gain,
            )
            by_owner.setdefault(owner, {})[node] = local
        return by_owner


class BitmapBroadcastAggregation(_LocalElectionMixin,
                                 AggregationStrategy):
    """Local election + placement bitmap broadcast (QD3/QD4).

    Only the owner of a winning feature can compute the resulting
    instance placement; it broadcasts the decision as a one-bit-per-
    instance bitmap covering every split node of the layer
    (Section 4.2.2, at most ``ceil(N/8)`` bytes per node).
    """

    key = "bitmap-broadcast"

    recovery_policy = "rollback"

    def apply_splits(self, ex, tree, splits, grad, hess, active,
                     clock) -> None:
        by_owner = self._owner_splits(ex, tree, splits)
        codec = ex.codec.placement
        placements: Dict[int, np.ndarray] = {}
        payloads: Dict[int, object] = {}
        wire_bytes = 0
        raw_bytes = 0
        for owner, local_splits in by_owner.items():
            with clock.timed(owner, "node-split"):
                owner_placements = ex.storage.placements(
                    ex, owner, ex.partition.worker_index(ex, owner),
                    local_splits)
                for node, go_left in owner_placements.items():
                    enc = codec.encode(go_left)
                    payloads[node] = enc
                    wire_bytes += enc.nbytes
                    raw_bytes += enc.raw_nbytes
            placements.update(owner_placements)
        # one placement broadcast per layer (Section 3.1.3); the default
        # bitmap codec charges exactly ceil(N/8) per node, an adaptive
        # codec may beat it and accounts the saving as codec:<kind>
        broadcast_bytes(wire_bytes, ex.cluster.num_workers, ex.net,
                        kind="placement-bitmap", raw_nbytes=raw_bytes)
        with clock.timed(None, "node-split"):
            decoded = {
                node: codec.decode(payloads[node], placements[node].size)
                for node in sorted(splits)
            }
            for index in ex.indexes:
                index.split_nodes(decoded)
        _activate_children(ex, splits, grad, hess, active, clock)


class LocalApplyAggregation(_LocalElectionMixin, AggregationStrategy):
    """Local election, local node splitting everywhere (QD2-FP).

    Every worker owns all the data, so the owner's placement is
    recomputed locally on each replica; the computation is charged to
    all workers and no placement traffic hits the network (Appendix D).
    """

    key = "local"

    recovery_policy = "replicate"

    def apply_splits(self, ex, tree, splits, grad, hess, active,
                     clock) -> None:
        by_owner = self._owner_splits(ex, tree, splits)
        with clock.timed(None, "node-split"):
            placements: Dict[int, np.ndarray] = {}
            for owner, local_splits in by_owner.items():
                placements.update(ex.storage.placements(
                    ex, owner, ex.partition.worker_index(ex, owner),
                    local_splits))
            for index in ex.indexes:
                index.split_nodes(placements)
        _activate_children(ex, splits, grad, hess, active, clock)


# ---------------------------------------------------------------------------
# Strategy registries (one singleton per key)
# ---------------------------------------------------------------------------

def _registry(*strategies) -> Dict[str, object]:
    return {s.key: s for s in (cls() for cls in strategies)}


PARTITIONS: Dict[str, PartitionStrategy] = _registry(
    HorizontalPartition, VerticalPartition, ReplicatedPartition,
)

STORAGES: Dict[str, StorageLayout] = _registry(
    RowStore, ColumnStore, BlockifiedRowStore,
)

INDEX_PLANS: Dict[str, IndexPlan] = _registry(
    InstanceToNodePlan, NodeToInstancePlan, HybridIndexPlan,
    ColumnwiseIndexPlan, TwoPhaseIndexPlan,
)

AGGREGATIONS: Dict[str, AggregationStrategy] = _registry(
    AllReduceAggregation, ReduceScatterAggregation,
    ParameterServerAggregation, BitmapBroadcastAggregation,
    LocalApplyAggregation,
)
