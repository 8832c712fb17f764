"""Horizontal-to-vertical transformation (Section 4.2.1, Figure 8).

Training data arrives horizontally partitioned (each worker holds a row
range, as it would from HDFS file splits); Vero repartitions it vertically
in five steps:

1. **Build quantile sketches** — one mergeable sketch per feature per
   worker; local sketches of one feature travel to a single worker and are
   merged into a global sketch.
2. **Generate candidate splits** — evenly spaced quantiles of each merged
   sketch; the master collects and broadcasts them.
3. **Column grouping** — each worker regroups its shard by destination
   worker, re-encoding every key-value pair as
   ``(group-local feature id, histogram bin index)`` — the lossless
   compression of the paper (bin indexes leave histograms unchanged).
4. **Repartition column groups** — all-to-all shuffle; with the blockify
   optimization each fragment ships as one block of three arrays instead
   of per-instance objects.
5. **Broadcast instance labels** — so every worker can compute gradients.

This module bins the data and prices the move for Table 5 under three
encodings (Appendix A): ``naive`` (12-byte raw pairs), ``compressed``
(encoded pairs, still per-instance objects) and ``blockified`` (encoded
pairs in blocks — Vero).  Computation is measured; network and
serialization time is simulated from accounted bytes/objects.  The
vertical partition makes the move once, along the same
:func:`~repro.cluster.partition.column_groups`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..data.dataset import BinnedDataset, Dataset, apply_cuts
from ..data.matrix import CSCMatrix, CSRMatrix
from ..sketch.proposer import distinct_cuts_below, propose_candidates
from ..sketch.quantile import SKETCH_EPS, MergingSketch
from .network import SimulatedNetwork
from .partition import column_groups, horizontal_row_ranges

#: bytes of one raw key-value pair: 4-byte feature id + 8-byte double value
NAIVE_PAIR_BYTES = 12
#: simulated (de)serialization cost of one shipped object
SERIALIZATION_SECONDS_PER_OBJECT = 5e-7
#: simulated disk bandwidth for the "load data" step (bytes/second)
DISK_BYTES_PER_SECOND = 100e6
#: bytes per instance on disk per stored pair, libsvm-style text
DISK_BYTES_PER_PAIR = 13


def compressed_pair_bytes(group_size: int, num_bins: int) -> int:
    """Encoded size of one pair after step 3 (Section 4.2.1).

    Feature ids are renumbered inside the group (``ceil(log2 p)`` bits)
    and values become bin indexes (``ceil(log2 q)`` bits); both round up
    to whole bytes, minimum one each.
    """
    fid_bytes = max(math.ceil(math.log2(max(group_size, 2)) / 8), 1)
    bin_bytes = max(math.ceil(math.log2(max(num_bins, 2)) / 8), 1)
    return fid_bytes + bin_bytes


@dataclass
class TransformReport:
    """Per-step costs of one transformation run (Table 5 columns)."""

    load_data_seconds: float = 0.0
    get_splits_seconds: float = 0.0
    repartition_seconds: Dict[str, float] = field(default_factory=dict)
    repartition_bytes: Dict[str, int] = field(default_factory=dict)
    broadcast_label_seconds: float = 0.0
    broadcast_label_bytes: int = 0
    sketch_bytes: int = 0
    compression_ratio: float = 1.0

    def total_seconds(self, encoding: str = "blockified") -> float:
        return (
            self.load_data_seconds
            + self.get_splits_seconds
            + self.repartition_seconds.get(encoding, 0.0)
            + self.broadcast_label_seconds
        )


@dataclass
class TransformResult:
    """The binned dataset, its column groups, and the cost report."""

    groups: List[np.ndarray]
    cuts: List[np.ndarray]
    report: TransformReport
    global_binned: BinnedDataset


def horizontal_to_vertical(
    dataset: Dataset,
    cluster: ClusterConfig,
    num_candidates: int,
    net: Optional[SimulatedNetwork] = None,
    grouping: str = "greedy",
) -> TransformResult:
    """Bin a raw dataset and price its five-step transformation, with
    the columns grouped by ``grouping`` (as
    :func:`~repro.cluster.partition.vertical_shards`
    groups the shards trained on)."""
    if net is None:
        net = SimulatedNetwork(cluster.network)
    num_workers = cluster.num_workers
    report = TransformReport()
    ranges = horizontal_row_ranges(dataset.num_instances, num_workers)
    raw_shards = [dataset.features.select_rows(rows) for rows in ranges]

    # Step 0 (context): loading horizontally partitioned data from the
    # distributed filesystem — simulated from a libsvm-style on-disk size.
    per_worker_disk = max(
        shard.nnz * DISK_BYTES_PER_PAIR + shard.num_rows * 2
        for shard in raw_shards
    )
    report.load_data_seconds = per_worker_disk / DISK_BYTES_PER_SECOND

    # Steps 1-2: sketches -> merged -> candidate splits (measured; the
    # workers sketch their shards in parallel, each paying a W-th).
    # Imported here: repro.systems.executor imports this module.
    from ..systems.base import WorkerClock

    with WorkerClock(num_workers).timed() as sketching:
        cuts, sketch_bytes = _sketch_candidates(
            raw_shards, dataset.num_features, num_candidates
        )
    report.get_splits_seconds = (
        sketching.seconds / num_workers
        + net.model.transfer_time(sketch_bytes)
    )
    report.sketch_bytes = sketch_bytes
    net.record("sketch-repartition", sketch_bytes,
               net.model.transfer_time(sketch_bytes))
    # master broadcasts the candidate splits
    split_bytes = sum(c.size for c in cuts) * 8 * (num_workers - 1)
    net.record("split-broadcast", split_bytes,
               net.model.transfer_time(split_bytes))

    # Step 3: bin (one pass over the whole matrix — binning is per entry,
    # so each worker's shard is a row slice of it) and group columns by
    # destination worker.
    global_binned = BinnedDataset(
        apply_cuts(dataset.features, cuts), list(cuts), dataset.labels,
        num_candidates, dataset.task, dataset.num_classes,
        name=dataset.name,
    )
    groups = column_groups(global_binned, num_workers, grouping,
                           cluster.seed)

    # Step 4: repartition — account all three encodings.
    _account_repartition(
        report, net, global_binned.binned.nnz, dataset.num_instances,
        groups, num_candidates, num_workers,
    )

    # Step 5: broadcast labels.
    label_bytes = dataset.num_instances * 4 * (num_workers - 1)
    report.broadcast_label_bytes = label_bytes
    report.broadcast_label_seconds = net.model.transfer_time(label_bytes)
    net.record("label-broadcast", label_bytes,
               report.broadcast_label_seconds)
    return TransformResult(groups, list(cuts), report, global_binned)


def _sketch_candidates(
    raw_shards: List[CSRMatrix],
    num_features: int,
    num_candidates: int,
) -> Tuple[List[np.ndarray], int]:
    """Steps 1-2: per-worker sketches, merge, propose candidates.

    A :class:`MergingSketch` only ever drops a point when it compacts
    more than ``max_summary`` of them, so for a *light* feature — at most
    ``max_summary`` stored values over all shards — every local sketch and
    the merged one are the sorted values at weight 1: what they would
    answer, and what they would weigh on the wire, follows from one sort
    (:func:`_light_candidates`).  Only the heavy features are sketched.
    """
    columns = [shard.to_csc() for shard in raw_shards]
    totals = np.sum([csc.col_lengths() for csc in columns], axis=0)
    light = totals <= MergingSketch(eps=SKETCH_EPS).max_summary
    cuts = _light_candidates(columns, light, num_candidates)
    sketch_bytes = 16 * int(totals[light].sum())
    for j in np.flatnonzero(~light):
        merged: Optional[MergingSketch] = None
        for csc in columns:
            _, vals = csc.col(j)
            if vals.size == 0:
                continue
            local = MergingSketch(eps=SKETCH_EPS)
            local.update(vals)
            sketch_bytes += local.serialized_nbytes
            merged = local if merged is None else merged.merge(local)
        cuts[j] = propose_candidates(merged, num_candidates)
    return cuts, sketch_bytes


def _light_candidates(
    columns: List[CSCMatrix], light: np.ndarray, num_candidates: int
) -> List[np.ndarray]:
    """What :func:`propose_candidates` returns for every ``light`` feature
    (an empty array for the others), from one sort of their values.

    With ``n`` points of weight 1 the sketch's cumulative weights are
    ``1..n``, so its answer to ``p`` is the sorted value at rank
    ``ceil(p * n) - 1``.
    """
    if num_candidates < 1:
        raise ValueError(
            f"num_candidates must be >= 1, got {num_candidates}"
        )
    features = np.concatenate([csc.col_of_entries() for csc in columns])
    values = np.concatenate([csc.values for csc in columns])
    kept = light[features]
    features = features[kept]
    values = values[kept].astype(np.float64, copy=False)
    values = values[np.lexsort((values, features))]
    counts = np.bincount(features, minlength=light.size)
    present = np.flatnonzero(counts)
    size = counts[present][:, None]
    first = (np.cumsum(counts) - counts)[present][:, None]

    probs = np.arange(1, num_candidates) / num_candidates
    ranks = np.ceil(probs * size.astype(np.float64)).astype(np.int64) - 1
    picked = values[first + np.minimum(ranks, size - 1)]
    pieces = distinct_cuts_below(picked, values[first + size - 1])

    cuts = [np.empty(0, dtype=np.float64)] * light.size
    for j, piece in zip(present.tolist(), pieces):
        cuts[j] = piece
    return cuts


def _account_repartition(
    report: TransformReport,
    net: SimulatedNetwork,
    total_pairs: int,
    total_rows: int,
    groups: List[np.ndarray],
    num_candidates: int,
    num_workers: int,
) -> None:
    """Simulated cost of the all-to-all shuffle under each encoding of
    ``total_pairs`` binned pairs in ``total_rows`` instances."""
    # A fraction (W-1)/W of every worker's pairs leaves the machine.
    wire_fraction = (num_workers - 1) / num_workers if num_workers else 0.0
    mean_group = max(
        int(np.mean([g.size for g in groups])) if groups else 1, 1
    )
    pair_bytes_compressed = compressed_pair_bytes(mean_group,
                                                  num_candidates)
    encodings = {
        "naive": (NAIVE_PAIR_BYTES, total_rows * num_workers),
        "compressed": (pair_bytes_compressed, total_rows * num_workers),
        "blockified": (pair_bytes_compressed, num_workers * num_workers),
    }
    report.compression_ratio = NAIVE_PAIR_BYTES / pair_bytes_compressed
    for name, (pair_bytes, num_objects) in encodings.items():
        wire_bytes = int(total_pairs * pair_bytes * wire_fraction)
        transfer = wire_bytes / num_workers / net.model.bytes_per_second
        serialization = (
            num_objects / num_workers * SERIALIZATION_SECONDS_PER_OBJECT
        )
        report.repartition_bytes[name] = wire_bytes
        report.repartition_seconds[name] = transfer + serialization
    net.record("repartition", report.repartition_bytes["blockified"],
               report.repartition_seconds["blockified"])
