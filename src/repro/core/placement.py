"""Instance placement after node splitting (Section 2.2.1 / 4.2.2).

Once a layer's best splits are known, every instance on a split node moves
to the left or right child.  This module computes, for each split node, a
boolean ``go_left`` array aligned with the node's row list.

The row-store variant handles a whole layer in one pass: every row of
every split node bisects its own CSR row for the node's split feature,
all rows in lockstep, so node splitting costs ``O(rows * log(row nnz))``
per layer — the Section 3.2.4 bound — and ``O(rows)`` on a full shard
(every row stores all D features), whose entries are addressed directly.
The column-store variant reads the split feature's column per node.  The
vertical quadrants encode the result as bitmaps
(:mod:`repro.cluster.bitmap`) before broadcasting it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.matrix import CSCMatrix, CSRMatrix
from .indexing import NodeToInstanceIndex
from .split import SplitInfo


def layer_placements_rowstore(
    shard: CSRMatrix,
    index: NodeToInstanceIndex,
    splits: Dict[int, SplitInfo],
    feature_offset: int = 0,
) -> Dict[int, np.ndarray]:
    """``go_left`` per split node from a binned row-store shard.

    ``splits`` maps node id to its chosen split with *global* feature ids;
    ``feature_offset`` is the global id of the shard's first column (zero
    for horizontal shards, the group offset for vertical ones).  Nodes
    whose split feature lies outside the shard are skipped — in vertical
    partitioning only the owner worker can compute a node's placement.
    """
    nodes = sorted(
        node for node, split in splits.items()
        if 0 <= split.feature - feature_offset < shard.num_cols
    )
    if not nodes:
        return {}
    rows, offsets = index.rows_of_nodes(nodes)
    seg = np.repeat(np.arange(len(nodes)), np.diff(offsets))
    chosen = [splits[node] for node in nodes]
    feature = np.array([s.feature - feature_offset for s in chosen])[seg]
    bins = np.array([s.bin for s in chosen])[seg]
    if shard.nnz == shard.num_rows * shard.num_cols:
        # a full shard stores feature f of row r at entry r * D + f
        go_left = shard.values.take(rows * shard.num_cols + feature) <= bins
    elif shard.nnz:
        columns = shard.indices
        # A row's column ids ascend and are distinct in [0, D), so
        # feature f can only sit among entries f - (D - len) .. f of it:
        # a dense row pins it to one entry, a sparse row leaves at most
        # its own length.  ``lo`` / ``size`` bound those candidates.
        length = shard.row_lengths()[rows]
        skip = np.maximum(feature - (shard.num_cols - length), 0)
        lo = shard.indptr[rows] + skip
        size = np.minimum(length, feature + 1) - skip
        # branchless search, all rows in lockstep: ``lo`` moves to the
        # last candidate <= the feature (or stays on the first) while
        # ``size`` halves; mode="clip" only guards empty trailing rows
        for _ in range(int(size.max(initial=0) - 1).bit_length()):
            half = size >> 1
            probe = lo + half
            lo = np.where(columns.take(probe, mode="clip") <= feature,
                          probe, lo)
            size -= half
        present = (length > 0) & (columns.take(lo, mode="clip") == feature)
        go_left = np.where(present,
                           shard.values.take(lo, mode="clip") <= bins,
                           np.array([s.default_left for s in chosen])[seg])
    else:
        go_left = np.array([s.default_left for s in chosen])[seg]
    return {node: go_left[offsets[i]:offsets[i + 1]]
            for i, node in enumerate(nodes)}


def layer_placements_colstore(
    shard: CSCMatrix,
    index: NodeToInstanceIndex,
    splits: Dict[int, SplitInfo],
    feature_offset: int = 0,
) -> Dict[int, np.ndarray]:
    """Column-store variant: slice the split feature's column directly."""
    placements: Dict[int, np.ndarray] = {}
    for node, split in splits.items():
        local_fid = split.feature - feature_offset
        if not 0 <= local_fid < shard.num_cols:
            continue
        node_rows = index.rows_of(node)
        go_left = np.full(node_rows.size, split.default_left, dtype=bool)
        col_rows, col_bins = shard.col(local_fid)
        pos = np.searchsorted(node_rows, col_rows)
        pos = np.minimum(pos, max(node_rows.size - 1, 0))
        if node_rows.size:
            present = node_rows[pos] == col_rows
            go_left[pos[present]] = col_bins[present] <= split.bin
        placements[node] = go_left
    return placements
