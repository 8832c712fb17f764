"""The node-to-instance index as it stood before the row-partition array:
a ``dict`` of per-node row arrays, every split a boolean gather into two
fresh arrays.

Kept as the oracle :class:`repro.core.indexing.NodeToInstanceIndex` is
compared against — same rows per node (ascending), same
``node_of_instance``, same ``updates``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


class ReferenceIndex:
    """Bidirectional node/instance index over one worker's rows.

    ``node_of_instance[i]`` is the tree-node id of local row ``i`` (the
    instance-to-node direction); ``rows_of(node)`` returns the rows of a
    node (the node-to-instance direction), kept as cached contiguous
    arrays.  Row ids here are *local* to the shard.
    """

    def __init__(self, num_instances: int, root: int = 0,
                 rows: np.ndarray = None) -> None:
        """``rows`` restricts the root to a subset (row subsampling);
        excluded rows carry node id ``-1`` and are never tracked."""
        if num_instances < 0:
            raise ValueError("num_instances must be >= 0")
        self.num_instances = num_instances
        if rows is None:
            self.node_of_instance = np.full(num_instances, root,
                                            dtype=np.int32)
            root_rows = np.arange(num_instances, dtype=np.int64)
        else:
            root_rows = np.unique(np.asarray(rows, dtype=np.int64))
            if root_rows.size and (root_rows[0] < 0
                                   or root_rows[-1] >= num_instances):
                raise ValueError("sample rows out of range")
            self.node_of_instance = np.full(num_instances, -1,
                                            dtype=np.int32)
            self.node_of_instance[root_rows] = root
        self._rows: Dict[int, np.ndarray] = {root: root_rows}
        self.updates = 0  # instances moved, for cost assertions

    @classmethod
    def from_assignment(cls,
                        node_of_instance: np.ndarray
                        ) -> "ReferenceIndex":
        """Rebuild an index from a saved instance-to-node assignment.

        This is the checkpoint-restore path: a crashed worker's index is
        reconstructed from the ``node_of_instance`` array captured in a
        :class:`~repro.systems.executor.TreeCheckpoint`.  Rows carrying
        ``-1`` (untracked) stay untracked.
        """
        assignment = np.asarray(node_of_instance, dtype=np.int32)
        index = cls(assignment.size)
        index.node_of_instance = assignment.copy()
        order = np.argsort(assignment, kind="stable")
        nodes, starts = np.unique(assignment[order], return_index=True)
        bounds = np.append(starts, assignment.size)
        index._rows = {
            int(node): order[bounds[i]:bounds[i + 1]].astype(np.int64)
            for i, node in enumerate(nodes) if node >= 0
        }
        return index

    # -- queries -------------------------------------------------------------

    def rows_of(self, node: int) -> np.ndarray:
        """Local rows currently on ``node`` (empty if none)."""
        rows = self._rows.get(node)
        if rows is None:
            return np.empty(0, dtype=np.int64)
        return rows

    def count_of(self, node: int) -> int:
        return int(self.rows_of(node).size)

    def active_nodes(self) -> List[int]:
        return sorted(self._rows)

    def slot_of_instance(self, active_nodes: Sequence[int]) -> np.ndarray:
        """Dense slot id per row for the layer-wise column kernel (QD1).

        Rows on nodes outside ``active_nodes`` get slot ``-1``.
        """
        if len(active_nodes) == 0:
            return np.full(self.num_instances, -1, dtype=np.int64)
        max_node = max(int(n) for n in active_nodes)
        slot_map = np.full(max_node + 2, -1, dtype=np.int64)
        for slot, node in enumerate(active_nodes):
            slot_map[node] = slot
        clipped = np.minimum(self.node_of_instance, max_node + 1)
        return slot_map[clipped]

    # -- updates -------------------------------------------------------------

    def split_node(
        self,
        node: int,
        go_left: np.ndarray,
        left_child: int,
        right_child: int,
    ) -> None:
        """Move the rows of ``node`` to its children.

        ``go_left`` is a boolean array aligned with ``rows_of(node)`` — in
        the vertical quadrants it is exactly the decoded placement bitmap
        broadcast by the split owner (Section 4.2.2).
        """
        rows = self.rows_of(node)
        go_left = np.asarray(go_left, dtype=bool)
        if go_left.size != rows.size:
            raise ValueError(
                f"placement length {go_left.size} != node size {rows.size}"
            )
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        self.node_of_instance[left_rows] = left_child
        self.node_of_instance[right_rows] = right_child
        del self._rows[node]
        self._rows[left_child] = left_rows
        self._rows[right_child] = right_rows
        self.updates += rows.size

    def retire_node(self, node: int) -> None:
        """Drop a node that became a leaf (its rows need no more tracking
        for histogram purposes, but ``node_of_instance`` keeps the leaf id
        so predictions can be read off the index)."""
        self._rows.pop(node, None)
