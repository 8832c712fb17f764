"""Indexes between tree nodes and training instances (Section 3.2.1).

The paper identifies three index structures:

* **node-to-instance** (:class:`NodeToInstanceIndex`) — tree node to the
  rows currently on it.  Used by the row-store quadrants (QD2/QD4); enables
  histogram subtraction because a node's rows are directly available.
* **instance-to-node** — row to tree node.  :class:`NodeToInstanceIndex`
  maintains both directions (the forward array *is* the instance-to-node
  index), so QD1's column kernel reads ``node_of_instance`` straight from
  the same object.
* **column-wise node-to-instance** — one index per feature column; lives in
  :class:`repro.core.histogram.ColumnwiseIndex` next to its kernel.

The node-to-instance direction is one row-partition array per worker, as
in scikit-learn's histogram GBDT: every tracked row appears once, grouped
by node, and each node owns a ``[start, stop)`` slice of it.  A layer's
splits are one stable partition of the split nodes' slices, ``O(rows)``
per layer, matching the node splitting complexity of Section 3.2.4.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


class NodeToInstanceIndex:
    """Bidirectional node/instance index over one worker's rows.

    ``node_of_instance[i]`` is the tree-node id of local row ``i`` (the
    instance-to-node direction).  ``partition`` holds the tracked rows
    grouped by node: node ``n`` owns ``partition[start:stop]``, its rows
    ascending (the node-to-instance direction, read with
    :meth:`rows_of`).  Row ids here are *local* to the shard.
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
            self.partition = np.arange(num_instances, dtype=np.int64)
        else:
            self.partition = np.unique(np.asarray(rows, dtype=np.int64))
            if self.partition.size and (
                    self.partition[0] < 0
                    or self.partition[-1] >= num_instances):
                raise ValueError("sample rows out of range")
            self.node_of_instance = np.full(num_instances, -1,
                                            dtype=np.int32)
            self.node_of_instance[self.partition] = root
        self._bounds: Dict[int, Tuple[int, int]] = {
            root: (0, self.partition.size)}
        self.updates = 0  # instances moved, for cost assertions

    @classmethod
    def from_assignment(cls,
                        node_of_instance: np.ndarray
                        ) -> "NodeToInstanceIndex":
        """Rebuild an index from a saved instance-to-node assignment.

        This is the checkpoint-restore path: a crashed worker's index is
        reconstructed from the ``node_of_instance`` array captured in a
        :class:`~repro.systems.executor.TreeCheckpoint`.  Rows carrying
        ``-1`` (untracked) stay untracked.
        """
        assignment = np.asarray(node_of_instance, dtype=np.int32)
        index = cls(0)
        index.num_instances = assignment.size
        index.node_of_instance = assignment.copy()
        # a stable sort groups the rows by node, ascending within each
        index.partition = np.argsort(assignment, kind="stable")
        nodes, starts = np.unique(assignment[index.partition],
                                  return_index=True)
        stops = np.append(starts[1:], assignment.size)
        index._bounds = {
            int(node): (int(start), int(stop))
            for node, start, stop in zip(nodes, starts, stops) if node >= 0
        }
        return index

    # -- queries -------------------------------------------------------------

    def rows_of(self, node: int) -> np.ndarray:
        """Local rows currently on ``node`` (empty if none): a view of
        :attr:`partition`, valid until the node is split."""
        start, stop = self._bounds.get(node, (0, 0))
        return self.partition[start:stop]

    def rows_of_nodes(self, nodes: Sequence[int]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of ``nodes``, concatenated in that order, and the
        ``len(nodes) + 1`` offsets delimiting each node's run.  Nodes
        whose slices adjoin in that order (a layer without leaves
        between its nodes) come back as one view of :attr:`partition`."""
        spans = [self._bounds.get(node, (0, 0)) for node in nodes]
        offsets = np.array(
            [0, *accumulate(stop - start for start, stop in spans)])
        if _adjoin(spans):
            first = spans[0][0] if spans else 0
            return self.partition[first:first + offsets[-1]], offsets
        return np.concatenate(
            [self.partition[start:stop] for start, stop in spans]), offsets

    def count_of(self, node: int) -> int:
        start, stop = self._bounds.get(node, (0, 0))
        return stop - start

    def active_nodes(self) -> List[int]:
        return sorted(self._bounds)

    def node_totals(self, nodes: Sequence[int], grad: np.ndarray,
                    hess: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Total gradient and hessian vectors of each of ``nodes``, as
        two ``(len(nodes), C)`` arrays: one gather of all their rows,
        then each node's run summed as a slice (the same floats as
        summing the node's own gather)."""
        rows, offsets = self.rows_of_nodes(nodes)
        spans = list(zip(offsets[:-1], offsets[1:]))

        def sums(values: np.ndarray) -> np.ndarray:
            values = values[rows]
            return np.array([values[start:stop].sum(axis=0)
                             for start, stop in spans]
                            ).reshape(len(spans), values.shape[1])

        return sums(grad), sums(hess)

    def slot_of_instance(self, active_nodes: Sequence[int]) -> np.ndarray:
        """Dense slot id per row for the layer-wise column kernel (QD1).

        Rows on nodes outside ``active_nodes`` get slot ``-1``.
        """
        slots = np.full(self.num_instances, -1, dtype=np.int64)
        for slot, node in enumerate(active_nodes):
            slots[self.rows_of(node)] = slot
        return slots

    # -- updates -------------------------------------------------------------

    def split_nodes(self, placements: Mapping[int, np.ndarray]) -> None:
        """Move the rows of every node in ``placements`` to its children.

        ``placements[n]`` is a boolean ``go_left`` array aligned with
        ``rows_of(n)`` — in the vertical quadrants exactly the decoded
        placement bitmap broadcast by the split owner (Section 4.2.2).
        Rows going left move to child ``2n + 1``, the others to
        ``2n + 2``.  The whole layer is one stable partition: each
        node's slice becomes its left rows then its right rows, both in
        their old (ascending) order, and the children own the halves.
        """
        nodes = sorted(placements)
        spans = [self._bounds[node] for node in nodes]
        masks = [np.asarray(placements[node], dtype=bool) for node in nodes]
        for (start, stop), mask in zip(spans, masks):
            if mask.size != stop - start:
                raise ValueError(f"placement length {mask.size} != node "
                                 f"size {stop - start}")
        if not nodes:
            return
        rows, offsets = self.rows_of_nodes(nodes)
        # key 2i (left) or 2i + 1 (right) orders node i's left rows, then
        # its right rows, after node i - 1's; the stable sort keeps each
        # side ascending (a branch-free radix sort on these small keys)
        key = np.repeat(np.arange(0, 2 * len(nodes), 2,
                                  dtype=np.min_scalar_type(2 * len(nodes))),
                        np.diff(offsets))
        key += ~np.concatenate(masks)
        moved = rows[np.argsort(key, kind="stable")]
        # key 2i + side sends a row to child 2 * nodes[i] + 1 + side
        children = np.repeat(2 * np.asarray(nodes, dtype=np.int32) + 1, 2)
        children[1::2] += 1
        self.node_of_instance[rows] = children[key]
        lefts = np.bincount(key, minlength=2 * len(nodes))[::2].tolist()
        for node, (start, stop), lo, hi, count in zip(
                nodes, spans, offsets, offsets[1:], lefts):
            self.partition[start:stop] = moved[lo:hi]
            del self._bounds[node]
            self._bounds[2 * node + 1] = (start, start + count)
            self._bounds[2 * node + 2] = (start + count, stop)
        self.updates += rows.size

    def retire_node(self, node: int) -> None:
        """Drop a node that became a leaf (its rows need no more tracking
        for histogram purposes, but ``node_of_instance`` keeps the leaf id
        so predictions can be read off the index)."""
        self._bounds.pop(node, None)


def _adjoin(spans: Sequence[Tuple[int, int]]) -> bool:
    """Whether each ``(start, stop)`` span begins where the previous one
    stops."""
    return all(prev[1] == span[0] for prev, span in zip(spans, spans[1:]))
