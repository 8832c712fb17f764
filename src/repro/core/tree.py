"""Decision-tree structure shared by every trainer.

Trees are grown layer-wise to at most ``L`` layers (the paper's ``L``) and
stored in heap order: node ``i`` has children ``2i + 1`` and ``2i + 2``.
A :class:`Tree` is a passive record — trainers decide splits; the tree only
stores them and evaluates predictions on raw feature matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..data.matrix import CSCMatrix
from .split import SplitInfo


@dataclass
class TreeNode:
    """One node: either an internal split or a leaf with a weight vector."""

    node_id: int
    split: Optional[SplitInfo] = None
    threshold: float = 0.0   # raw-value cut corresponding to split.bin
    weight: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def left_child(self) -> int:
        return 2 * self.node_id + 1

    @property
    def right_child(self) -> int:
        return 2 * self.node_id + 2


def layer_nodes(layer: int) -> range:
    """Node ids of one 0-based layer."""
    return range(2 ** layer - 1, 2 ** (layer + 1) - 1)


class Tree:
    """A heap-ordered decision tree with vector-valued leaves."""

    def __init__(self, num_layers: int, gradient_dim: int) -> None:
        if num_layers < 2:
            raise ValueError(f"num_layers must be >= 2, got {num_layers}")
        self.num_layers = num_layers
        self.gradient_dim = gradient_dim
        self.nodes: Dict[int, TreeNode] = {}

    # -- construction --------------------------------------------------------

    def set_split(self, node_id: int, split: SplitInfo,
                  threshold: float) -> None:
        if node_id in self.nodes and not self.nodes[node_id].is_leaf:
            raise ValueError(f"node {node_id} already split")
        self.nodes[node_id] = TreeNode(node_id, split=split,
                                       threshold=float(threshold))

    def set_leaf(self, node_id: int, weight: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=np.float64).reshape(-1)
        if weight.size != self.gradient_dim:
            raise ValueError(
                f"leaf weight dim {weight.size} != {self.gradient_dim}"
            )
        self.nodes[node_id] = TreeNode(node_id, weight=weight)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    @property
    def num_leaves(self) -> int:
        return sum(1 for n in self.nodes.values() if n.is_leaf)

    @property
    def num_splits(self) -> int:
        return sum(1 for n in self.nodes.values() if not n.is_leaf)

    def internal_nodes(self) -> List[TreeNode]:
        return [n for n in self.nodes.values() if not n.is_leaf]

    # -- prediction ------------------------------------------------------------

    def predict(self, features: CSCMatrix) -> np.ndarray:
        """Leaf weights of every instance, shape ``(N, gradient_dim)``.

        ``features`` holds *raw* values (not bin indexes); internal nodes
        route ``value <= threshold`` left, missing values follow the
        split's default direction.
        """
        return leaf_matrix(self, self.assign_leaves(features))

    def assign_leaves(self, features: CSCMatrix) -> np.ndarray:
        """Leaf node id of every instance."""
        num = features.num_rows
        position = np.zeros(num, dtype=np.int64)
        for layer in range(self.num_layers - 1):
            moved = False
            for node_id in layer_nodes(layer):
                node = self.nodes.get(node_id)
                if node is None or node.is_leaf:
                    continue
                moved = True
                on_node = position == node_id
                split = node.split
                go_left = np.full(num, split.default_left)
                col_rows, col_vals = features.col(split.feature)
                present_left = col_vals <= node.threshold
                go_left[col_rows] = present_left
                left = on_node & go_left
                right = on_node & ~go_left
                position[left] = node.left_child
                position[right] = node.right_child
            if not moved:
                break
        return position


def leaf_matrix(tree: Tree, leaf_of_instance: np.ndarray) -> np.ndarray:
    """Per-instance leaf weights, shape ``(N, gradient_dim)``, from each
    instance's leaf id (routed, or the training-time assignment).

    A lookup table indexed by leaf id replaces per-leaf boolean masks
    (O(leaves·N)) with one gather.  Rows outside the tree's sample carry
    leaf id ``-1``, which lands on the table's trailing all-zero row.
    """
    max_node = max(tree.nodes) if tree.nodes else 0
    lut = np.zeros((max_node + 2, tree.gradient_dim))
    for node_id, node in tree.nodes.items():
        if node.is_leaf:
            lut[node_id] = node.weight
    return lut[leaf_of_instance]


class TreeEnsemble:
    """The boosted model: a list of trees plus the learning rate.

    ``objective`` and ``num_classes`` are optional serving metadata (the
    same fields :func:`repro.core.serialize.ensemble_to_dict` writes);
    trainers that know the objective set them so a saved model carries
    enough information to pick the right prediction transform without
    the caller re-stating it.  ``None`` means "unknown" — consumers fall
    back on ``gradient_dim``.
    """

    def __init__(self, gradient_dim: int, learning_rate: float,
                 objective: Optional[str] = None,
                 num_classes: Optional[int] = None) -> None:
        self.gradient_dim = gradient_dim
        self.learning_rate = learning_rate
        self.objective = objective
        self.num_classes = num_classes
        self.trees: List[Tree] = []

    def append(self, tree: Tree) -> None:
        if tree.gradient_dim != self.gradient_dim:
            raise ValueError("tree gradient_dim does not match ensemble")
        self.trees.append(tree)

    def __len__(self) -> int:
        return len(self.trees)

    def raw_scores(self, features: CSCMatrix,
                   num_trees: Optional[int] = None) -> np.ndarray:
        """Summed (shrunken) raw scores of the first ``num_trees`` trees."""
        use = self.trees if num_trees is None else self.trees[:num_trees]
        scores = np.zeros((features.num_rows, self.gradient_dim),
                          dtype=np.float64)
        for tree in use:
            scores += self.learning_rate * tree.predict(features)
        return scores
