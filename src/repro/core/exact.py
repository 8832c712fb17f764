"""Exact greedy split finding and tree growth.

The histogram algorithm (Section 2.1.2) considers only ``q`` candidate
splits per feature; the classic *exact greedy* algorithm (XGBoost's
``tree_method=exact``) enumerates every distinct feature value.  It is
the accuracy ceiling the histogram approximation is judged against — the
``q``-sweep ablation bench quantifies the gap that motivates the paper's
``q = 20`` default.

The implementation presorts each feature column by value once per
dataset, then evaluates all split boundaries of a node with vectorized
prefix sums, handling missing values with the same default-direction
enumeration as :func:`repro.core.split.find_best_split`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..config import TrainConfig
from ..data.dataset import BinnedDataset, Dataset
from ..data.matrix import CSCMatrix
from .gbdt import GBDT, node_stats
from .indexing import NodeToInstanceIndex
from .split import SplitInfo, accepted_split, leaf_weight, node_score
from .tree import Tree, layer_nodes


class PresortedColumns:
    """Per-feature ``(rows, values)`` arrays sorted by value.

    Built once per dataset; node-level split search filters each sorted
    column by the instance-to-node index, preserving value order.
    """

    def __init__(self, csc: CSCMatrix) -> None:
        self.num_features = csc.num_cols
        self.rows: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        for j in range(csc.num_cols):
            col_rows, col_vals = csc.col(j)
            order = np.argsort(col_vals, kind="stable")
            self.rows.append(col_rows[order].astype(np.int64))
            self.values.append(np.ascontiguousarray(col_vals[order]))

    def column(self, feature: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.rows[feature], self.values[feature]

    def threshold(self, split: SplitInfo, node_of_instance: np.ndarray,
                  node: int) -> float:
        """Raw cut of an exact split of ``node``: the ``split.bin``-th
        smallest present value of ``split.feature`` on the node."""
        rows, values = self.column(split.feature)
        return float(values[node_of_instance[rows] == node][split.bin])


def exact_best_split(
    presorted: PresortedColumns,
    node_of_instance: np.ndarray,
    node: int,
    grad: np.ndarray,
    hess: np.ndarray,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
) -> Optional[SplitInfo]:
    """Best exact split of one node over all features.

    ``split.bin`` is the boundary's position among the node's sorted
    present values (:meth:`PresortedColumns.threshold` turns it into the
    raw cut).  ``None`` when no boundary has positive gain.
    """
    best: Optional[SplitInfo] = None
    parent = node_score(np.asarray(grad_total), np.asarray(hess_total),
                        reg_lambda)
    for feature in range(presorted.num_features):
        col_rows, col_vals = presorted.column(feature)
        if col_rows.size == 0:
            continue
        keep = node_of_instance[col_rows] == node
        rows = col_rows[keep]
        if rows.size < 1:
            continue
        vals = col_vals[keep]
        g_prefix = np.cumsum(grad[rows], axis=0)
        h_prefix = np.cumsum(hess[rows], axis=0)
        # split boundaries sit between distinct consecutive values
        boundaries = np.flatnonzero(vals[1:] > vals[:-1])
        if boundaries.size == 0:
            continue
        gl_present = g_prefix[boundaries]
        hl_present = h_prefix[boundaries]
        missing_g = grad_total - g_prefix[-1]
        missing_h = hess_total - h_prefix[-1]
        for default_left, (gl, hl) in (
            (False, (gl_present, hl_present)),
            (True, (gl_present + missing_g, hl_present + missing_h)),
        ):
            gr = grad_total - gl
            hr = hess_total - hl
            gains = 0.5 * (
                node_score(gl, hl, reg_lambda)
                + node_score(gr, hr, reg_lambda) - parent
            ) - reg_gamma
            hl_sum = hl.sum(axis=-1)
            hr_sum = hr.sum(axis=-1)
            gains[(hl_sum <= 0.0) | (hr_sum <= 0.0)] = -np.inf
            idx = int(np.argmax(gains))
            gain = float(gains[idx])
            if not np.isfinite(gain) or gain <= 0.0:
                continue
            candidate = SplitInfo(
                feature=feature, bin=int(boundaries[idx]),
                default_left=default_left, gain=gain,
            )
            if candidate.better_than(best):
                best = candidate
    return best


def grow_tree_exact(
    cfg: TrainConfig,
    dataset: Dataset,
    presorted: PresortedColumns,
    grad: np.ndarray,
    hess: np.ndarray,
) -> Tuple[Tree, np.ndarray]:
    """Layer-wise growth with exact greedy split finding."""
    tree = Tree(cfg.num_layers, grad.shape[1])
    index = NodeToInstanceIndex(dataset.num_instances)
    stats = node_stats(index, [0], grad, hess)
    active: Set[int] = {0}
    csc = dataset.csc()

    for layer in range(cfg.num_layers - 1):
        nodes = [n for n in layer_nodes(layer) if n in active]
        if not nodes:
            break
        for node in nodes:
            split, = accepted_split(
                cfg, [index.count_of(node)],
                lambda _: [exact_best_split(
                    presorted, index.node_of_instance, node, grad, hess,
                    *stats[node], cfg.reg_lambda, cfg.reg_gamma)])
            if split is None:
                tree.set_leaf(node, leaf_weight(*stats[node],
                                                cfg.reg_lambda))
                active.discard(node)
                index.retire_node(node)
                continue
            threshold = presorted.threshold(split, index.node_of_instance,
                                            node)
            tree.set_split(node, split, threshold)
            node_rows = index.rows_of(node)
            go_left = np.full(node_rows.size, split.default_left,
                              dtype=bool)
            col_rows, col_vals = csc.col(split.feature)
            pos = np.searchsorted(node_rows, col_rows)
            pos = np.minimum(pos, max(node_rows.size - 1, 0))
            present = node_rows[pos] == col_rows
            go_left[pos[present]] = col_vals[present] <= threshold
            index.split_nodes({node: go_left})
            left, right = 2 * node + 1, 2 * node + 2
            stats.update(node_stats(index, [left, right], grad, hess))
            active.discard(node)
            active.update((left, right))
    for node in sorted(active):
        tree.set_leaf(node, leaf_weight(*stats[node], cfg.reg_lambda))
        index.retire_node(node)
    return tree, index.node_of_instance.copy()


class ExactGBDT(GBDT):
    """Single-process GBDT with exact greedy split finding.

    The accuracy ceiling against which the histogram trainers (oracle
    and distributed quadrants) are compared; no binning, no ``q``.
    Boosting, early stopping and prediction are :class:`GBDT`'s; only
    how a tree is grown differs.  Row/feature sampling and leaf-wise
    growth are histogram-trainer features and are refused.
    """

    def __init__(self, config: TrainConfig) -> None:
        if config.uses_sampling:
            raise ValueError(
                "exact greedy training searches every row and feature; "
                "subsample/colsample are histogram-trainer features"
            )
        if config.growth != "layerwise":
            raise ValueError(
                "exact greedy training grows trees layer-wise; leaf-wise "
                "growth is a histogram-trainer feature"
            )
        super().__init__(config)

    def _tree_grower(self, train: Dataset,
                     binned: Optional[BinnedDataset]):
        """Exact trees grow on raw values, so ``binned`` is unused."""
        presorted = PresortedColumns(train.csc())
        return lambda grad, hess: grow_tree_exact(
            self.config, train, presorted, grad, hess)
