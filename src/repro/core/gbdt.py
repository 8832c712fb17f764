"""Single-process reference GBDT trainer.

This is the oracle every distributed quadrant is validated against: it
grows trees layer-wise with the histogram-based algorithm of Section 2.1.2
(including histogram subtraction) using the row-store + node-to-instance
kernel.  The distributed systems in :mod:`repro.systems` must produce
identical trees on the same binned dataset — only their communication and
data-management behaviour differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import TrainConfig
from ..data.dataset import BinnedDataset, Dataset, bin_dataset
from .histogram import (
    Histogram,
    HistogramBuilder,
    default_builder,
    subtraction_schedule,
)
from .indexing import NodeToInstanceIndex
from .loss import Loss, make_loss
from .metrics import auc, multiclass_accuracy, rmse
from .placement import layer_placements_rowstore
from .split import SplitInfo, decide_split, leaf_weight
from .tree import Tree, TreeEnsemble, layer_nodes, leaf_matrix


@dataclass
class EvalRecord:
    """Validation metrics after one boosting round."""

    tree_index: int
    metric_name: str
    metric_value: float
    train_loss: float


@dataclass
class TrainResult:
    """Everything ``fit`` produces: the model plus its learning curve.

    ``best_iteration`` is set when early stopping triggers: the tree
    index with the best validation metric.
    """

    ensemble: TreeEnsemble
    evals: List[EvalRecord] = field(default_factory=list)
    best_iteration: Optional[int] = None


#: metrics where larger is better; others are minimized
_MAXIMIZE_METRICS = frozenset({"auc", "accuracy"})


def metric_improved(name: str, candidate: float, incumbent: float) -> bool:
    """Whether ``candidate`` beats ``incumbent`` for metric ``name``."""
    if name in _MAXIMIZE_METRICS:
        return candidate > incumbent
    return candidate < incumbent


class GBDT:
    """Reference (single-process) gradient boosted decision trees."""

    def __init__(self, config: TrainConfig) -> None:
        self.config = config
        # one kernel engine per trainer; config.backend selects the
        # scatter kernel implementation
        self.builder = HistogramBuilder(backend=config.backend or None)
        self.builder.constant_hessian = make_loss(
            config.objective, config.num_classes).constant_hessian

    # -- public API ----------------------------------------------------------

    def fit(
        self,
        train: Dataset,
        valid: Optional[Dataset] = None,
        binned: Optional[BinnedDataset] = None,
        early_stopping_rounds: Optional[int] = None,
    ) -> TrainResult:
        """Train ``config.num_trees`` trees.

        ``binned`` may be supplied to reuse a pre-quantized dataset (the
        distributed systems and the oracle must share one binning for
        their trees to be comparable).  With ``early_stopping_rounds``
        (requires ``valid``), training stops after that many rounds
        without validation improvement and ``best_iteration`` is set.
        """
        cfg = self.config
        if early_stopping_rounds is not None:
            if valid is None:
                raise ValueError(
                    "early stopping requires a validation dataset"
                )
            if early_stopping_rounds < 1:
                raise ValueError("early_stopping_rounds must be >= 1")
        grow = self._tree_grower(train, binned)
        loss = make_loss(cfg.objective, cfg.num_classes)
        ensemble = TreeEnsemble(loss.num_outputs, cfg.learning_rate,
                                objective=cfg.objective,
                                num_classes=cfg.num_classes)
        result = TrainResult(ensemble)
        scores = loss.init_scores(train.num_instances)
        valid_scores = (
            loss.init_scores(valid.num_instances) if valid is not None
            else None
        )
        best_metric: Optional[float] = None
        for t in range(cfg.num_trees):
            grad, hess = loss.gradients(train.labels, scores)
            tree, leaf_of_instance = grow(grad, hess)
            ensemble.append(tree)
            if leaf_of_instance is None:
                # out-of-sample rows must be routed through the tree
                scores += cfg.learning_rate * tree.predict(train.csc())
            else:
                scores += cfg.learning_rate * leaf_matrix(
                    tree, leaf_of_instance)
            if valid is not None:
                valid_scores += cfg.learning_rate * tree.predict(valid.csc())
                record = evaluate(
                    loss, valid, valid_scores, t,
                    train_loss=loss.loss(train.labels, scores),
                )
                result.evals.append(record)
                if best_metric is None or metric_improved(
                    record.metric_name, record.metric_value, best_metric
                ):
                    best_metric = record.metric_value
                    result.best_iteration = t
                elif (
                    early_stopping_rounds is not None
                    and t - result.best_iteration >= early_stopping_rounds
                ):
                    break
        return result

    def predict(self, ensemble: TreeEnsemble, dataset: Dataset) -> np.ndarray:
        """Predictions in the objective's natural space."""
        loss = make_loss(self.config.objective, self.config.num_classes)
        return loss.predict(ensemble.raw_scores(dataset.csc()))

    def _tree_grower(
        self, train: Dataset, binned: Optional[BinnedDataset],
    ) -> Callable[[np.ndarray, np.ndarray],
                  Tuple[Tree, Optional[np.ndarray]]]:
        """``grow(grad, hess) -> (tree, leaf ids)`` for one ``fit``.

        The only step subclasses change.  Leaf ids are ``None`` when a
        row sample leaves some training rows outside the tree.
        """
        cfg = self.config
        if binned is None:
            binned = bin_dataset(train, cfg.num_candidates)
        rng = np.random.default_rng(cfg.seed)

        def grow(grad, hess):
            sample_rows, feature_mask = _draw_samples(cfg, binned, rng)
            tree, leaf_of_instance = grow_tree(
                cfg, binned, grad, hess,
                sample_rows=sample_rows, feature_mask=feature_mask,
                builder=self.builder,
            )
            return tree, leaf_of_instance if sample_rows is None else None

        return grow


def _draw_samples(cfg: TrainConfig, binned: BinnedDataset,
                  rng: np.random.Generator):
    """Per-tree row sample and feature mask (None when sampling is off)."""
    sample_rows = None
    feature_mask = None
    if cfg.subsample < 1.0:
        count = max(int(round(cfg.subsample * binned.num_instances)), 2)
        sample_rows = np.sort(
            rng.choice(binned.num_instances, size=count, replace=False)
        )
    if cfg.colsample < 1.0:
        count = max(int(round(cfg.colsample * binned.num_features)), 1)
        chosen = rng.choice(binned.num_features, size=count,
                            replace=False)
        feature_mask = np.zeros(binned.num_features, dtype=bool)
        feature_mask[chosen] = True
    return sample_rows, feature_mask


def evaluate(
    loss: Loss,
    valid: Dataset,
    valid_scores: np.ndarray,
    tree_index: int,
    train_loss: float,
) -> EvalRecord:
    """Validation metric matching the paper's figures: AUC for binary
    tasks, accuracy for multi-class, RMSE for regression."""
    preds = loss.predict(valid_scores)
    if valid.task == "binary":
        name, value = "auc", auc(valid.labels, preds)
    elif valid.task == "multiclass":
        name, value = "accuracy", multiclass_accuracy(valid.labels, preds)
    else:
        name, value = "rmse", rmse(valid.labels, preds)
    return EvalRecord(tree_index, name, value, train_loss)


def grow_tree(
    cfg: TrainConfig,
    binned: BinnedDataset,
    grad: np.ndarray,
    hess: np.ndarray,
    sample_rows: Optional[np.ndarray] = None,
    feature_mask: Optional[np.ndarray] = None,
    builder: Optional[HistogramBuilder] = None,
) -> Tuple[Tree, np.ndarray]:
    """Grow one tree on the full binned dataset (oracle path).

    Dispatches on ``cfg.growth``: layer-wise (the paper's strategy) or
    leaf-wise best-first.  ``sample_rows`` / ``feature_mask`` implement
    per-tree stochastic GBDT (rows outside the sample get leaf id -1;
    masked-out features are never split on).  ``builder`` supplies the
    kernel engine (the process-wide default when omitted).  Returns the
    tree and each instance's final leaf id.
    """
    if builder is None:
        builder = default_builder()
    if cfg.growth == "leafwise":
        if sample_rows is not None or feature_mask is not None:
            raise ValueError(
                "sampling is only implemented for layer-wise growth"
            )
        return grow_tree_leafwise(cfg, binned, grad, hess, builder=builder)
    tree = Tree(cfg.num_layers, grad.shape[1])
    index = NodeToInstanceIndex(binned.num_instances, rows=sample_rows)
    stats = node_stats(index, [0], grad, hess)
    hist_store: Dict[int, Histogram] = {}
    active: Set[int] = {0}
    # masked-out features report a single bin, which admits no split
    bins = binned.bins_per_feature
    if feature_mask is not None:
        bins = np.where(feature_mask, bins, 1)

    for layer in range(cfg.num_layers - 1):
        nodes = [n for n in layer_nodes(layer) if n in active]
        if not nodes:
            break
        build_histograms_with_subtraction(
            binned, index, nodes, grad, hess, hist_store, builder=builder
        )
        splits: Dict[int, SplitInfo] = {}
        found = decide_split(cfg, [hist_store[n] for n in nodes],
                             [stats[n] for n in nodes],
                             [index.count_of(n) for n in nodes], bins)
        for node, split in zip(nodes, found):
            if split is None:
                tree.set_leaf(node, leaf_weight(*stats[node],
                                                cfg.reg_lambda))
                active.discard(node)
                index.retire_node(node)
                del hist_store[node]
            else:
                splits[node] = split
        for node, split in splits.items():
            tree.set_split(node, split,
                           binned.threshold_of(split.feature, split.bin))
        index.split_nodes(
            layer_placements_rowstore(binned.binned, index, splits))
        children = [c for n in sorted(splits) for c in (2 * n + 1, 2 * n + 2)]
        stats.update(node_stats(index, children, grad, hess))
        active.difference_update(splits)
        active.update(children)
    # Whatever is still active at the bottom becomes a leaf.
    for node in sorted(active):
        tree.set_leaf(node, leaf_weight(*stats[node], cfg.reg_lambda))
        index.retire_node(node)
    return tree, index.node_of_instance.copy()


def node_stats(index: NodeToInstanceIndex, nodes: List[int],
               grad: np.ndarray, hess: np.ndarray
               ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """``{node: (G, H)}`` for ``nodes``, from one gather of their rows."""
    return dict(zip(nodes, zip(*index.node_totals(nodes, grad, hess))))


def grow_tree_leafwise(
    cfg: TrainConfig,
    binned: BinnedDataset,
    grad: np.ndarray,
    hess: np.ndarray,
    builder: Optional[HistogramBuilder] = None,
) -> Tuple[Tree, np.ndarray]:
    """Best-first growth: always split the leaf with the highest gain.

    LightGBM's strategy; bounded by both ``cfg.num_layers`` (depth) and
    ``cfg.effective_max_leaves``.  Histogram subtraction still applies:
    after a split, the smaller child is built and the sibling derived
    from the retained parent histogram.
    """
    import heapq

    if builder is None:
        builder = default_builder()
    tree = Tree(cfg.num_layers, grad.shape[1])
    index = NodeToInstanceIndex(binned.num_instances)
    stats = node_stats(index, [0], grad, hess)
    hist_store: Dict[int, Histogram] = {}

    def candidate(node: int):
        """(neg-gain-ordered heap entry) or None if the node can't split."""
        max_layer_node = 2 ** (cfg.num_layers - 1) - 2
        if node > max_layer_node:  # already at the deepest split layer
            return None
        split, = decide_split(cfg, [hist_store[node]], [stats[node]],
                              [index.count_of(node)],
                              binned.bins_per_feature)
        if split is None:
            return None
        return (-split.gain, node, split)

    build_histograms_with_subtraction(binned, index, [0], grad, hess,
                                      hist_store, builder=builder)
    heap = []
    entry = candidate(0)
    if entry is not None:
        heapq.heappush(heap, entry)
    num_leaves = 1
    while heap and num_leaves < cfg.effective_max_leaves:
        _, node, split = heapq.heappop(heap)
        tree.set_split(node, split,
                       binned.threshold_of(split.feature, split.bin))
        index.split_nodes(
            layer_placements_rowstore(binned.binned, index, {node: split}))
        num_leaves += 1
        left, right = 2 * node + 1, 2 * node + 2
        stats.update(node_stats(index, [left, right], grad, hess))
        build_histograms_with_subtraction(binned, index, [left, right],
                                          grad, hess, hist_store,
                                          builder=builder)
        for child in (left, right):
            entry = candidate(child)
            if entry is not None:
                heapq.heappush(heap, entry)
    # everything not split becomes a leaf
    for node in index.active_nodes():
        tree.set_leaf(node, leaf_weight(*stats[node], cfg.reg_lambda))
        index.retire_node(node)
    return tree, index.node_of_instance.copy()


def build_histograms_with_subtraction(
    binned: BinnedDataset,
    index: NodeToInstanceIndex,
    nodes: List[int],
    grad: np.ndarray,
    hess: np.ndarray,
    hist_store: Dict[int, Histogram],
    builder: Optional[HistogramBuilder] = None,
) -> int:
    """Fill ``hist_store`` for ``nodes`` using the subtraction technique.

    Sibling pairs: build only the child with fewer instances, derive the
    other from the retained parent histogram (Section 2.1.2).  Returns the
    number of stored entries scanned.
    """
    if builder is None:
        builder = default_builder()
    counts = {node: index.count_of(node) for node in nodes}
    scanned = 0
    for op, node, sibling in subtraction_schedule(nodes, counts, hist_store):
        if op == "build":
            hist_store[node], touched = builder.build_rowstore(
                binned.binned, index.rows_of(node), grad, hess,
                binned.num_bins,
            )
            scanned += touched
        else:
            parent = (node - 1) // 2
            hist_store[node] = builder.subtract(hist_store.pop(parent),
                                                hist_store[sibling])
    return scanned
