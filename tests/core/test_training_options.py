"""Early stopping, split acceptance and leaf-wise growth tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import GBDT, TrainConfig
from repro.core.exact import ExactGBDT
from repro.core.gbdt import metric_improved


class TestEarlyStopping:
    def test_stops_before_budget(self, small_binary):
        train, valid = small_binary.split(0.8, seed=1)
        cfg = TrainConfig(num_trees=60, num_layers=6, num_candidates=16,
                          learning_rate=1.0)  # aggressive -> overfits
        result = GBDT(cfg).fit(train, valid, early_stopping_rounds=3)
        assert len(result.ensemble) < 60
        assert result.best_iteration is not None
        assert result.best_iteration <= len(result.ensemble) - 1

    def test_best_iteration_is_the_peak(self, small_binary):
        train, valid = small_binary.split(0.8, seed=2)
        cfg = TrainConfig(num_trees=15, num_layers=4)
        result = GBDT(cfg).fit(train, valid, early_stopping_rounds=50)
        values = [e.metric_value for e in result.evals]
        assert values[result.best_iteration] == max(values)

    def test_requires_validation_set(self, small_binary):
        cfg = TrainConfig(num_trees=5)
        with pytest.raises(ValueError, match="validation"):
            GBDT(cfg).fit(small_binary, early_stopping_rounds=2)

    def test_rejects_bad_rounds(self, small_binary):
        train, valid = small_binary.split(0.8, seed=3)
        cfg = TrainConfig(num_trees=5)
        with pytest.raises(ValueError, match="rounds"):
            GBDT(cfg).fit(train, valid, early_stopping_rounds=0)

    def test_metric_direction(self):
        assert metric_improved("auc", 0.9, 0.8)
        assert not metric_improved("auc", 0.7, 0.8)
        assert metric_improved("rmse", 0.1, 0.2)
        assert not metric_improved("rmse", 0.3, 0.2)


class TestMinSplitGain:
    """Both single-process trainers drop exactly the splits whose gain
    falls below ``min_split_gain`` (and, layer-wise, their subtrees)."""

    @pytest.mark.parametrize("trainer", [GBDT, ExactGBDT])
    @pytest.mark.parametrize("quantile", [0.25, 0.5, 0.75])
    def test_drops_exactly_the_weaker_splits(self, trainer, quantile,
                                             small_binary):
        cfg = TrainConfig(num_trees=1, num_layers=6, num_candidates=16)
        free = trainer(cfg).fit(small_binary).ensemble.trees[0]
        gains = sorted({node.split.gain for node in free.internal_nodes()})
        k = int(quantile * (len(gains) - 1))
        threshold = (gains[k] + gains[k + 1]) / 2

        def survives(node_id):
            while True:
                if free.nodes[node_id].split.gain < threshold:
                    return False
                if node_id == 0:
                    return True
                node_id = (node_id - 1) // 2

        expected = {node.node_id: node.split
                    for node in free.internal_nodes()
                    if survives(node.node_id)}
        kept = trainer(dataclasses.replace(cfg, min_split_gain=threshold)) \
            .fit(small_binary).ensemble.trees[0]
        assert {node.node_id: node.split
                for node in kept.internal_nodes()} == expected
        assert 0 < len(expected) < free.num_splits


class TestLeafwiseGrowth:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="growth"):
            TrainConfig(growth="breadthwise")
        with pytest.raises(ValueError, match="max_leaves"):
            TrainConfig(max_leaves=-1)

    def test_effective_max_leaves(self):
        assert TrainConfig(num_layers=5).effective_max_leaves == 16
        assert TrainConfig(max_leaves=7).effective_max_leaves == 7

    def test_leaf_budget_respected(self, small_binary):
        cfg = TrainConfig(num_trees=2, num_layers=8, num_candidates=16,
                          growth="leafwise", max_leaves=6)
        result = GBDT(cfg).fit(small_binary)
        for tree in result.ensemble.trees:
            assert tree.num_leaves <= 6

    def test_depth_still_bounded(self, small_binary):
        cfg = TrainConfig(num_trees=1, num_layers=3, num_candidates=16,
                          growth="leafwise", max_leaves=64)
        result = GBDT(cfg).fit(small_binary)
        tree = result.ensemble.trees[0]
        assert max(tree.nodes) <= 6  # 3 layers -> ids 0..6

    def test_learns_comparably_to_layerwise(self, small_binary):
        train, valid = small_binary.split(0.8, seed=4)
        base = TrainConfig(num_trees=8, num_layers=5, num_candidates=16)
        leaf = TrainConfig(num_trees=8, num_layers=5, num_candidates=16,
                           growth="leafwise")
        auc_layer = GBDT(base).fit(train, valid).evals[-1].metric_value
        auc_leaf = GBDT(leaf).fit(train, valid).evals[-1].metric_value
        assert abs(auc_layer - auc_leaf) < 0.03
        assert auc_leaf > 0.8

    def test_splits_in_gain_order(self, small_binary):
        """With a budget of 2 leaves, the single split must be the root's
        best split — same as the layer-wise tree's root."""
        leaf_cfg = TrainConfig(num_trees=1, num_layers=6,
                               num_candidates=16, growth="leafwise",
                               max_leaves=2)
        layer_cfg = TrainConfig(num_trees=1, num_layers=2,
                                num_candidates=16)
        t_leaf = GBDT(leaf_cfg).fit(small_binary).ensemble.trees[0]
        t_layer = GBDT(layer_cfg).fit(small_binary).ensemble.trees[0]
        s_leaf = t_leaf.nodes[0].split
        s_layer = t_layer.nodes[0].split
        assert (s_leaf.feature, s_leaf.bin) == \
            (s_layer.feature, s_layer.bin)

    def test_leaf_assignment_matches_routing(self, small_binary):
        from repro.core.gbdt import grow_tree
        from repro.core.loss import make_loss
        from repro.data.dataset import bin_dataset

        cfg = TrainConfig(num_trees=1, num_layers=5, num_candidates=16,
                          growth="leafwise", max_leaves=10)
        binned = bin_dataset(small_binary, 16)
        loss = make_loss("binary")
        grad, hess = loss.gradients(
            small_binary.labels,
            loss.init_scores(small_binary.num_instances),
        )
        tree, leaf_of_instance = grow_tree(cfg, binned, grad, hess)
        routed = tree.assign_leaves(small_binary.csc())
        np.testing.assert_array_equal(leaf_of_instance, routed)
