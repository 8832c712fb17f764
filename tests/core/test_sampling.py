"""Stochastic GBDT (row/feature subsampling) tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, get_plan
from repro.core.gbdt import grow_tree
from repro.core.importance import feature_importance
from repro.core.indexing import NodeToInstanceIndex
from repro.core.loss import make_loss


class TestIndexSubset:
    def test_subset_root(self):
        index = NodeToInstanceIndex(10, rows=np.array([1, 3, 5]))
        np.testing.assert_array_equal(index.rows_of(0), [1, 3, 5])
        assert index.node_of_instance[0] == -1
        assert index.node_of_instance[1] == 0

    def test_out_of_range_rows(self):
        with pytest.raises(ValueError, match="out of range"):
            NodeToInstanceIndex(5, rows=np.array([7]))

    def test_duplicates_collapsed(self):
        index = NodeToInstanceIndex(5, rows=np.array([2, 2, 4]))
        assert index.count_of(0) == 2


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError, match="subsample"):
            TrainConfig(subsample=0.0)
        with pytest.raises(ValueError, match="colsample"):
            TrainConfig(colsample=1.5)

    def test_uses_sampling(self):
        assert not TrainConfig().uses_sampling
        assert TrainConfig(subsample=0.5).uses_sampling
        assert TrainConfig(colsample=0.5).uses_sampling

    def test_distributed_rejects_sampling(self):
        cfg = TrainConfig(subsample=0.5)
        with pytest.raises(ValueError, match="reference-trainer"):
            get_plan("vero").build(cfg, ClusterConfig(2))

    def test_distributed_rejects_leafwise(self):
        cfg = TrainConfig(growth="leafwise")
        with pytest.raises(ValueError, match="layer-wise"):
            get_plan("qd2").build(cfg, ClusterConfig(2))


class TestRowSampling:
    def test_trains_and_learns(self, small_binary):
        train, valid = small_binary.split(0.8, seed=1)
        cfg = TrainConfig(num_trees=15, num_layers=5, num_candidates=16,
                          learning_rate=0.3, subsample=0.6, seed=3)
        result = GBDT(cfg).fit(train, valid)
        assert result.evals[-1].metric_value > 0.8

    def test_unsampled_rows_marked(self, binned_binary):
        loss = make_loss("binary")
        grad, hess = loss.gradients(
            binned_binary.labels,
            loss.init_scores(binned_binary.num_instances),
        )
        cfg = TrainConfig(num_trees=1, num_layers=4, num_candidates=8)
        rows = np.arange(0, binned_binary.num_instances, 2)
        tree, leaf = grow_tree(cfg, binned_binary, grad, hess,
                               sample_rows=rows)
        assert np.all(leaf[1::2] == -1)
        assert np.all(leaf[::2] >= 0)

    def test_different_seeds_different_trees(self, small_binary):
        def first_tree(seed):
            cfg = TrainConfig(num_trees=1, num_layers=5,
                              num_candidates=16, subsample=0.3,
                              seed=seed)
            return GBDT(cfg).fit(small_binary).ensemble.trees[0]

        a, b = first_tree(1), first_tree(2)
        splits_a = {(n.split.feature, n.split.bin)
                    for n in a.internal_nodes()}
        splits_b = {(n.split.feature, n.split.bin)
                    for n in b.internal_nodes()}
        assert splits_a != splits_b


class TestColumnSampling:
    def test_only_sampled_features_used(self, small_binary):
        cfg = TrainConfig(num_trees=6, num_layers=4, num_candidates=16,
                          colsample=0.2, seed=5)
        result = GBDT(cfg).fit(small_binary)
        used = feature_importance(result.ensemble,
                                  small_binary.num_features,
                                  kind="split")
        # at most colsample * D features per tree; across 6 trees the
        # union stays well below the full feature set
        assert np.count_nonzero(used) < small_binary.num_features

    def test_single_tree_respects_mask(self, binned_binary):
        loss = make_loss("binary")
        grad, hess = loss.gradients(
            binned_binary.labels,
            loss.init_scores(binned_binary.num_instances),
        )
        cfg = TrainConfig(num_trees=1, num_layers=5, num_candidates=8)
        mask = np.zeros(binned_binary.num_features, dtype=bool)
        mask[:5] = True
        tree, _ = grow_tree(cfg, binned_binary, grad, hess,
                            feature_mask=mask)
        for node in tree.internal_nodes():
            assert node.split.feature < 5

    def test_leafwise_rejects_sampling(self, binned_binary):
        loss = make_loss("binary")
        grad, hess = loss.gradients(
            binned_binary.labels,
            loss.init_scores(binned_binary.num_instances),
        )
        cfg = TrainConfig(num_trees=1, growth="leafwise")
        with pytest.raises(ValueError, match="layer-wise"):
            grow_tree(cfg, binned_binary, grad, hess,
                      sample_rows=np.array([0, 1]))
