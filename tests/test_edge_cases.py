"""Robustness edge cases across the stack."""

from __future__ import annotations

import numpy as np

from repro import (ClusterConfig, GBDT, TrainConfig, get_plan,
                   make_classification)
from repro.data.dataset import Dataset, bin_dataset
from repro.data.matrix import CSRMatrix


def tiny_dataset(labels, dense):
    return Dataset(CSRMatrix.from_dense(np.asarray(dense, dtype=float)),
                   np.asarray(labels))


class TestDegenerateData:
    def test_constant_labels_yield_stump_free_model(self):
        """All-one-class data: no split has positive gain; every tree is
        a single leaf and predictions drift toward the class."""
        dense = np.random.default_rng(0).standard_normal((50, 4))
        ds = tiny_dataset(np.ones(50, dtype=np.int64), dense)
        cfg = TrainConfig(num_trees=3, num_layers=4)
        result = GBDT(cfg).fit(ds)
        for tree in result.ensemble.trees:
            assert tree.num_splits == 0
        preds = GBDT(cfg).predict(result.ensemble, ds)
        assert np.all(preds > 0.5)

    def test_constant_features(self):
        """Features with a single value propose no candidate splits."""
        dense = np.ones((40, 3))
        labels = np.array([0, 1] * 20)
        ds = tiny_dataset(labels, dense)
        binned = bin_dataset(ds, 8)
        assert binned.bins_per_feature.tolist() == [1, 1, 1]
        result = GBDT(TrainConfig(num_trees=2, num_layers=3)).fit(
            ds, binned=binned)
        assert all(t.num_splits == 0 for t in result.ensemble.trees)

    def test_single_instance(self):
        ds = tiny_dataset([1], [[1.0, 2.0]])
        result = GBDT(TrainConfig(num_trees=1, num_layers=3)).fit(ds)
        assert result.ensemble.trees[0].num_splits == 0

    def test_two_instances_can_split(self):
        ds = tiny_dataset([0, 1], [[1.0], [2.0]])
        cfg = TrainConfig(num_trees=1, num_layers=2, reg_lambda=0.1)
        result = GBDT(cfg).fit(ds)
        tree = result.ensemble.trees[0]
        assert tree.num_splits == 1
        preds = GBDT(cfg).predict(result.ensemble, ds)
        assert preds[0] < 0.5 < preds[1]

    def test_all_missing_feature(self):
        """A feature with no stored values never splits."""
        rows = [[(0, 1.0)], [(0, 2.0)], [(0, 3.0)], [(0, 4.0)]]
        ds = Dataset(CSRMatrix.from_rows(rows, num_cols=3),
                     np.array([0, 0, 1, 1]))
        binned = bin_dataset(ds, 8)
        assert binned.bins_per_feature[1] == 1
        assert binned.bins_per_feature[2] == 1
        result = GBDT(TrainConfig(num_trees=1, num_layers=3)).fit(
            ds, binned=binned)
        for node in result.ensemble.trees[0].internal_nodes():
            assert node.split.feature == 0


class TestDistributedDegenerate:
    def test_more_workers_than_features(self):
        ds = make_classification(300, 3, density=1.0, seed=9)
        cfg = TrainConfig(num_trees=2, num_layers=3, num_candidates=8)
        binned = bin_dataset(ds, cfg.num_candidates)
        result = get_plan("vero").build(cfg, ClusterConfig(6)).fit(binned)
        assert len(result.ensemble) == 2

    def test_more_workers_than_instances(self):
        ds = make_classification(4, 10, density=1.0, seed=10)
        cfg = TrainConfig(num_trees=1, num_layers=2, num_candidates=4)
        binned = bin_dataset(ds, cfg.num_candidates)
        for name in ("qd1", "qd2", "qd4"):
            result = get_plan(name).build(cfg, ClusterConfig(8)).fit(binned)
            assert len(result.ensemble) == 1

    def test_single_tree_layer_two(self):
        ds = make_classification(500, 10, density=1.0, seed=11)
        cfg = TrainConfig(num_trees=1, num_layers=2, num_candidates=8)
        binned = bin_dataset(ds, cfg.num_candidates)
        result = get_plan("qd2").build(cfg, ClusterConfig(3)).fit(binned)
        assert result.ensemble.trees[0].num_leaves <= 2

    def test_zero_gain_everywhere_stops_early(self):
        """Labels independent of features + strong gamma: trees stop at
        the root and the loop exits before the depth budget."""
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((200, 5))
        ds = tiny_dataset(rng.integers(0, 2, 200), dense)
        cfg = TrainConfig(num_trees=1, num_layers=7, reg_gamma=1e6)
        binned = bin_dataset(ds, 8)
        result = get_plan("vero").build(cfg, ClusterConfig(2)).fit(binned)
        assert result.ensemble.trees[0].num_splits == 0
