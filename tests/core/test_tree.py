"""Tree structure and prediction tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.split import SplitInfo
from repro.core.tree import (Tree, TreeEnsemble, layer_nodes, layer_of)
from repro.data.matrix import CSRMatrix


def build_stump(default_left=False):
    """value(feature 0) <= 0.5 -> leaf [+1], else leaf [-1]."""
    tree = Tree(num_layers=2, gradient_dim=1)
    tree.set_split(0, SplitInfo(0, 0, default_left, 1.0), threshold=0.5)
    tree.set_leaf(1, np.array([1.0]))
    tree.set_leaf(2, np.array([-1.0]))
    return tree


class TestLayout:
    def test_layer_of(self):
        assert layer_of(0) == 0
        assert layer_of(1) == layer_of(2) == 1
        assert layer_of(3) == layer_of(6) == 2

    def test_layer_nodes(self):
        assert list(layer_nodes(0)) == [0]
        assert list(layer_nodes(2)) == [3, 4, 5, 6]

    def test_children_ids(self):
        tree = build_stump()
        assert tree.node(0).left_child == 1
        assert tree.node(0).right_child == 2


class TestConstruction:
    def test_leaf_dim_checked(self):
        tree = Tree(2, 3)
        with pytest.raises(ValueError, match="dim"):
            tree.set_leaf(0, np.array([1.0]))

    def test_double_split_rejected(self):
        tree = build_stump()
        with pytest.raises(ValueError, match="already split"):
            tree.set_split(0, SplitInfo(1, 0, False, 1.0), 0.0)

    def test_too_shallow_rejected(self):
        with pytest.raises(ValueError):
            Tree(1, 1)

    def test_counts(self):
        tree = build_stump()
        assert tree.num_leaves == 2
        assert tree.num_splits == 1
        assert len(tree.internal_nodes()) == 1


class TestPrediction:
    def test_threshold_routing(self):
        tree = build_stump()
        features = CSRMatrix.from_dense(
            np.array([[0.3], [0.5], [0.7]])
        ).to_csc()
        np.testing.assert_allclose(
            tree.predict(features).ravel(), [1.0, 1.0, -1.0]
        )

    def test_missing_goes_default(self):
        features = CSRMatrix.from_rows([[], [(0, 0.2)]], 1).to_csc()
        right = build_stump(default_left=False)
        np.testing.assert_allclose(right.predict(features).ravel(),
                                   [-1.0, 1.0])
        left = build_stump(default_left=True)
        np.testing.assert_allclose(left.predict(features).ravel(),
                                   [1.0, 1.0])

    def test_two_layer_routing(self):
        tree = Tree(3, 1)
        tree.set_split(0, SplitInfo(0, 0, False, 1.0), threshold=0.0)
        tree.set_split(1, SplitInfo(1, 0, False, 1.0), threshold=0.0)
        tree.set_leaf(2, np.array([9.0]))
        tree.set_leaf(3, np.array([1.0]))
        tree.set_leaf(4, np.array([2.0]))
        dense = np.array([
            [-1.0, -1.0],   # left, left -> 1
            [-1.0, 1.0],    # left, right -> 2
            [1.0, 5.0],     # right -> 9
        ])
        features = CSRMatrix.from_dense(dense).to_csc()
        np.testing.assert_allclose(
            tree.predict(features).ravel(), [1.0, 2.0, 9.0]
        )

    def test_assign_leaves(self):
        tree = build_stump()
        features = CSRMatrix.from_dense(np.array([[0.1], [0.9]])).to_csc()
        np.testing.assert_array_equal(tree.assign_leaves(features), [1, 2])

    def test_vector_leaves(self):
        tree = Tree(2, 3)
        tree.set_split(0, SplitInfo(0, 0, False, 1.0), threshold=0.0)
        tree.set_leaf(1, np.array([1.0, 2.0, 3.0]))
        tree.set_leaf(2, np.array([-1.0, -2.0, -3.0]))
        features = CSRMatrix.from_dense(np.array([[-1.0], [1.0]])).to_csc()
        out = tree.predict(features)
        np.testing.assert_allclose(out[0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out[1], [-1.0, -2.0, -3.0])


class TestEnsemble:
    def test_raw_scores_sum_with_shrinkage(self):
        ensemble = TreeEnsemble(gradient_dim=1, learning_rate=0.5)
        ensemble.append(build_stump())
        ensemble.append(build_stump())
        features = CSRMatrix.from_dense(np.array([[0.1]])).to_csc()
        assert ensemble.raw_scores(features)[0, 0] == pytest.approx(1.0)
        assert ensemble.raw_scores(features, num_trees=1)[0, 0] == \
            pytest.approx(0.5)

    def test_dim_mismatch(self):
        ensemble = TreeEnsemble(gradient_dim=2, learning_rate=0.1)
        with pytest.raises(ValueError):
            ensemble.append(build_stump())

    def test_len(self):
        ensemble = TreeEnsemble(1, 0.1)
        assert len(ensemble) == 0
        ensemble.append(build_stump())
        assert len(ensemble) == 1
