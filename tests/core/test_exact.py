"""Exact greedy trainer tests: correctness against brute force and
convergence of the histogram approximation toward it."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GBDT, TrainConfig
from repro.core.exact import (ExactGBDT, PresortedColumns,
                              exact_best_split, grow_tree_exact)
from repro.core.loss import make_loss
from repro.data.dataset import Dataset
from repro.data.matrix import CSRMatrix


def brute_force_exact(dense, node_rows, grad, hess, g_tot, h_tot, lam):
    """Enumerate every (feature, threshold, default) directly."""
    best_gain = 0.0
    best = None

    def score(g, h):
        return float((g * g / (h + lam)).sum())

    parent = score(g_tot, h_tot)
    for f in range(dense.shape[1]):
        present = [(dense[i, f], i) for i in node_rows
                   if not np.isnan(dense[i, f])]
        present.sort()
        values = sorted({v for v, _ in present})
        for threshold in values[:-1]:
            gl = sum(grad[i] for v, i in present if v <= threshold)
            hl = sum(hess[i] for v, i in present if v <= threshold)
            gp = sum(grad[i] for v, i in present)
            hp = sum(hess[i] for v, i in present)
            for default_left in (False, True):
                g_left = gl + (g_tot - gp if default_left else 0)
                h_left = hl + (h_tot - hp if default_left else 0)
                g_right = g_tot - g_left
                h_right = h_tot - h_left
                if h_left.sum() <= 0 or h_right.sum() <= 0:
                    continue
                gain = 0.5 * (score(g_left, h_left)
                              + score(g_right, h_right) - parent)
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best = (f, threshold, default_left)
    return best, best_gain


class TestExactBestSplit:
    def test_matches_brute_force(self, rng):
        dense = rng.standard_normal((40, 4))
        dense[rng.random((40, 4)) < 0.3] = 0.0  # zeros become missing
        features = CSRMatrix.from_dense(dense)
        masked = dense.copy()
        masked[masked == 0] = np.nan
        grad = rng.standard_normal((40, 1))
        hess = rng.random((40, 1)) + 0.01
        g_tot = grad.sum(axis=0)
        h_tot = hess.sum(axis=0)
        presorted = PresortedColumns(features.to_csc())
        node_of = np.zeros(40, dtype=np.int32)
        split = exact_best_split(
            presorted, node_of, 0, grad, hess, g_tot, h_tot, 1.0, 0.0,
        )
        ref, ref_gain = brute_force_exact(
            masked, range(40), grad, hess, g_tot, h_tot, 1.0,
        )
        if ref is None:
            assert split is None
        else:
            assert split is not None
            assert split.gain == pytest.approx(ref_gain)
            threshold = presorted.threshold(split, node_of, 0)
            assert (split.feature, threshold, split.default_left) == ref

    def test_no_split_on_constant_node(self):
        features = CSRMatrix.from_dense(np.ones((10, 2)))
        presorted = PresortedColumns(features.to_csc())
        grad = np.ones((10, 1))
        hess = np.ones((10, 1))
        split = exact_best_split(
            presorted, np.zeros(10, dtype=np.int32), 0, grad, hess,
            grad.sum(0), hess.sum(0), 1.0, 0.0,
        )
        assert split is None


class TestExactTrainer:
    def test_learns(self, small_binary):
        train, valid = small_binary.split(0.8, seed=1)
        cfg = TrainConfig(num_trees=8, num_layers=5, learning_rate=0.3)
        result = ExactGBDT(cfg).fit(train, valid)
        assert result.evals[-1].metric_value > 0.85

    def test_exact_at_least_as_good_as_coarse_hist(self, small_binary):
        """With very few candidate splits the histogram trainer loses
        accuracy the exact trainer keeps."""
        train, valid = small_binary.split(0.8, seed=2)
        cfg_exact = TrainConfig(num_trees=8, num_layers=5,
                                learning_rate=0.3)
        cfg_coarse = TrainConfig(num_trees=8, num_layers=5,
                                 learning_rate=0.3, num_candidates=2)
        exact = ExactGBDT(cfg_exact).fit(train, valid)
        coarse = GBDT(cfg_coarse).fit(train, valid)
        assert exact.evals[-1].metric_value >= \
            coarse.evals[-1].metric_value - 0.01

    def test_hist_converges_to_exact_with_many_bins(self):
        """On data with few distinct values per feature, a histogram with
        enough bins reproduces the exact trees."""
        rng = np.random.default_rng(3)
        dense = rng.integers(1, 7, size=(400, 5)).astype(float)
        labels = (dense[:, 0] + dense[:, 1] > 7).astype(np.int64)
        ds = Dataset(CSRMatrix.from_dense(dense), labels)
        cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=64)
        hist = GBDT(cfg).fit(ds)
        exact = ExactGBDT(cfg).fit(ds)
        hist_preds = GBDT(cfg).predict(hist.ensemble, ds)
        exact_preds = ExactGBDT(cfg).predict(exact.ensemble, ds)
        np.testing.assert_allclose(hist_preds, exact_preds, atol=1e-9)

    def test_trees_respect_depth(self, small_binary):
        cfg = TrainConfig(num_trees=1, num_layers=3)
        result = ExactGBDT(cfg).fit(small_binary)
        assert max(result.ensemble.trees[0].nodes) <= 6

    def test_leaf_assignment_matches_routing(self, small_binary):
        cfg = TrainConfig(num_trees=1, num_layers=4)
        loss = make_loss("binary")
        grad, hess = loss.gradients(
            small_binary.labels,
            loss.init_scores(small_binary.num_instances),
        )
        presorted = PresortedColumns(small_binary.csc())
        tree, leaf = grow_tree_exact(cfg, small_binary, presorted, grad,
                                     hess)
        routed = tree.assign_leaves(small_binary.csc())
        np.testing.assert_array_equal(leaf, routed)

    @pytest.mark.parametrize("option", [
        {"subsample": 0.5}, {"colsample": 0.25},
        {"growth": "leafwise", "max_leaves": 3},
    ])
    def test_refuses_histogram_only_options(self, option):
        with pytest.raises(ValueError, match="histogram-trainer"):
            ExactGBDT(TrainConfig(num_trees=3, num_layers=4, **option))

    def test_early_stopping_through_the_shared_loop(self, small_binary):
        train, valid = small_binary.split(0.8, seed=1)
        cfg = TrainConfig(num_trees=40, num_layers=6, learning_rate=1.0)
        result = ExactGBDT(cfg).fit(train, valid, early_stopping_rounds=2)
        assert len(result.ensemble) == result.best_iteration + 3 < 40
        values = [e.metric_value for e in result.evals]
        assert values[result.best_iteration] == max(values)
