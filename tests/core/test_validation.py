"""Cross-validation tests."""

from __future__ import annotations

import pytest

from repro import TrainConfig
from repro.core.validation import cross_validate


class TestCrossValidation:
    def test_folds_cover_all_instances(self, small_binary):
        cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
        result = cross_validate(cfg, small_binary, num_folds=4, seed=2)
        assert len(result.folds) == 4
        assert result.metric_name == "auc"
        assert 0.5 < result.mean <= 1.0
        assert result.std < 0.2

    def test_summary_string(self, small_binary):
        cfg = TrainConfig(num_trees=2, num_layers=3)
        result = cross_validate(cfg, small_binary, num_folds=3)
        assert "auc" in result.summary()
        assert "3 folds" in result.summary()

    def test_early_stopping_in_folds(self, small_binary):
        cfg = TrainConfig(num_trees=40, num_layers=6, learning_rate=1.0)
        result = cross_validate(cfg, small_binary, num_folds=3,
                                early_stopping_rounds=2)
        assert all(f.num_trees <= 40 for f in result.folds)

    def test_validation_errors(self, small_binary):
        cfg = TrainConfig(num_trees=1)
        with pytest.raises(ValueError, match="num_folds"):
            cross_validate(cfg, small_binary, num_folds=1)

    def test_multiclass(self, small_multiclass):
        cfg = TrainConfig(num_trees=3, num_layers=4,
                          objective="multiclass", num_classes=4)
        result = cross_validate(cfg, small_multiclass, num_folds=3)
        assert result.metric_name == "accuracy"
        assert result.mean > 0.3
