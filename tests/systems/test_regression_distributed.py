"""Distributed training on the regression objective."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, get_plan, \
    make_regression
from repro.data.dataset import bin_dataset


@pytest.fixture(scope="module")
def regression_setting():
    ds = make_regression(1200, 40, density=0.5, noise=0.05, seed=61)
    train, valid = ds.split(0.8, seed=62)
    cfg = TrainConfig(num_trees=5, num_layers=4, num_candidates=12,
                      objective="regression", learning_rate=0.3)
    binned = bin_dataset(train, cfg.num_candidates)
    return train, valid, cfg, binned


class TestDistributedRegression:
    @pytest.mark.parametrize("name", ["qd1", "qd2", "qd3", "qd4"])
    def test_rmse_decreases(self, regression_setting, name):
        train, valid, cfg, binned = regression_setting
        result = get_plan(name).build(cfg, ClusterConfig(3)).fit(
            binned, valid=valid)
        assert result.evals[0].metric_name == "rmse"
        assert result.evals[-1].metric_value < \
            result.evals[0].metric_value

    def test_vertical_matches_oracle(self, regression_setting):
        train, valid, cfg, binned = regression_setting
        oracle = GBDT(cfg).fit(train, valid, binned=binned)
        dist = get_plan("vero").build(cfg, ClusterConfig(4)).fit(
            binned, valid=valid)
        for rec_o, rec_d in zip(oracle.evals, dist.evals):
            assert rec_o.metric_value == pytest.approx(
                rec_d.metric_value, rel=1e-9)

    def test_predictions_match_labels_scale(self, regression_setting):
        train, valid, cfg, binned = regression_setting
        system = get_plan("vero").build(cfg, ClusterConfig(3))
        result = system.fit(binned)
        preds = system.predict(result.ensemble, valid)
        # predictions live on the label scale (no link function)
        assert preds.std() > 0
        corr = np.corrcoef(preds, valid.labels)[0, 1]
        assert corr > 0.5
