"""The classic alias classes: one home in ``plans``."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, TrainConfig
from repro.systems import (DimBoostStyle, LightGBMFeatureParallel,
                           LightGBMStyle, Vero, XGBoostStyle,
                           YggdrasilStyle)

CONFIG = TrainConfig(num_trees=1, num_layers=3, num_candidates=4)
CLUSTER = ClusterConfig(num_workers=2)


@pytest.mark.parametrize("cls,plan_key", [
    (XGBoostStyle, "qd1"),
    (LightGBMStyle, "qd2"),
    (DimBoostStyle, "qd2-ps"),
    (Vero, "vero"),
    (LightGBMFeatureParallel, "qd2-fp"),
])
def test_alias_builds_its_registry_plan(cls, plan_key):
    system = cls(CONFIG, CLUSTER)
    assert system.plan.key == plan_key


def test_yggdrasil_index_mode_selects_the_plan():
    assert YggdrasilStyle(CONFIG, CLUSTER).plan.key == "qd3"
    hybrid = YggdrasilStyle(CONFIG, CLUSTER, index_mode="hybrid")
    assert hybrid.index_mode == "hybrid"
    pure = YggdrasilStyle(CONFIG, CLUSTER, index_mode="columnwise")
    assert pure.plan.key == "qd3-pure"
    assert pure.index_mode == "columnwise"
    with pytest.raises(ValueError, match="index_mode"):
        YggdrasilStyle(CONFIG, CLUSTER, index_mode="bogus")
