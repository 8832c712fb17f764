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
    (YggdrasilStyle, "qd3"),
    (Vero, "vero"),
    (LightGBMFeatureParallel, "qd2-fp"),
])
def test_alias_builds_its_registry_plan(cls, plan_key):
    system = cls(CONFIG, CLUSTER)
    assert system.plan.key == plan_key
