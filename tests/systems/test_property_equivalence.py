"""Property-based equivalence: for arbitrary small workloads and cluster
sizes, the vertical quadrants reproduce the oracle's trees exactly."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GBDT, TrainConfig, get_plan, \
    make_classification
from repro.data.dataset import bin_dataset


def tree_signature(tree):
    """Hashable structural summary of a tree."""
    parts = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.is_leaf:
            parts.append((nid, "leaf", tuple(np.round(node.weight, 10))))
        else:
            parts.append((nid, node.split.feature, node.split.bin,
                          node.split.default_left))
    return tuple(parts)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_workers=st.integers(1, 6),
    num_layers=st.integers(2, 5),
    num_classes=st.sampled_from([2, 3]),
    density=st.floats(0.1, 0.9),
    system=st.sampled_from(["qd3", "qd3-pure", "qd4", "lightgbm-fp"]),
)
def test_property_vertical_equals_oracle(seed, num_workers, num_layers,
                                         num_classes, density, system):
    rng = np.random.default_rng(seed)
    dataset = make_classification(
        int(rng.integers(60, 300)), int(rng.integers(5, 40)),
        num_classes=num_classes, density=density, seed=seed,
    )
    cfg = TrainConfig(
        num_trees=2, num_layers=num_layers, num_candidates=6,
        objective="multiclass" if num_classes > 2 else "binary",
        num_classes=num_classes,
    )
    binned = bin_dataset(dataset, cfg.num_candidates)
    oracle = GBDT(cfg).fit(dataset, binned=binned)
    dist = get_plan(system).build(cfg, ClusterConfig(num_workers)).fit(
        binned)
    for t_oracle, t_dist in zip(oracle.ensemble.trees,
                                dist.ensemble.trees):
        assert tree_signature(t_oracle) == tree_signature(t_dist)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_workers=st.integers(2, 5),
    system=st.sampled_from(["qd1", "qd2"]),
)
def test_property_horizontal_quality_close(seed, num_workers, system):
    """Horizontal quadrants may drift on float ties but must match the
    oracle's training quality on arbitrary workloads."""
    dataset = make_classification(400, 20, density=0.5, seed=seed)
    train, valid = dataset.split(0.8, seed=seed + 1)
    cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    binned = bin_dataset(train, cfg.num_candidates)
    oracle = GBDT(cfg).fit(train, valid, binned=binned)
    dist = get_plan(system).build(cfg, ClusterConfig(num_workers)).fit(
        binned, valid=valid)
    assert abs(oracle.evals[-1].metric_value
               - dist.evals[-1].metric_value) < 0.05
