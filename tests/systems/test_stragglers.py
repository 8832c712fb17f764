"""Heterogeneous-worker (straggler) simulation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, get_plan, \
    make_classification
from repro.data.dataset import bin_dataset
from repro.systems.base import WorkerClock


class TestWorkerClock:
    def test_speed_scales_charge(self):
        clock = WorkerClock(2, speeds=(1.0, 0.5))
        clock.charge(0, 1.0)
        clock.charge(1, 1.0)
        assert clock.seconds[0] == 1.0
        assert clock.seconds[1] == 2.0
        assert clock.elapsed == 2.0

    def test_charge_all_scaled(self):
        clock = WorkerClock(3, speeds=(1.0, 2.0, 0.25))
        clock.charge_all(1.0)
        np.testing.assert_allclose(clock.seconds, [1.0, 0.5, 4.0])


class TestClusterConfig:
    def test_speed_validation(self):
        with pytest.raises(ValueError, match="entries"):
            ClusterConfig(num_workers=3, worker_speeds=(1.0, 1.0))
        with pytest.raises(ValueError, match="> 0"):
            ClusterConfig(num_workers=2, worker_speeds=(1.0, 0.0))

    def test_speed_of(self):
        cluster = ClusterConfig(num_workers=2, worker_speeds=(1.0, 0.5))
        assert cluster.speed_of(1) == 0.5
        assert ClusterConfig(num_workers=2).speed_of(1) == 1.0


#: one representative plan per partitioning/storage/aggregation corner
STRAGGLER_PLANS = ("qd1", "qd2", "qd2-ps", "qd2-fp", "qd3", "vero")


def _split_signature(tree):
    return tuple(
        (nid, tree.nodes[nid].split.feature, tree.nodes[nid].split.bin)
        for nid in sorted(tree.nodes)
        if not tree.nodes[nid].is_leaf
    )


class TestStragglerEffect:
    """Heterogeneous workers across every plan family.

    A straggler only stretches the max-over-workers computation clock —
    the model and the traffic ledger are deterministic functions of the
    data and the plan, so both must be unchanged, and the slowdown must
    grow with the straggler's severity.
    """

    @pytest.fixture(scope="class")
    def binned(self):
        ds = make_classification(3000, 200, density=0.2, seed=51)
        binned = bin_dataset(ds, 12)
        # warm numpy/allocator caches so the first measured run is not
        # inflated relative to later ones (comp clocks are wall-clock)
        self._fit("qd1", binned)
        return binned

    @staticmethod
    def _fit(plan_key, binned, speeds=None):
        cfg = TrainConfig(num_trees=2, num_layers=5, num_candidates=10)
        if speeds is None:
            cluster = ClusterConfig(num_workers=4)
        else:
            cluster = ClusterConfig(num_workers=4, worker_speeds=speeds)
        return get_plan(plan_key).build(cfg, cluster).fit(binned)

    @pytest.mark.parametrize("plan_key", STRAGGLER_PLANS)
    def test_slowdown_scales_with_severity(self, binned, plan_key):
        uniform = self._fit(plan_key, binned)
        mild = self._fit(plan_key, binned, (1.0, 1.0, 1.0, 0.25))
        severe = self._fit(plan_key, binned, (1.0, 1.0, 1.0, 0.0625))
        # a 4x/16x-slower worker stretches the per-layer barrier by its
        # share of compute; assert direction and monotonicity with
        # margins tolerant of wall-clock noise under load
        assert mild.mean_comp_seconds() > \
            1.2 * uniform.mean_comp_seconds()
        assert severe.mean_comp_seconds() > \
            1.5 * mild.mean_comp_seconds()

    @pytest.mark.parametrize("plan_key", STRAGGLER_PLANS)
    def test_straggler_does_not_change_traffic_or_model(self, binned,
                                                        plan_key):
        uniform = self._fit(plan_key, binned)
        skewed = self._fit(plan_key, binned, (0.25, 1.0, 1.0, 1.0))
        # the traffic ledger is byte-identical, kind by kind
        assert skewed.comm.bytes_by_kind == uniform.comm.bytes_by_kind
        assert skewed.comm.total_bytes == uniform.comm.total_bytes
        # the model itself is unaffected
        assert len(skewed.ensemble.trees) == len(uniform.ensemble.trees)
        for fast_tree, slow_tree in zip(uniform.ensemble.trees,
                                        skewed.ensemble.trees):
            assert _split_signature(fast_tree) == \
                _split_signature(slow_tree)
