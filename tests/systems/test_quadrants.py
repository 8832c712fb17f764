"""Quadrant integration tests: model equivalence with the single-process
oracle, and conformance of the simulated costs with the Section 3 model.

Equivalence contract:

* Vertical quadrants (QD3, QD4, feature-parallel) build each feature's
  histogram with exactly the oracle's arithmetic, so their trees are
  **bit-identical** to the oracle's.
* Horizontal quadrants aggregate per-worker partial histograms, so sums
  associate differently; when two candidate splits tie to the last ulp the
  argmax may differ.  They are validated for near-identical quality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, get_plan
from repro.core.metrics import auc
from repro.data.dataset import bin_dataset
from repro.systems.costmodel import (WorkloadShape,
                                     horizontal_comm_bytes_per_tree,
                                     sizehist_bytes,
                                     vertical_comm_bytes_per_tree)

ALL_SYSTEMS = ["qd1", "qd2", "dimboost", "qd3", "qd4", "lightgbm-fp"]
VERTICAL_SYSTEMS = ["qd3", "qd4", "lightgbm-fp"]


def trees_equal(a, b) -> bool:
    if set(a.nodes) != set(b.nodes):
        return False
    for nid, node_a in a.nodes.items():
        node_b = b.nodes[nid]
        if node_a.is_leaf != node_b.is_leaf:
            return False
        if node_a.is_leaf:
            if not np.allclose(node_a.weight, node_b.weight, rtol=1e-9):
                return False
        else:
            sa, sb = node_a.split, node_b.split
            if (sa.feature, sa.bin, sa.default_left) != \
                    (sb.feature, sb.bin, sb.default_left):
                return False
    return True


@pytest.fixture(scope="module")
def setting(request):
    from repro import make_classification

    ds = make_classification(1500, 60, density=0.3, seed=31)
    train, valid = ds.split(0.8, seed=32)
    cfg = TrainConfig(num_trees=4, num_layers=5, num_candidates=12)
    binned = bin_dataset(train, cfg.num_candidates)
    oracle = GBDT(cfg).fit(train, valid, binned=binned)
    return train, valid, cfg, binned, oracle


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", VERTICAL_SYSTEMS)
    def test_vertical_bit_identical(self, setting, name):
        train, valid, cfg, binned, oracle = setting
        system = get_plan(name).build(cfg, ClusterConfig(num_workers=4))
        result = system.fit(binned, valid=valid)
        assert len(result.ensemble) == len(oracle.ensemble)
        for t_oracle, t_dist in zip(oracle.ensemble.trees,
                                    result.ensemble.trees):
            assert trees_equal(t_oracle, t_dist)

    @pytest.mark.parametrize("name", ["qd1", "qd2", "dimboost"])
    def test_horizontal_quality_matches(self, setting, name):
        train, valid, cfg, binned, oracle = setting
        system = get_plan(name).build(cfg, ClusterConfig(num_workers=4))
        result = system.fit(binned, valid=valid)
        for rec_o, rec_d in zip(oracle.evals, result.evals):
            assert abs(rec_o.metric_value - rec_d.metric_value) < 0.02

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_single_worker_equals_oracle(self, setting, name):
        """With W=1 every quadrant degenerates to the oracle exactly."""
        train, valid, cfg, binned, oracle = setting
        system = get_plan(name).build(cfg, ClusterConfig(num_workers=1))
        result = system.fit(binned)
        for t_oracle, t_dist in zip(oracle.ensemble.trees,
                                    result.ensemble.trees):
            assert trees_equal(t_oracle, t_dist)

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_worker_count_does_not_change_quality(self, setting, name):
        train, valid, cfg, binned, _ = setting
        r2 = get_plan(name).build(cfg, ClusterConfig(num_workers=2)).fit(
            binned, valid=valid)
        r5 = get_plan(name).build(cfg, ClusterConfig(num_workers=5)).fit(
            binned, valid=valid)
        assert abs(r2.evals[-1].metric_value
                   - r5.evals[-1].metric_value) < 0.02


class TestPredictions:
    @pytest.mark.parametrize("name", ["qd2", "qd4"])
    def test_predict_probabilities(self, setting, name):
        train, valid, cfg, binned, _ = setting
        system = get_plan(name).build(cfg, ClusterConfig(num_workers=3))
        result = system.fit(binned)
        preds = system.predict(result.ensemble, valid)
        assert preds.shape == (valid.num_instances,)
        assert np.all((preds > 0) & (preds < 1))
        assert auc(valid.labels, preds) > 0.75


class TestMulticlass:
    def test_all_quadrants_handle_multiclass(self, small_multiclass):
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8,
                          objective="multiclass", num_classes=4)
        binned = bin_dataset(small_multiclass, cfg.num_candidates)
        results = {}
        for name in ("qd1", "qd2", "qd3", "qd4"):
            system = get_plan(name).build(cfg, ClusterConfig(num_workers=3))
            results[name] = system.fit(binned,
                                       valid=small_multiclass)
        finals = [r.evals[-1].metric_value for r in results.values()]
        assert max(finals) - min(finals) < 0.05

    def test_dimboost_rejects_multiclass(self):
        cfg = TrainConfig(num_trees=1, objective="multiclass",
                          num_classes=3)
        with pytest.raises(ValueError, match="multi-classification"):
            get_plan("dimboost").build(cfg, ClusterConfig(num_workers=2))


class TestCommunicationShape:
    """The Section 3.1.3 claims, validated against the simulator."""

    def make_run(self, name, num_instances, num_features, num_workers=4,
                 num_layers=5, num_classes=2):
        from repro import make_classification

        task_classes = num_classes if num_classes > 2 else 2
        ds = make_classification(
            num_instances, num_features, num_classes=task_classes,
            density=min(0.3, 4000 / num_features / 10 + 0.02), seed=33,
        )
        objective = "multiclass" if task_classes > 2 else "binary"
        cfg = TrainConfig(num_trees=2, num_layers=num_layers,
                          num_candidates=8, objective=objective,
                          num_classes=task_classes)
        binned = bin_dataset(ds, cfg.num_candidates)
        system = get_plan(name).build(cfg, ClusterConfig(num_workers))
        return system.fit(binned), cfg

    def test_horizontal_comm_bounded_by_model(self):
        result, cfg = self.make_run("qd2", 800, 500)
        shape = WorkloadShape(800, 500, 4, cfg.num_layers,
                              cfg.num_candidates)
        per_tree = result.comm.total_bytes / 2
        assert per_tree <= horizontal_comm_bytes_per_tree(shape) * 1.05

    def test_vertical_comm_bounded_by_model(self):
        result, cfg = self.make_run("qd4", 3000, 100)
        shape = WorkloadShape(3000, 100, 4, cfg.num_layers,
                              cfg.num_candidates)
        per_tree = result.comm.total_bytes / 2
        # bitmap traffic plus small split exchanges
        assert per_tree <= vertical_comm_bytes_per_tree(shape) * 1.2

    def test_vertical_wins_on_high_dim(self):
        h, _ = self.make_run("qd2", 600, 3000)
        v, _ = self.make_run("qd4", 600, 3000)
        assert v.comm.total_bytes < h.comm.total_bytes / 50

    def test_horizontal_wins_on_low_dim(self):
        # Below the Section 3.1.3 crossover N/8*W*L > Sizehist*W*(2^(L-1)-1)
        # horizontal traffic is smaller; N=100k, D=20, q=8, L=4 sits
        # clearly on the horizontal side.
        h, _ = self.make_run("qd2", 100_000, 20, num_layers=4)
        v, _ = self.make_run("qd4", 100_000, 20, num_layers=4)
        assert h.comm.total_bytes < v.comm.total_bytes

    def test_horizontal_comm_grows_with_classes(self):
        b2, _ = self.make_run("qd2", 800, 400, num_classes=2)
        b6, _ = self.make_run("qd2", 800, 400, num_classes=6)
        assert b6.comm.total_bytes > 2.5 * b2.comm.total_bytes

    def test_vertical_comm_flat_in_classes(self):
        b2, _ = self.make_run("qd4", 800, 400, num_classes=2)
        b6, _ = self.make_run("qd4", 800, 400, num_classes=6)
        assert b6.comm.total_bytes < 1.5 * b2.comm.total_bytes

    def test_feature_parallel_avoids_placement_traffic(self):
        fp, _ = self.make_run("lightgbm-fp", 3000, 200)
        vero, _ = self.make_run("qd4", 3000, 200)
        assert fp.comm.total_bytes < vero.comm.total_bytes


class TestMemoryShape:
    """Figure 10(e)/(f): vertical histogram memory ~ horizontal / W."""

    def test_histogram_memory_ratio(self, setting):
        train, valid, cfg, binned, _ = setting
        cluster = ClusterConfig(num_workers=4)
        h = get_plan("qd2").build(cfg, cluster).fit(binned)
        v = get_plan("qd4").build(cfg, cluster).fit(binned)
        ratio = h.memory.histogram_bytes / v.memory.histogram_bytes
        assert 2.5 <= ratio <= 6.0  # ~W with grouping slack

    def test_vertical_data_slightly_larger(self, setting):
        """QD4 stores all labels; QD2 stores a label shard."""
        train, valid, cfg, binned, _ = setting
        cluster = ClusterConfig(num_workers=4)
        h = get_plan("qd2").build(cfg, cluster).fit(binned)
        v = get_plan("qd4").build(cfg, cluster).fit(binned)
        assert v.memory.data_bytes > 0 and h.memory.data_bytes > 0
        # per-worker data shards are ~ total/W in both cases
        total = binned.binned.nbytes
        assert h.memory.data_bytes < total
        assert v.memory.data_bytes < total

    def test_feature_parallel_stores_full_copy(self, setting):
        train, valid, cfg, binned, _ = setting
        cluster = ClusterConfig(num_workers=4)
        fp = get_plan("lightgbm-fp").build(cfg, cluster).fit(binned)
        v = get_plan("qd4").build(cfg, cluster).fit(binned)
        assert fp.memory.data_bytes > 2.5 * v.memory.data_bytes

    def test_sizehist_matches_formula(self, setting):
        """QD1 peak = active nodes x Sizehist at the widest layer."""
        train, valid, cfg, binned, _ = setting
        cluster = ClusterConfig(num_workers=2)
        result = get_plan("qd1").build(cfg, cluster).fit(binned)
        shape = WorkloadShape(binned.num_instances, binned.num_features,
                              2, cfg.num_layers, cfg.num_candidates)
        per_node = sizehist_bytes(shape)
        max_layer_nodes = 2 ** (cfg.num_layers - 2)
        assert result.memory.histogram_bytes <= \
            per_node * max_layer_nodes


class TestTimingReports:
    def test_reports_per_tree(self, setting):
        train, valid, cfg, binned, _ = setting
        result = get_plan("qd4").build(
            cfg, ClusterConfig(num_workers=3)).fit(binned)
        assert len(result.tree_reports) == cfg.num_trees
        for report in result.tree_reports:
            assert report.comp_seconds > 0
            assert report.comm_seconds > 0
            assert report.total_seconds == pytest.approx(
                report.comp_seconds + report.comm_seconds
            )

    def test_eval_time_axis_monotonic(self, setting):
        train, valid, cfg, binned, _ = setting
        result = get_plan("qd2").build(
            cfg, ClusterConfig(num_workers=3)).fit(binned, valid=valid)
        times = [e.elapsed_seconds for e in result.evals]
        assert times == sorted(times)
        assert times[0] > 0


class TestFactory:
    def test_unknown_system(self):
        with pytest.raises(KeyError, match="unknown plan"):
            get_plan("catboost").build(TrainConfig(), ClusterConfig())

    def test_case_insensitive(self):
        system = get_plan("VERO").build(TrainConfig(), ClusterConfig())
        assert system.name == "vero"
