"""ExecutionPlan architecture tests.

Three layers of protection around the strategy refactor:

* every registry plan trains bit-identical trees to the single-process
  oracle, and reproduces what the frozen pre-refactor quadrant classes
  trained — model checksum, per-kind traffic and memory, recorded once in
  ``tests/data/golden/plan_equivalence_v1.json`` — on fixed seeds;
* per-plan ``comm_bytes`` stays inside the Section 3 cost-model bounds
  used by the quadrant tests;
* the advisor's recommendation is directly executable
  (``recommend(...).plan.build(...).fit(...)``).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import (ClusterConfig, GBDT, TrainConfig, get_plan,
                   make_classification, plan_keys)
from repro.bench.harness import run_point
from repro.config import NetworkModel
from repro.core.serialize import ensemble_to_dict, payload_checksum
from repro.data.dataset import bin_dataset
from repro.systems import PLANS, PlanExecutor
from repro.systems.advisor import recommend
from repro.systems.costmodel import (WorkloadShape,
                                     horizontal_comm_bytes_per_tree,
                                     vertical_comm_bytes_per_tree)
from repro.systems.plans import ExecutionPlan
from repro.systems.strategies import (AGGREGATIONS, INDEX_PLANS, PARTITIONS,
                                      STORAGES)

#: every registry plan with a pre-refactor equivalent
ALL_PLANS = ["qd1", "qd2", "qd2-ps", "qd2-fp", "qd3", "qd3-pure", "vero"]
VERTICAL_PLANS = ["qd2-fp", "qd3", "qd3-pure", "vero", "qd4-blocked"]
HORIZONTAL_PLANS = ["qd1", "qd2", "qd2-ps"]

#: what the frozen pre-refactor quadrant classes trained, one record per
#: :data:`GOLDEN_CASES` entry (written by ``make_plan_equivalence.py``)
GOLDEN = (Path(__file__).resolve().parents[1] / "data" / "golden"
          / "plan_equivalence_v1.json")


def full_signature(tree):
    """Exact structural summary: splits, thresholds, raw leaf weights."""
    parts = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.is_leaf:
            parts.append(
                (nid, "leaf",
                 tuple(np.asarray(node.weight).ravel().tolist()))
            )
        else:
            parts.append((nid, node.split.feature, node.split.bin,
                          node.split.default_left,
                          float(node.threshold)))
    return tuple(parts)


def ensemble_signature(ensemble):
    return tuple(full_signature(tree) for tree in ensemble.trees)


def make_binary_workload():
    dataset = make_classification(500, 40, density=0.4, seed=97)
    cfg = TrainConfig(num_trees=3, num_layers=5, num_candidates=8)
    binned = bin_dataset(dataset, cfg.num_candidates)
    return cfg, dataset, binned


def make_multiclass_workload():
    dataset = make_classification(360, 25, num_classes=4, density=0.5,
                                  seed=11)
    cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=6,
                      objective="multiclass", num_classes=4)
    binned = bin_dataset(dataset, cfg.num_candidates)
    return cfg, dataset, binned


WORKLOADS = {"binary": make_binary_workload,
             "multiclass": make_multiclass_workload}

#: (workload, workers, plan key): every plan at W=4 and W=5, plus the
#: multiclass plans at W=3
GOLDEN_CASES = (
    [("binary", workers, key) for workers in (4, 5) for key in ALL_PLANS]
    + [("multiclass", 3, key) for key in ("qd1", "qd2", "qd3", "vero")]
)


def case_id(workload, workers, key):
    return f"{workload}-W{workers}-{key}"


def golden_record(result):
    """What one golden case pins: the model (gains included) by
    checksum, the per-kind traffic and both memory buckets."""
    return {
        "model_sha256": payload_checksum(ensemble_to_dict(result.ensemble)),
        "bytes_by_kind": dict(result.comm.bytes_by_kind),
        "data_bytes": result.memory.data_bytes,
        "histogram_bytes": result.memory.histogram_bytes,
    }


@pytest.fixture(scope="module")
def workload():
    return make_binary_workload()


@pytest.fixture(scope="module")
def multiclass_workload():
    return make_multiclass_workload()


class TestRegistry:
    def test_all_quadrants_have_plans(self):
        assert set(ALL_PLANS) <= set(plan_keys())

    def test_aliases_resolve(self):
        assert get_plan("xgboost") is PLANS["qd1"]
        assert get_plan("LIGHTGBM") is PLANS["qd2"]
        assert get_plan("dimboost") is PLANS["qd2-ps"]
        assert get_plan("qd4") is PLANS["vero"]

    def test_unknown_plan_raises(self):
        with pytest.raises(KeyError, match="unknown plan"):
            get_plan("qd9")

    def test_axes_are_validated(self):
        with pytest.raises(ValueError, match="unknown storage"):
            ExecutionPlan(key="x", quadrant="QD0", name="x",
                          description="", partition="horizontal",
                          storage="diagonal", index="node-to-instance",
                          aggregation="all-reduce")

    def test_replace_derives_custom_plan(self):
        custom = get_plan("vero").replace(key="custom",
                                          storage="blocked-row",
                                          index="two-phase")
        assert custom.axes()["storage"] == "blocked-row"
        assert get_plan("vero").storage == "row"  # original untouched

    def test_build_returns_executor(self, workload):
        cfg, _, _ = workload
        system = get_plan("qd2").build(cfg, ClusterConfig(num_workers=3))
        assert isinstance(system, PlanExecutor)
        assert system.quadrant == "QD2"

    def test_get_plan_accepts_plan_keys(self, workload):
        cfg, _, _ = workload
        system = get_plan("qd3-pure").build(cfg, ClusterConfig(3))
        assert system.plan.key == "qd3-pure"

    def test_ps_plan_rejects_multiclass(self, multiclass_workload):
        cfg, _, _ = multiclass_workload
        with pytest.raises(ValueError, match="multi-classification"):
            get_plan("qd2-ps").build(cfg, ClusterConfig(3))


class TestCompositions:
    """Every point of the 3 x 3 x 5 x 5 plan space either is refused when
    the plan is composed (a ``ValueError`` naming both axes) or trains to
    completion — never a failure partway through ``fit``."""

    @pytest.fixture(scope="class")
    def tiny(self):
        dataset = make_classification(80, 6, density=0.6, seed=1)
        cfg = TrainConfig(num_trees=2, num_layers=3, num_candidates=6)
        binned = bin_dataset(dataset, cfg.num_candidates)
        cluster = ClusterConfig(num_workers=2)
        # node totals are per-replica partial sums on horizontal plans and
        # one sum otherwise: the only float difference between plans
        twins = {
            key: payload_checksum(ensemble_to_dict(
                get_plan(key).build(cfg, cluster).fit(binned).ensemble))
            for key in ("qd2", "vero")
        }
        return cfg, binned, cluster, twins

    @pytest.mark.parametrize("partition,storage,index,aggregation",
                             list(itertools.product(
                                 PARTITIONS, STORAGES, INDEX_PLANS,
                                 AGGREGATIONS)))
    def test_composition_is_refused_or_runs(self, tiny, partition, storage,
                                            index, aggregation):
        cfg, binned, cluster, twins = tiny
        axes = dict(partition=partition, storage=storage, index=index,
                    aggregation=aggregation)
        try:
            plan = ExecutionPlan(key="x", quadrant="QD0", name="x",
                                 description="", **axes)
        except ValueError as refused:
            message = str(refused)
            named = [axis for axis, value in axes.items()
                     if f"{axis} strategy {value!r}" in message]
            assert len(named) == 2, message
            return
        result = plan.build(cfg, cluster).fit(binned)
        twin = twins["qd2" if partition == "horizontal" else "vero"]
        assert payload_checksum(ensemble_to_dict(result.ensemble)) == twin

    def test_refusals_follow_the_declared_requirements(self):
        runnable = 0
        for axes in itertools.product(PARTITIONS, STORAGES, INDEX_PLANS,
                                      AGGREGATIONS):
            partition, storage, index, aggregation = axes
            fits = ((partition == "horizontal")
                    == (aggregation in ("all-reduce", "reduce-scatter",
                                        "parameter-server"))
                    and (storage == "column"
                         or index not in ("instance-to-node",
                                          "columnwise")))
            try:
                ExecutionPlan("x", "QD0", "x", "", *axes)
            except ValueError:
                assert not fits, axes
            else:
                assert fits, axes
                runnable += 1
        assert runnable == 7 * 11


class TestOracleEquivalence:
    @pytest.mark.parametrize("key", VERTICAL_PLANS)
    def test_vertical_plans_match_oracle(self, key, workload):
        cfg, dataset, binned = workload
        oracle = GBDT(cfg).fit(dataset, binned=binned)
        dist = get_plan(key).build(cfg, ClusterConfig(4)).fit(binned)
        assert ensemble_signature(oracle.ensemble) == \
            ensemble_signature(dist.ensemble)

    @pytest.mark.parametrize("key", ALL_PLANS)
    def test_every_plan_matches_oracle_single_worker(self, key,
                                                     workload):
        cfg, dataset, binned = workload
        oracle = GBDT(cfg).fit(dataset, binned=binned)
        dist = get_plan(key).build(cfg, ClusterConfig(1)).fit(binned)
        assert ensemble_signature(oracle.ensemble) == \
            ensemble_signature(dist.ensemble)


class TestSharedAcceptanceRule:
    """Every plan accepts splits by the oracle's one rule
    (:func:`repro.core.split.accepted_split`): ``min_node_instances``
    stops the search, ``min_split_gain`` drops weak splits."""

    CONSTRAINTS = {"min_split_gain": 0.5, "min_node_instances": 40}

    @pytest.fixture(scope="class")
    def data(self):
        dataset = make_classification(600, 30, density=0.4, seed=3)
        return dataset, bin_dataset(dataset, 20)

    @staticmethod
    def config(**constraint):
        return TrainConfig(num_trees=3, num_layers=6, num_candidates=20,
                           **constraint)

    @staticmethod
    def splits(ensemble):
        return [node.split for tree in ensemble.trees
                for node in tree.internal_nodes()]

    def test_both_constraints_prune_the_oracle(self, data):
        dataset, binned = data
        counts = {name: len(self.splits(GBDT(self.config(
            **{name: value})).fit(dataset, binned=binned).ensemble))
            for name, value in self.CONSTRAINTS.items()}
        free = GBDT(self.config()).fit(dataset, binned=binned)
        assert len(self.splits(free.ensemble)) == 61
        assert counts == {"min_split_gain": 56, "min_node_instances": 27}

    @pytest.mark.parametrize("name", sorted(CONSTRAINTS))
    @pytest.mark.parametrize("key", VERTICAL_PLANS)
    def test_vertical_plans_match_the_oracle(self, key, name, data):
        dataset, binned = data
        cfg = self.config(**{name: self.CONSTRAINTS[name]})
        oracle = GBDT(cfg).fit(dataset, binned=binned)
        dist = get_plan(key).build(cfg, ClusterConfig(3)).fit(binned)
        assert ensemble_signature(dist.ensemble) == \
            ensemble_signature(oracle.ensemble)

    @pytest.mark.parametrize("key", HORIZONTAL_PLANS)
    def test_horizontal_plans_drop_every_split_below_the_gain(self, key,
                                                             data):
        _, binned = data
        free = get_plan(key).build(self.config(), ClusterConfig(3)) \
            .fit(binned)
        assert min(s.gain for s in self.splits(free.ensemble)) < 0.5
        kept = get_plan(key).build(self.config(min_split_gain=0.5),
                                   ClusterConfig(3)).fit(binned)
        gains = [s.gain for s in self.splits(kept.ensemble)]
        assert gains and min(gains) >= 0.5


class TestLegacyEquivalence:
    """The frozen pre-refactor classes are the golden reference: same
    model, same traffic, same memory — the refactor changed the
    architecture and nothing else.  Their runs are recorded in
    :data:`GOLDEN`; the plans must reproduce every record exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())["cases"]

    @pytest.mark.parametrize("case", GOLDEN_CASES,
                             ids=[case_id(*case) for case in GOLDEN_CASES])
    def test_plan_matches_legacy_golden(self, case, golden):
        name, workers, key = case
        cfg, _, binned = WORKLOADS[name]()
        result = get_plan(key).build(cfg, ClusterConfig(workers)) \
            .fit(binned)
        assert golden_record(result) == golden[case_id(*case)]

    def test_blocked_plan_matches_vero_trees(self, workload):
        """The blockified layout holds the same entries, so qd4-blocked
        must reproduce Vero's trees and traffic exactly."""
        cfg, _, binned = workload
        vero = get_plan("vero").build(cfg, ClusterConfig(4)).fit(binned)
        blocked = get_plan("qd4-blocked").build(cfg, ClusterConfig(4)) \
            .fit(binned)
        assert ensemble_signature(vero.ensemble) == \
            ensemble_signature(blocked.ensemble)
        assert vero.comm.total_bytes == blocked.comm.total_bytes


class TestCommAccounting:
    """Per-plan comm_bytes stays inside the Section 3 cost model, with
    the same tolerances as tests/systems/test_quadrants.py."""

    @pytest.mark.parametrize("key", HORIZONTAL_PLANS)
    def test_horizontal_plans_bounded_by_model(self, key):
        dataset = make_classification(800, 500, density=0.3, seed=5)
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
        binned = bin_dataset(dataset, cfg.num_candidates)
        result = get_plan(key).build(cfg, ClusterConfig(4)).fit(binned)
        shape = WorkloadShape(800, 500, 4, cfg.num_layers,
                              cfg.num_candidates)
        per_tree = result.comm.total_bytes / 2
        # the Section 3.1.3 model counts Sizehist * W per node — exactly
        # the PS push; a ring all-reduce moves 2(W-1)/W of that, and a
        # reduce-scatter (W-1)/W (always below the model)
        bound = horizontal_comm_bytes_per_tree(shape)
        if key == "qd1":
            bound *= 2 * (4 - 1) / 4
        assert per_tree <= bound * 1.05

    @pytest.mark.parametrize("key", ["qd3", "qd3-pure", "vero",
                                     "qd4-blocked"])
    def test_vertical_plans_bounded_by_model(self, key):
        dataset = make_classification(3000, 100, density=0.3, seed=6)
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
        binned = bin_dataset(dataset, cfg.num_candidates)
        result = get_plan(key).build(cfg, ClusterConfig(4)).fit(binned)
        shape = WorkloadShape(3000, 100, 4, cfg.num_layers,
                              cfg.num_candidates)
        per_tree = result.comm.total_bytes / 2
        # bitmap traffic plus small split exchanges
        assert per_tree <= vertical_comm_bytes_per_tree(shape) * 1.2

    def test_feature_parallel_moves_only_split_infos(self, workload):
        cfg, _, binned = workload
        result = get_plan("qd2-fp").build(cfg, ClusterConfig(4)) \
            .fit(binned)
        kinds = set(result.comm.bytes_by_kind)
        assert kinds <= {"split-exchange"}


class TestAdvisorPlans:
    def test_recommendation_is_executable(self, workload):
        cfg, _, binned = workload
        shape = WorkloadShape(
            num_instances=binned.num_instances,
            num_features=binned.num_features,
            num_workers=4, num_layers=cfg.num_layers,
            num_candidates=cfg.num_candidates,
        )
        rec = recommend(shape, avg_nnz_per_instance=16.0,
                        network=NetworkModel.laboratory())
        assert rec.plan is PLANS[rec.plan_key]
        system = rec.plan.build(cfg, ClusterConfig(4))
        result = system.fit(binned)
        assert len(result.ensemble.trees) == cfg.num_trees

    def test_every_estimate_names_a_plan(self):
        shape = WorkloadShape(2_000_000, 30_000, 8, 8, 20, 5)
        rec = recommend(shape, avg_nnz_per_instance=100.0)
        for est in rec.ranking:
            assert est.plan_key in PLANS
            assert est.plan.quadrant == est.quadrant


class TestHarnessPlans:
    def test_run_point_accepts_plan_object(self, workload):
        cfg, _, binned = workload
        custom = get_plan("vero").replace(key="custom-blocked",
                                          storage="blocked-row",
                                          index="two-phase")
        point = run_point(custom, binned, cfg, ClusterConfig(3),
                          num_trees=2, label="custom")
        assert point.system == "custom-blocked"
        assert point.comp_seconds > 0

    def test_run_point_accepts_plan_key(self, workload):
        cfg, _, binned = workload
        point = run_point("qd3-pure", binned, cfg, ClusterConfig(3),
                          num_trees=2)
        assert point.system == "qd3-pure"


class TestLateOverrides:
    """Instance-attribute knobs the ablation benchmarks rely on keep
    working after the refactor."""

    def test_grouping_override(self, workload):
        cfg, _, binned = workload
        signatures = []
        for strategy in ("greedy", "round-robin", "hash"):
            system = get_plan("vero").build(cfg, ClusterConfig(3))
            system.grouping = strategy
            signatures.append(
                ensemble_signature(system.fit(binned).ensemble))
        assert signatures[0] == signatures[1] == signatures[2]

    def test_subtraction_toggle_same_trees(self, workload):
        cfg, _, binned = workload
        on = get_plan("qd2").build(cfg, ClusterConfig(3))
        off = get_plan("qd2").build(cfg, ClusterConfig(3))
        off.use_subtraction = False
        assert ensemble_signature(on.fit(binned).ensemble) == \
            ensemble_signature(off.fit(binned).ensemble)
