"""What replaced the parallel copies in the trainer stack: one plan
resolver, one pricing routine, one phase clock."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, TrainConfig
from repro.config import NetworkModel
from repro.systems import (ALIASES, PLANS, PlanExecutor, WorkloadShape,
                           get_plan, price_plans, recommend)
from repro.systems import base as base_module
from repro.systems.advisor import PLAN_OF_QUADRANT, backend_constants
from repro.systems.base import PHASES, WorkerClock
from repro.systems.costmodel import (expected_recovery_seconds_per_tree,
                                     horizontal_histogram_memory_bytes,
                                     vertical_histogram_memory_bytes,
                                     workload_of)

CONFIG = TrainConfig(num_trees=1, num_layers=3, num_candidates=4)
CLUSTER = ClusterConfig(num_workers=2)
NAMES = sorted(set(PLANS) | set(ALIASES))


# -- one plan resolver ---------------------------------------------------

@pytest.mark.parametrize("module_name", [
    "repro.systems.qd1", "repro.systems.qd2", "repro.systems.qd3",
    "repro.systems.vero", "repro.systems.feature_parallel",
])
def test_per_quadrant_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


@pytest.mark.parametrize("name", NAMES)
def test_get_plan_builds_every_key_and_alias(name):
    plan = get_plan(name)
    for spelling in (name, name.upper(), name.title()):
        system = get_plan(spelling).build(CONFIG, CLUSTER)
        assert isinstance(system, PlanExecutor)
        assert system.plan is plan
        assert (system.name, system.quadrant) == (plan.name, plan.quadrant)


def test_get_plan_unknown_name_lists_what_is_known():
    with pytest.raises(KeyError, match="unknown plan 'catboost'") as err:
        get_plan("catboost").build(CONFIG, CLUSTER)
    for name in NAMES:
        assert name in str(err.value)


# -- one pricing routine -------------------------------------------------

SHAPES = st.builds(
    WorkloadShape,
    num_instances=st.integers(1, 10**7),
    num_features=st.integers(1, 10**5),
    num_workers=st.integers(1, 64),
    num_layers=st.integers(1, 12),
    num_candidates=st.integers(1, 64),
    num_classes=st.sampled_from([1, 3, 10, 100]),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=SHAPES,
    avg_nnz=st.floats(0.01, 500.0),
    gbps=st.sampled_from([0.01, 0.3, 1.0, 10.0]),
    scan_rate=st.sampled_from([1e6, 5e7, 3.3e8]),
    codec=st.sampled_from(["none", "sparse", "f32", "f16"]),
    backend=st.sampled_from(["", "numpy", "numba", "pyloop"]),
    crash_rate=st.sampled_from([0.0, 0.1, 1.5]),
)
def test_recommend_ranks_the_price_plans_records(
        shape, avg_nnz, gbps, scan_rate, codec, backend, crash_rate):
    network = NetworkModel(bandwidth_gbps=gbps)
    rec = recommend(shape, avg_nnz, network, scan_rate=scan_rate,
                    crash_rate=crash_rate, codec=codec, backend=backend)
    costs = price_plans(shape, avg_nnz, network,
                        backend_constants(scan_rate, backend), codec=codec,
                        crash_rate=crash_rate)
    assert sorted(c.plan_key for c in rec.ranking) == sorted(
        PLAN_OF_QUADRANT.values())
    for cost in rec.ranking:
        assert cost == costs[cost.plan_key]
    for key, cost in costs.items():
        vertical = PLANS[key].partition != "horizontal"
        assert cost.histogram_memory_bytes == (
            vertical_histogram_memory_bytes(shape) if vertical
            else horizontal_histogram_memory_bytes(shape))
        assert cost.recovery_seconds == expected_recovery_seconds_per_tree(
            shape, avg_nnz, network.bytes_per_second, crash_rate,
            vertical=vertical)
        assert cost.total_seconds == (
            cost.comp_seconds + cost.comm_seconds + cost.recovery_seconds)


def test_workload_of_reads_the_shape_off_a_binned_dataset(small_sparse):
    from repro.data.dataset import bin_dataset

    config = TrainConfig(num_layers=5, num_candidates=8,
                         objective="multiclass", num_classes=4)
    binned = bin_dataset(small_sparse, config.num_candidates)
    shape, avg_nnz = workload_of(binned, config, ClusterConfig(3))
    assert shape == WorkloadShape(
        num_instances=900, num_features=300, num_workers=3, num_layers=5,
        num_candidates=8, num_classes=4)
    assert avg_nnz == binned.binned.nnz / 900


# -- one phase clock -----------------------------------------------------

@pytest.fixture
def ticking(monkeypatch):
    """A fake host clock: every read advances by the next scripted step."""
    steps = []

    class FakeTime:
        now = 0.0

        @classmethod
        def perf_counter(cls):
            cls.now += steps.pop(0) if steps else 0.0
            return cls.now

    monkeypatch.setattr(base_module, "time", FakeTime)
    return steps


class TestWorkerClockTimed:
    def test_charges_speed_scaled_seconds_to_one_worker_and_phase(
            self, ticking):
        clock = WorkerClock(3, speeds=(1.0, 0.5, 2.0))
        ticking[:] = [0.0, 0.25]        # enter, exit: a 0.25 s block
        with clock.timed(1, "split-find") as block:
            pass
        assert block.seconds == 0.25
        assert clock.seconds.tolist() == [0.0, 0.5, 0.0]
        assert clock.phase_seconds["split-find"].tolist() == [0.0, 0.5, 0.0]
        for phase in set(PHASES) - {"split-find"}:
            assert not clock.phase_seconds[phase].any()

    def test_no_worker_means_charge_all(self, ticking):
        clock = WorkerClock(3, speeds=(1.0, 0.5, 2.0))
        reference = WorkerClock(3, speeds=(1.0, 0.5, 2.0))
        ticking[:] = [0.0, 0.5]
        with clock.timed(None, "codec"):
            pass
        reference.charge_all(0.5, phase="codec")
        assert clock.seconds.tolist() == reference.seconds.tolist() \
            == [0.5, 1.0, 0.25]
        assert clock.phase_breakdown() == reference.phase_breakdown()

    def test_defaults_match_charge_all_defaults(self, ticking):
        clock = WorkerClock(2)
        ticking[:] = [0.0, 1.0]
        with clock.timed():
            pass
        assert clock.phase_seconds["histogram"].tolist() == [1.0, 1.0]

    def test_blocks_accumulate_like_separate_charges(self, ticking):
        clock = WorkerClock(2)
        ticking[:] = [0.0, 0.125, 1.0, 0.5]
        with clock.timed(0, "node-split"):
            pass
        with clock.timed(0, "node-split"):
            pass
        assert clock.phase_seconds["node-split"].tolist() == [0.625, 0.0]
        assert clock.elapsed == 0.625

    def test_a_block_that_raises_charges_nothing(self, ticking):
        clock = WorkerClock(2)
        ticking[:] = [0.0, 3.0]
        with pytest.raises(RuntimeError):
            with clock.timed(0, "histogram"):
                raise RuntimeError("crash")
        assert not clock.seconds.any()

    def test_unknown_phase_is_an_error(self):
        clock = WorkerClock(1)
        with pytest.raises(KeyError):
            with clock.timed(0, "sketch"):
                pass

    def test_measures_real_time_and_is_slotted(self):
        clock = WorkerClock(1)
        with clock.timed(0, "gradient") as block:
            np.arange(1000).sum()
        assert block.seconds > 0.0
        assert clock.seconds[0] == block.seconds
        assert not hasattr(block, "__dict__")


# -- one codec negotiation on the histogram-aggregation path -------------

class TestLayerHistsOverWire:
    @staticmethod
    def _executor(codec, binned):
        from repro.systems.executor import TrainingSession

        config = TrainConfig(num_trees=1, num_layers=3, num_candidates=8,
                             codec=codec)
        system = get_plan("qd2").build(config, ClusterConfig(3))
        session = TrainingSession(system, binned)
        grad, hess = system.loss.gradients(binned.labels,
                                           session.state.scores)
        clock = WorkerClock(3)
        system.partition.compute_stats(system, [0], grad, hess, clock)
        system.index_plan.build_layer(system, [0], grad, hess, clock)
        return system

    @pytest.fixture(scope="class")
    def binned(self, small_sparse):
        from repro.data.dataset import bin_dataset

        return bin_dataset(small_sparse, 8)

    def test_identity_stack_hands_back_the_stores_histograms(self, binned):
        from repro.systems.strategies import _layer_hists_over_wire

        system = self._executor("", binned)
        clock = WorkerClock(3)
        shipped = dict(_layer_hists_over_wire(system, [0], clock,
                                              "reducescatter"))
        assert all(got is store.get(0) for got, store
                   in zip(shipped[0], system.stores))
        assert not clock.seconds.any()
        (record,) = system.net.records
        assert record.kind == "hist-aggregation"
        assert system.net.snapshot().codec_savings_by_kind() == {}

    def test_codec_stack_round_trips_and_charges_the_codec_phase(
            self, binned):
        from repro.core.histogram import Histogram
        from repro.systems.strategies import _layer_hists_over_wire

        system = self._executor("sparse", binned)
        clock = WorkerClock(3)
        shipped = dict(_layer_hists_over_wire(system, [0], clock,
                                              "reducescatter"))
        # the receiving end accumulate-decodes: one aggregate per node,
        # the worker-order sum of the stores' histograms bit for bit
        stored = [store.get(0) for store in system.stores]
        aggregate = shipped[0]
        assert isinstance(aggregate, Histogram)
        assert all(aggregate is not hist for hist in stored)
        expected = stored[0].copy()
        for hist in stored[1:]:
            expected.add_inplace(hist)
        assert aggregate.grad.tobytes() == expected.grad.tobytes()
        assert aggregate.hess.tobytes() == expected.hess.tobytes()
        assert (clock.phase_seconds["codec"] > 0).all()
        assert clock.seconds.tolist() \
            == clock.phase_seconds["codec"].tolist()
        # the collective is charged the encoded sizes, not the dense ones
        codec = system.codec.histogram
        encoded = [codec.encode(hist).nbytes for hist in stored]
        (record,) = system.net.records
        assert record.kind == "hist-aggregation"
        assert record.nbytes == int(sum(2 / 3 * nbytes
                                        for nbytes in encoded))
