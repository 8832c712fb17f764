"""Chaos/conformance harness for the fault-injection subsystem.

The contract under test (DESIGN.md §9): for *any* recoverable seeded
fault schedule, on *every* plan in the registry,

1. the final model is bit-identical to the fault-free run,
2. the traffic ledger's unprefixed kinds equal the fault-free ledger
   exactly, and the byte delta is exactly the dedicated ``retry:*`` /
   ``recovery:*`` kinds,
3. simulated communication time is monotonically >= the fault-free
   baseline, and
4. the same schedule replays bit-for-bit.

Three pinned seeds make the CI ``chaos`` job reproducible; the
hypothesis harness then samples arbitrary schedules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, TrainConfig, make_classification
from repro.core.kernels import available_backends
from repro.cluster.codecs import DeltaIndexCodec
from repro.cluster.faults import (FaultInjector, FaultPlan,
                                  UnrecoverableFaultError)
from repro.data.dataset import bin_dataset
from repro.systems.executor import TreeCheckpoint
from repro.systems.plans import get_plan, plan_keys
from repro.systems.strategies import AGGREGATIONS

#: the CI chaos job's pinned fault seeds
PINNED_SEEDS = (101, 202, 303)

FAULT_PREFIXES = ("retry:", "recovery:")


def tree_signature(tree):
    parts = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.is_leaf:
            parts.append((nid, "leaf", tuple(np.round(node.weight, 12))))
        else:
            parts.append((nid, node.split.feature, node.split.bin,
                          node.split.default_left))
    return tuple(parts)


def split_kinds(stats):
    """(base kinds, fault kinds) of a CommStats bytes ledger."""
    base = {k: v for k, v in stats.bytes_by_kind.items()
            if not k.startswith(FAULT_PREFIXES)}
    fault = {k: v for k, v in stats.bytes_by_kind.items()
             if k.startswith(FAULT_PREFIXES)}
    return base, fault


@pytest.fixture(scope="module")
def binned():
    dataset = make_classification(400, 20, density=0.4, seed=7)
    return bin_dataset(dataset, 8)


def run_pair(plan_key, binned, faults, num_workers=4, num_trees=3,
             num_layers=4, codec=""):
    """(fault-free result, faulty result, faulty system)."""
    base_cfg = TrainConfig(num_trees=num_trees, num_layers=num_layers,
                           num_candidates=8, codec=codec)
    fault_cfg = TrainConfig(num_trees=num_trees, num_layers=num_layers,
                            num_candidates=8, faults=faults, codec=codec)
    cluster = ClusterConfig(num_workers=num_workers)
    clean = get_plan(plan_key).build(base_cfg, cluster).fit(binned)
    system = get_plan(plan_key).build(fault_cfg, cluster)
    faulty = system.fit(binned)
    return clean, faulty, system


class TestChaosConformance:
    """Pinned-seed conformance: every plan x every CI fault seed."""

    @pytest.mark.parametrize("plan_key", plan_keys())
    @pytest.mark.parametrize("fault_seed", PINNED_SEEDS)
    def test_recoverable_schedule_is_exact(self, binned, plan_key,
                                           fault_seed):
        faults = f"{fault_seed}:crash=2,drop=0.08,timeout=0.03"
        clean, faulty, system = run_pair(plan_key, binned, faults)

        # 1. bit-identical model
        assert len(clean.ensemble.trees) == len(faulty.ensemble.trees)
        for t_clean, t_faulty in zip(clean.ensemble.trees,
                                     faulty.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_faulty)

        # 2. exact traffic accounting: base kinds unchanged, delta is
        #    exactly the dedicated retry/recovery kinds
        base_kinds, fault_kinds = split_kinds(faulty.comm)
        assert base_kinds == clean.comm.bytes_by_kind
        assert faulty.comm.total_bytes - clean.comm.total_bytes == \
            sum(fault_kinds.values())
        clean_seconds = clean.comm.seconds_by_kind
        for kind, seconds in faulty.comm.seconds_by_kind.items():
            if not kind.startswith(FAULT_PREFIXES):
                assert seconds == pytest.approx(clean_seconds[kind],
                                                rel=1e-12)

        # 3. faults only ever cost simulated time
        assert faulty.comm.total_seconds >= clean.comm.total_seconds

        # every fired crash produced exactly one recovery record
        counters = system.injector.counters
        assert len(system.recovery_log) == counters.crashes
        expected_policy = AGGREGATIONS[
            get_plan(plan_key).aggregation].recovery_policy
        assert all(rec.policy == expected_policy
                   for rec in system.recovery_log)
        # the retry ledger matches the injected transport faults
        retries = sum(
            1 for rec in faulty.comm.bytes_by_kind
            if rec.startswith("retry:")
        )
        if counters.transport_events == 0:
            assert retries == 0

    @pytest.mark.parametrize("plan_key", ["qd2", "vero"])
    def test_schedule_replays_bit_identical(self, binned, plan_key):
        faults = "11:crash=1,drop=0.1"
        _, first, _ = run_pair(plan_key, binned, faults)
        _, second, _ = run_pair(plan_key, binned, faults)
        assert first.comm.bytes_by_kind == second.comm.bytes_by_kind
        assert first.comm.total_seconds == second.comm.total_seconds
        for t1, t2 in zip(first.ensemble.trees, second.ensemble.trees):
            assert tree_signature(t1) == tree_signature(t2)


class TestChaosWithCodec:
    """Faults compose with the sparse wire codec (DESIGN.md §11): the
    model stays bit-identical to the *dense fault-free* baseline, the
    fault accounting contract holds on the (smaller) encoded ledger, and
    the ``codec:`` savings dimension is exactly raw minus wire."""

    @pytest.mark.parametrize("plan_key", plan_keys())
    def test_sparse_codec_under_faults_all_plans(self, binned, plan_key):
        faults = f"{PINNED_SEEDS[0]}:crash=1,drop=0.08"
        cluster = ClusterConfig(num_workers=4)
        kwargs = dict(num_trees=3, num_layers=4, num_candidates=8)
        dense = get_plan(plan_key).build(TrainConfig(**kwargs),
                                         cluster).fit(binned)
        clean, faulty, system = run_pair(plan_key, binned, faults,
                                         codec="sparse")

        # 1. lossless codec + faults still bit-identical to the dense
        #    fault-free baseline
        assert len(dense.ensemble.trees) == len(faulty.ensemble.trees)
        for t_dense, t_faulty in zip(dense.ensemble.trees,
                                     faulty.ensemble.trees):
            assert tree_signature(t_dense) == tree_signature(t_faulty)

        # 2. the §9 contract holds on the encoded ledger: base wire
        #    kinds equal the codec fault-free run, delta is exactly the
        #    retry:/recovery: kinds
        base_kinds, fault_kinds = split_kinds(faulty.comm)
        assert base_kinds == clean.comm.bytes_by_kind
        assert faulty.comm.total_bytes - clean.comm.total_bytes == \
            sum(fault_kinds.values())
        assert faulty.comm.total_seconds >= clean.comm.total_seconds

        # 3. raw accounting: what the codec run *would have* shipped
        #    dense equals what the dense run actually shipped, kind by
        #    kind (fault kinds excluded — their schedules differ only in
        #    how many bytes each retransmit carries)
        raw_base = {k: v for k, v in clean.comm.raw_bytes_by_kind.items()
                    if not k.startswith(FAULT_PREFIXES)}
        assert raw_base == dense.comm.bytes_by_kind

        # 4. the codec: savings dimension is exactly raw minus wire
        savings = faulty.comm.codec_savings_by_kind()
        assert savings, "sparse codec saved nothing on this plan"
        for kind, saved in savings.items():
            base_kind = kind[len("codec:"):]
            assert saved == (faulty.comm.raw_bytes_by_kind[base_kind]
                             - faulty.comm.bytes_by_kind[base_kind])
            assert saved > 0

    @pytest.mark.parametrize("fault_seed", PINNED_SEEDS)
    @pytest.mark.parametrize("plan_key", ["qd2", "vero"])
    def test_pinned_seeds_sparse_codec_replay(self, binned, plan_key,
                                              fault_seed):
        faults = f"{fault_seed}:crash=2,drop=0.08,timeout=0.03"
        clean, faulty, _ = run_pair(plan_key, binned, faults,
                                    codec="sparse")
        for t_clean, t_faulty in zip(clean.ensemble.trees,
                                     faulty.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_faulty)
        base_kinds, fault_kinds = split_kinds(faulty.comm)
        assert base_kinds == clean.comm.bytes_by_kind
        assert faulty.comm.total_bytes - clean.comm.total_bytes == \
            sum(fault_kinds.values())
        _, second, _ = run_pair(plan_key, binned, faults, codec="sparse")
        assert second.comm.bytes_by_kind == faulty.comm.bytes_by_kind
        assert second.comm.raw_bytes_by_kind == \
            faulty.comm.raw_bytes_by_kind
        assert second.comm.total_seconds == faulty.comm.total_seconds


    @pytest.mark.parametrize("plan_key", plan_keys())
    def test_recovery_rebuilds_from_the_decoded_index_state(
            self, binned, plan_key, monkeypatch):
        """The restored replica is built from the index state that
        crossed the wire, not from the sender's local snapshot: an index
        codec that stops being lossless must change the model, on every
        plan (one recovery path for every partition and layout)."""
        clean, _, _ = run_pair(plan_key, binned, "101:crash=1",
                               codec="sparse")
        decode = DeltaIndexCodec.decode

        def lossy_decode(self, enc):
            state = decode(self, enc)
            state[: state.size // 2] = -1   # half the rows lost
            return state

        monkeypatch.setattr(DeltaIndexCodec, "decode", lossy_decode)
        cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8,
                          faults="101:crash=1", codec="sparse")
        system = get_plan(plan_key).build(cfg, ClusterConfig(num_workers=4))
        faulty = system.fit(binned)
        assert system.recovery_log
        assert [tree_signature(t) for t in faulty.ensemble.trees] != \
            [tree_signature(t) for t in clean.ensemble.trees]


@settings(max_examples=12, deadline=None)
@given(
    fault_seed=st.integers(0, 10_000),
    crashes=st.integers(0, 3),
    drop=st.floats(0.0, 0.15),
    timeout=st.floats(0.0, 0.1),
    num_workers=st.integers(2, 5),
    plan_key=st.sampled_from(plan_keys()),
)
def test_property_any_schedule_is_recoverable_and_exact(
        fault_seed, crashes, drop, timeout, num_workers, plan_key):
    """Hypothesis sweep of the full schedule space: model bit-identity,
    exact ledger accounting and time monotonicity for arbitrary
    recoverable schedules on arbitrary plans."""
    dataset = make_classification(240, 12, density=0.5, seed=3)
    binned = bin_dataset(dataset, 6)
    faults = (f"{fault_seed}:crash={crashes},drop={drop:.4f},"
              f"timeout={timeout:.4f}")
    if not FaultPlan.parse(faults).active:
        faults = f"{fault_seed}:crash=1"
    clean, faulty, system = run_pair(
        plan_key, binned, faults, num_workers=num_workers, num_trees=2,
        num_layers=3,
    )
    for t_clean, t_faulty in zip(clean.ensemble.trees,
                                 faulty.ensemble.trees):
        assert tree_signature(t_clean) == tree_signature(t_faulty)
    base_kinds, fault_kinds = split_kinds(faulty.comm)
    assert base_kinds == clean.comm.bytes_by_kind
    assert faulty.comm.total_bytes - clean.comm.total_bytes == \
        sum(fault_kinds.values())
    assert faulty.comm.total_seconds >= clean.comm.total_seconds


class TestCheckpointing:
    def test_checkpoint_captures_state(self, binned):
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8,
                          faults="5:crash=1")
        system = get_plan("vero").build(cfg, ClusterConfig(num_workers=3))
        system.fit(binned)
        checkpoint = system.last_checkpoint
        assert isinstance(checkpoint, TreeCheckpoint)
        # the final checkpoint precedes the last tree: one committed tree
        assert checkpoint.tree_index == 1
        assert checkpoint.model_bytes > 0
        # vertical plans share one physical index over all N rows
        assert len(checkpoint.index_state) == 1
        assert checkpoint.index_state[0].size == binned.num_instances
        assert checkpoint.state_bytes == checkpoint.index_state[0].nbytes
        assert checkpoint.network_snapshot.total_bytes <= \
            system.net.total_bytes

    def test_horizontal_checkpoint_is_per_worker(self, binned):
        cfg = TrainConfig(num_trees=1, num_layers=3, num_candidates=8,
                          faults="5:drop=0.05")
        system = get_plan("qd2").build(cfg, ClusterConfig(num_workers=4))
        system.fit(binned)
        checkpoint = system.last_checkpoint
        assert len(checkpoint.index_state) == 4
        assert sum(arr.size for arr in checkpoint.index_state) == \
            binned.num_instances

    def test_fault_free_run_takes_no_checkpoints(self, binned):
        cfg = TrainConfig(num_trees=1, num_layers=3, num_candidates=8)
        system = get_plan("qd2").build(cfg, ClusterConfig(num_workers=2))
        system.fit(binned)
        assert system.injector is None
        assert system.last_checkpoint is None
        assert system.recovery_log == []


class TestFaultPlanEdges:
    def test_unrecoverable_crash_pileup_rejected(self):
        plan = FaultPlan(seed=0, crashes=9, max_crashes_per_tree=2)
        with pytest.raises(UnrecoverableFaultError):
            FaultInjector(plan, num_workers=4, num_trees=1, num_layers=3)

    def test_crashes_beyond_schedule_never_fire(self, binned):
        # all crash events land in trees 0..99; training only 2 trees
        # must fire at most the events scheduled inside those trees
        cfg = TrainConfig(num_trees=100, num_layers=4, num_candidates=8,
                          faults="7:crash=3")
        system = get_plan("qd2").build(cfg, ClusterConfig(num_workers=2))
        system.fit(binned, num_trees=2)
        pending = system.injector.scheduled_crashes()
        # every event inside the trained range fired; the rest stay pending
        assert all(event.tree >= 2 for event in pending)
        assert system.injector.counters.crashes + len(pending) == 3


#: one pinned fault seed per kernel backend — the CI backends job's
#: chaos row (seeds differ so each backend replays a distinct schedule)
BACKEND_FAULT_SEEDS = {"numpy": 101, "pyloop": 202, "numba": 303}


class TestChaosBackends:
    """Fault recovery composes with the kernel-backend registry: a
    faulty run on any available backend must replay to the exact model
    the fault-free *numpy* run produces — one pinned seed per backend,
    on the subtraction-heavy plan whose recovery path rebuilds
    histograms."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_faulty_run_matches_clean_numpy(self, binned, backend):
        seed = BACKEND_FAULT_SEEDS[backend]
        faults = f"{seed}:crash=2,drop=0.08,timeout=0.03"
        cluster = ClusterConfig(num_workers=4)
        clean_cfg = TrainConfig(num_trees=3, num_layers=4,
                                num_candidates=8)
        fault_cfg = TrainConfig(num_trees=3, num_layers=4,
                                num_candidates=8, faults=faults,
                                backend=backend)
        clean = get_plan("vero").build(clean_cfg, cluster).fit(binned)
        faulty = get_plan("vero").build(fault_cfg, cluster).fit(binned)
        assert len(clean.ensemble.trees) == len(faulty.ensemble.trees)
        for t_clean, t_faulty in zip(clean.ensemble.trees,
                                     faulty.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_faulty)
