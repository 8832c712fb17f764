"""Plan-migration conformance (DESIGN.md §13).

The contract: migrating a :class:`TrainingSession` between any two
registry plans at a tree boundary

1. produces trees bit-identical to the static runs (every plan trains
   the same trees, so the migrated ensemble equals both),
2. leaves the base ledger exactly equal to the source plan's prefix
   kinds plus the target plan's suffix kinds — the only delta is the
   dedicated ``migrate:*`` kinds,
3. holds under seeded chaos schedules (compared against the fault-free
   *migrated* baseline), including a crash injected mid-migration, and
4. replays bit-for-bit.

All 20 ordered pairs from {qd1, qd2, qd3, vero, qd4-blocked} run the
fault-free contract; the chaos and crash-mid-migration rows use the CI
``adapt`` job's pinned seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, make_classification
from repro.data.dataset import bin_dataset
from repro.systems import base as base_module
from repro.systems.executor import (SessionCheckpoint, TrainingSession)
from repro.systems.migration import (MIGRATE_PREFIX, MIGRATION_LAYER,
                                     MigrationRecord)
from repro.systems.plans import get_plan, plan_keys

from .test_chaos import PINNED_SEEDS, tree_signature

MIGRATION_PLANS = ("qd1", "qd2", "qd3", "vero", "qd4-blocked")
ORDERED_PAIRS = [(a, b) for a in MIGRATION_PLANS for b in MIGRATION_PLANS
                 if a != b]

FAULT_PREFIXES = ("retry:", "recovery:")
NUM_TREES = 4
SWITCH_AT = 2


@pytest.fixture(scope="module")
def binned():
    dataset = make_classification(400, 20, density=0.4, seed=7)
    return bin_dataset(dataset, 8)


def make_config(num_trees=NUM_TREES, **kwargs):
    return TrainConfig(num_trees=num_trees, num_layers=4,
                       num_candidates=8, **kwargs)


def run_static(plan_key, binned, num_trees, faults=""):
    cfg = make_config(num_trees=num_trees, faults=faults)
    system = get_plan(plan_key).build(cfg, ClusterConfig(num_workers=4))
    return system.fit(binned)


def run_migrated(source, target, binned, faults="",
                 scripted_crashes=()):
    """Train SWITCH_AT trees under ``source``, migrate, finish under
    ``target``; returns (result, session, migration record)."""
    cfg = make_config(faults=faults)
    system = get_plan(source).build(cfg, ClusterConfig(num_workers=4))
    session = TrainingSession(system, binned)
    session.run(until=SWITCH_AT)
    session.migrator.scripted_crashes.extend(scripted_crashes)
    record = session.migrate(target)
    result = session.run()
    return result, session, record


def split_ledger(stats):
    """(base, migrate, fault) partitions of a bytes-by-kind ledger."""
    base, migrate, fault = {}, {}, {}
    for kind, nbytes in stats.bytes_by_kind.items():
        if kind.startswith(FAULT_PREFIXES):
            fault[kind] = nbytes
        elif kind.startswith(MIGRATE_PREFIX):
            migrate[kind] = nbytes
        else:
            base[kind] = nbytes
    return base, migrate, fault


def combine_kinds(prefix, full, prefix_of_full):
    """Expected base ledger of a migrated run: source-prefix kinds plus
    the target's full-minus-prefix kinds."""
    expected = dict(prefix)
    for kind, nbytes in full.items():
        suffix = nbytes - prefix_of_full.get(kind, 0)
        if suffix:
            expected[kind] = expected.get(kind, 0) + suffix
    return expected


@pytest.fixture(scope="module")
def static_runs(binned):
    """Per plan: (prefix result at SWITCH_AT trees, full result)."""
    return {
        key: (run_static(key, binned, SWITCH_AT),
              run_static(key, binned, NUM_TREES))
        for key in MIGRATION_PLANS
    }


class TestMigrationBitIdentity:
    """All 20 ordered pairs: bit-identical trees, exact ledger delta."""

    @pytest.mark.parametrize("source,target", ORDERED_PAIRS)
    def test_pair_is_exact(self, binned, static_runs, source, target):
        result, session, record = run_migrated(source, target, binned)

        # 1. bit-identical to the static runs
        full = static_runs[target][1]
        assert len(result.ensemble.trees) == NUM_TREES
        for mine, theirs in zip(result.ensemble.trees,
                                full.ensemble.trees):
            assert tree_signature(mine) == tree_signature(theirs)

        # 2. the base ledger is exactly prefix(source) + suffix(target);
        #    the only delta is the migrate:* kinds
        base, migrate, fault = split_ledger(result.comm)
        assert not fault
        expected = combine_kinds(
            static_runs[source][0].comm.bytes_by_kind,
            full.comm.bytes_by_kind,
            static_runs[target][0].comm.bytes_by_kind,
        )
        assert base == expected
        assert migrate
        assert set(migrate) <= {"migrate:checkpoint", "migrate:reshard",
                                "migrate:labels", "migrate:decision"}
        assert result.comm.total_bytes == \
            sum(expected.values()) + sum(migrate.values())

        # the record's books match the ledger exactly
        assert isinstance(record, MigrationRecord)
        assert record.source_plan == source
        assert record.target_plan == target
        assert record.tree_index == SWITCH_AT
        assert record.wire_bytes == sum(migrate.values())
        assert record.checkpoint_bytes == migrate["migrate:checkpoint"]
        assert record.reshard_bytes == migrate.get("migrate:reshard", 0)
        assert record.label_bytes == migrate.get("migrate:labels", 0)
        assert record.decision_bytes == migrate["migrate:decision"]

        # session bookkeeping
        assert result.plan_history == [source, target]
        assert session.state.plan_key == target
        assert result.migrations == [record]
        assert record.seconds > 0
        assert result.total_modeled_seconds() == pytest.approx(
            sum(r.total_seconds for r in result.tree_reports)
            + record.seconds)

    def test_reshard_only_when_partition_axis_changes(self, binned):
        # qd1 -> qd2 is a storage-only migration: local relayout, no
        # reshard or label traffic on the wire
        _, _, record = run_migrated("qd1", "qd2", binned)
        assert record.reshard_bytes == 0
        assert record.label_bytes == 0
        # leaving horizontal ships both the shards and the labels
        _, _, record = run_migrated("qd2", "vero", binned)
        assert record.reshard_bytes > 0
        assert record.label_bytes == binned.labels.nbytes * 3
        # vertical-to-vertical keeps the partition axis: local relayout
        _, _, record = run_migrated("qd3", "vero", binned)
        assert record.reshard_bytes == 0
        assert record.label_bytes == 0
        # returning to horizontal reshards but owes no label broadcast
        _, _, record = run_migrated("vero", "qd2", binned)
        assert record.reshard_bytes > 0
        assert record.label_bytes == 0

    @pytest.mark.parametrize("source", plan_keys())
    def test_reshard_ships_what_each_target_worker_holds(self, source):
        """Over every registry pair: a partition-axis change ships the
        (W-1)/W of what each target worker holds that it lacks — the
        full matrix on a replicated worker — and nothing otherwise."""
        binned = bin_dataset(make_classification(600, 24, seed=0), 20)
        num_workers = 4
        for target in plan_keys():
            if target == source:
                continue
            cfg = TrainConfig(num_trees=2, num_layers=3,
                              num_candidates=20)
            session = TrainingSession(
                get_plan(source).build(cfg, ClusterConfig(num_workers)),
                binned)
            session.run(until=1)
            old = session.system
            record = session.migrate(target)
            new = session.system
            expected = 0
            if new.partition.key != old.partition.key:
                expected = sum(
                    int(new.partition.held_bytes(new, w)
                        * (num_workers - 1) / num_workers)
                    for w in range(num_workers))
            assert record.reshard_bytes == expected, (source, target)
            if (source, target) == ("qd2", "qd2-fp"):
                assert record.reshard_bytes == 4 * 20_184

    def test_migration_replays_bit_identical(self, binned):
        first, _, _ = run_migrated("qd2", "qd3", binned)
        second, _, _ = run_migrated("qd2", "qd3", binned)
        assert first.comm.bytes_by_kind == second.comm.bytes_by_kind
        assert first.comm.total_seconds == second.comm.total_seconds
        for t1, t2 in zip(first.ensemble.trees, second.ensemble.trees):
            assert tree_signature(t1) == tree_signature(t2)

    def test_migrating_to_current_plan_rejected(self, binned):
        cfg = make_config()
        session = TrainingSession(
            get_plan("qd2").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=1)
        with pytest.raises(ValueError, match="already executing"):
            session.migrate("qd2")


#: the CI adapt job's chaos rows: ≥3 plan pairs x the pinned seeds
CHAOS_PAIRS = (("qd1", "qd3"), ("qd2", "vero"), ("vero", "qd2"),
               ("qd3", "qd4-blocked"))


class TestMigrationUnderChaos:
    """Migrated runs keep the §9 chaos contract: compared against the
    fault-free *migrated* baseline, the model is bit-identical and the
    ledger delta is exactly the retry:/recovery: kinds."""

    @pytest.mark.parametrize("source,target", CHAOS_PAIRS)
    @pytest.mark.parametrize("fault_seed", PINNED_SEEDS)
    def test_pinned_chaos_migrated_run_is_exact(self, binned, source,
                                                target, fault_seed):
        faults = f"{fault_seed}:crash=2,drop=0.08,timeout=0.03"
        clean, _, clean_record = run_migrated(source, target, binned)
        faulty, session, _ = run_migrated(source, target, binned,
                                          faults=faults)

        for t_clean, t_faulty in zip(clean.ensemble.trees,
                                     faulty.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_faulty)

        base, migrate, fault = split_ledger(faulty.comm)
        clean_base, clean_migrate, _ = split_ledger(clean.comm)
        assert base == clean_base
        assert migrate == clean_migrate
        assert faulty.comm.total_bytes - clean.comm.total_bytes == \
            sum(fault.values())
        assert faulty.comm.total_seconds >= clean.comm.total_seconds

        # every fired crash produced a recovery record (migration did
        # not consume or disturb the pre-drawn schedule)
        counters = session.system.injector.counters
        assert len(session.system.recovery_log) == counters.crashes

    @pytest.mark.parametrize("fault_seed", PINNED_SEEDS)
    def test_crash_mid_migration_recovers(self, binned, fault_seed):
        # a scripted crash aborts the migration attempt; the replay must
        # land on the exact crash-free model and ledger, with the partial
        # attempt reclassified under recovery:migrate:*
        worker = fault_seed % 4
        clean, _, _ = run_migrated("qd2", "qd3", binned)
        crashed, session, record = run_migrated(
            "qd2", "qd3", binned, scripted_crashes=[worker])

        for t_clean, t_crashed in zip(clean.ensemble.trees,
                                      crashed.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_crashed)
        assert record.crashes == 1

        base, migrate, fault = split_ledger(crashed.comm)
        clean_base, clean_migrate, _ = split_ledger(clean.comm)
        assert base == clean_base
        assert migrate == clean_migrate
        assert set(fault) == {"recovery:migrate:checkpoint"}
        assert fault["recovery:migrate:checkpoint"] == \
            record.checkpoint_bytes

        # the abort left a migration-restart recovery record at the
        # sentinel layer
        records = [r for r in session.system.recovery_log
                   if r.policy == "migration-restart"]
        assert len(records) == 1
        assert records[0].layer == MIGRATION_LAYER
        assert records[0].worker == worker
        assert records[0].tree == SWITCH_AT

    def test_crash_mid_migration_under_chaos_schedule(self, binned):
        # scripted migration crash and a seeded fault schedule at once:
        # still bit-identical to the fault-free migrated baseline
        faults = f"{PINNED_SEEDS[0]}:crash=1,drop=0.08"
        clean, _, _ = run_migrated("qd1", "vero", binned)
        crashed, _, record = run_migrated(
            "qd1", "vero", binned, faults=faults, scripted_crashes=[2])
        for t_clean, t_crashed in zip(clean.ensemble.trees,
                                      crashed.ensemble.trees):
            assert tree_signature(t_clean) == tree_signature(t_crashed)
        assert record.crashes == 1
        base, migrate, fault = split_ledger(crashed.comm)
        clean_base, clean_migrate, _ = split_ledger(clean.comm)
        assert base == clean_base
        assert migrate == clean_migrate
        assert "recovery:migrate:checkpoint" in fault


class TestMigrationClock:
    """The migration bill's codec time is charged per worker and scaled
    by worker speed, as every training clock is."""

    TICK = 0.01

    def codec_seconds(self, binned, monkeypatch, speeds):
        """The non-wire part of a qd2 -> vero migration's bill, with
        every wall-clocked block lasting exactly one tick."""
        cluster = ClusterConfig(num_workers=4, worker_speeds=speeds)
        session = TrainingSession(
            get_plan("qd2").build(make_config(codec="delta"), cluster),
            binned)
        session.run(until=SWITCH_AT)
        tick = self.TICK

        class FixedTick:
            now = 0.0

            @classmethod
            def perf_counter(cls):
                cls.now += tick
                return cls.now

        monkeypatch.setattr(base_module, "time", FixedTick)
        record = session.migrate("vero")
        wire = sum(
            seconds for kind, seconds
            in session.system.net.snapshot().seconds_by_kind.items()
            if kind.startswith(MIGRATE_PREFIX))
        return record.seconds - wire

    def test_a_quarter_speed_worker_bills_four_times_the_codec_time(
            self, binned, monkeypatch):
        uniform = self.codec_seconds(binned, monkeypatch, None)
        straggler = self.codec_seconds(binned, monkeypatch,
                                       (1.0, 1.0, 1.0, 0.25))
        assert uniform == pytest.approx(self.TICK)
        assert straggler == pytest.approx(4 * uniform)


class TestSessionPersistence:
    def test_pause_checkpoint_resume_is_exact(self, binned):
        static = run_static("vero", binned, NUM_TREES)
        cfg = make_config()
        session = TrainingSession(
            get_plan("vero").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=SWITCH_AT)
        checkpoint = session.checkpoint()
        assert isinstance(checkpoint, SessionCheckpoint)
        assert checkpoint.tree_index == SWITCH_AT
        assert checkpoint.plan_key == "vero"
        assert checkpoint.tree_checkpoint is not None

        resumed = TrainingSession.resume(
            checkpoint, cfg, ClusterConfig(num_workers=4), binned)
        assert resumed.state.tree_index == SWITCH_AT
        result = resumed.run()
        assert len(result.ensemble.trees) == NUM_TREES
        for mine, theirs in zip(result.ensemble.trees,
                                static.ensemble.trees):
            assert tree_signature(mine) == tree_signature(theirs)

    def test_resumed_session_can_migrate(self, binned):
        static = run_static("qd3", binned, NUM_TREES)
        cfg = make_config()
        session = TrainingSession(
            get_plan("qd2").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=SWITCH_AT)
        resumed = TrainingSession.resume(
            session.checkpoint(), cfg, ClusterConfig(num_workers=4),
            binned)
        resumed.migrate("qd3")
        result = resumed.run()
        assert result.plan_history == ["qd2", "qd3"]
        for mine, theirs in zip(result.ensemble.trees,
                                static.ensemble.trees):
            assert tree_signature(mine) == tree_signature(theirs)

    def test_scores_survive_the_roundtrip(self, binned):
        cfg = make_config()
        session = TrainingSession(
            get_plan("qd1").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=SWITCH_AT)
        resumed = TrainingSession.resume(
            session.checkpoint(), cfg, ClusterConfig(num_workers=4),
            binned)
        np.testing.assert_array_equal(resumed.state.scores,
                                      session.state.scores)

    def test_resume_on_another_dataset_is_rejected(self, binned):
        cfg = make_config()
        session = TrainingSession(
            get_plan("qd2").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=SWITCH_AT)
        other = bin_dataset(make_classification(300, 20, density=0.4,
                                                seed=8), 8)
        with pytest.raises(ValueError, match="400 instances.*has 300"):
            TrainingSession.resume(session.checkpoint(), cfg,
                                   ClusterConfig(num_workers=4), other)

    def test_resume_past_num_trees_is_rejected(self, binned):
        cfg = make_config()
        session = TrainingSession(
            get_plan("qd2").build(cfg, ClusterConfig(num_workers=4)),
            binned)
        session.run(until=2)
        with pytest.raises(ValueError, match="tree 2.*num_trees=1"):
            TrainingSession.resume(session.checkpoint(), cfg,
                                   ClusterConfig(num_workers=4), binned,
                                   num_trees=1)
