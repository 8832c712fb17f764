"""Plan migration at tree boundaries.

:class:`PlanMigrator` tears down the current
:class:`~repro.systems.plans.ExecutionPlan`'s partition/index/aggregation
state and rebuilds it for a target plan, mid-session, without touching
the model: every registry plan trains bit-identical trees, so a
migrated run's ensemble equals the prefix of the source plan followed by
the suffix of the target plan, and the only ledger difference is the
migration traffic itself.

Every migrated byte is charged to a ``migrate:`` ledger kind, reusing
the byte conventions of the chaos-recovery reshard machinery:

* ``migrate:checkpoint`` — the committed model plus every index
  replica's placement state, encoded through the codec stack's index
  codec (the same path ``recovery:checkpoint`` takes);
* ``migrate:reshard`` — per worker, what the target partition has it
  hold (``PartitionStrategy.held_bytes``: its shard, or a replicated
  worker's full matrix) with the expected ``(W-1)/W`` wire fraction
  (rows/columns the worker does not already hold locally), charged
  only when the partition axis changes —
  a storage-only migration (e.g. qd1 → qd2) is a local relayout;
* ``migrate:labels`` — the label broadcast owed when leaving horizontal
  partitioning (vertical/replicated workers need all labels);
* ``migrate:decision`` — the decision inputs broadcast to the workers
  (numeric fields as 8-byte doubles, strings as utf-8), so the
  adaptation trail is itself in the ledger.

Crash safety: a worker crash during migration aborts the attempt — the
partial migration traffic is reclassified under ``recovery:migrate:*``
(it was real wire traffic that produced no committed state), the source
plan's state remains authoritative, and the migration replays
deterministically.  Scheduled :class:`~repro.cluster.faults.FaultInjector`
crashes are *not* consumed here (their schedule addresses layer
boundaries of specific trees and must stay aligned with the training
loop); mid-migration crashes are injected via
:attr:`PlanMigrator.scripted_crashes`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from ..cluster.faults import CrashEvent, RECOVERY_PREFIX
from .base import WorkerClock
from .executor import PlanExecutor, RecoveryRecord, WorkerCrashError
from .plans import ExecutionPlan, get_plan

#: ``layer`` value of recovery records for crashes absorbed mid-migration
#: (migration happens between trees, so no real layer applies)
MIGRATION_LAYER = -1

MIGRATE_PREFIX = "migrate:"


def decision_wire_bytes(inputs: dict) -> int:
    """Canonical broadcast size of a decision payload.

    Keys and string values ship as utf-8, numeric fields as 8-byte
    doubles, booleans as one byte.  Free-text ``reason`` strings ride
    the result record for display, not the wire — keeping the charge
    independent of wall-clock-derived digit counts so migrated runs
    replay bit-identically.
    """
    total = 0
    for key, value in inputs.items():
        if key == "reason":
            continue
        total += len(key.encode("utf-8"))
        if isinstance(value, bool):
            total += 1
        elif isinstance(value, str):
            total += len(value.encode("utf-8"))
        else:
            total += 8
    return total


@dataclass(frozen=True)
class MigrationRecord:
    """One completed plan migration: what moved and what it cost."""

    tree_index: int
    source_plan: str
    target_plan: str
    checkpoint_bytes: int
    reshard_bytes: int
    label_bytes: int
    decision_bytes: int
    seconds: float
    #: crashes absorbed (and replayed) during this migration
    crashes: int = 0

    @property
    def wire_bytes(self) -> int:
        return (self.checkpoint_bytes + self.reshard_bytes
                + self.label_bytes + self.decision_bytes)


class PlanMigrator:
    """Rebuilds a session's execution state for a different plan."""

    def __init__(self, session) -> None:
        self.session = session
        #: worker ids whose crash is injected mid-migration (one popped
        #: per attempt); tests use this to pin the crash-during-migration
        #: recovery path
        self.scripted_crashes: List[int] = []

    def migrate(self, target, decision=None) -> MigrationRecord:
        """Tear down the current plan and rebuild for ``target``.

        Must be called at a tree boundary.  On success the session's
        executor is swapped and a :class:`MigrationRecord` is returned;
        a scripted mid-migration crash aborts the attempt, reclassifies
        its traffic under ``recovery:migrate:*``, and replays.
        """
        session = self.session
        old = session.system
        plan = target if isinstance(target, ExecutionPlan) \
            else get_plan(target)
        if plan.key == old.plan.key:
            raise ValueError(
                f"session is already executing plan {plan.key!r}"
            )
        net = old.net
        crashes = 0
        while True:
            attempt_mark = net.mark()
            try:
                record, new = self._attempt(old, plan, decision)
                break
            except WorkerCrashError as crash:
                crashes += 1
                net.relabel_since(attempt_mark, RECOVERY_PREFIX)
                old.recovery_log.append(RecoveryRecord(
                    tree=session.state.tree_index, layer=MIGRATION_LAYER,
                    worker=crash.event.worker,
                    policy="migration-restart", restore_bytes=0,
                ))
        if crashes:
            record = dataclasses.replace(record, crashes=crashes)
        session._adopt_system(new, record)
        return record

    # -- one migration attempt --------------------------------------------------

    def _attempt(
        self, old: PlanExecutor, plan: ExecutionPlan, decision,
    ) -> Tuple[MigrationRecord, PlanExecutor]:
        session = self.session
        net = old.net
        num_workers = old.cluster.num_workers
        binned = session.binned
        seconds = 0.0

        # 1. quiesce the source plan and ship the committed state: the
        # model plus every index replica's placement snapshot, through
        # the codec stack exactly as crash recovery ships it.
        old.reset_tree_state()
        checkpoint = old.take_checkpoint(session.state.tree_index,
                                         session.ensemble)
        old.last_checkpoint = checkpoint
        # codec kernel time is real compute; fold it into the simulated
        # clock via the migration bill, scaled by worker speed as every
        # training clock is
        clock = WorkerClock(num_workers, old.cluster.worker_speeds)
        state_wire, _ = old.ship_index_state(checkpoint.index_state,
                                             clock)
        seconds += clock.elapsed
        checkpoint_bytes = checkpoint.model_bytes + state_wire
        seconds += net.transfer(
            "migrate:checkpoint", checkpoint_bytes,
            raw_nbytes=checkpoint.model_bytes + checkpoint.state_bytes,
        )
        self._maybe_crash(session.state.tree_index)

        # 2. build the target executor on the shared fabric: same
        # network (one ledger), same fault schedule.
        new = PlanExecutor(old.config, old.cluster, plan)
        new.net = net
        new.injector = old.injector
        new.codec = old.codec
        # session-wide recovery trail: share the list across executors
        new.recovery_log = old.recovery_log
        new.setup(binned)

        # 3. reshard: when the partition axis changes, each worker
        # fetches the (W-1)/W of its new holding it does not already hold
        # (the chaos reshard's wire-fraction convention); labels follow
        # when leaving horizontal partitioning.  Same-axis migrations
        # relayout locally and ship nothing.
        reshard_bytes = 0
        label_bytes = 0
        if new.partition.key != old.partition.key:
            for worker in range(num_workers):
                shard = new.partition.held_bytes(new, worker)
                wire = int(shard * (num_workers - 1) / num_workers)
                if wire:
                    seconds += net.transfer("migrate:reshard", wire)
                    reshard_bytes += wire
            if (old.partition.key == "horizontal"
                    and new.partition.key != "horizontal"):
                label_bytes = binned.labels.nbytes * (num_workers - 1)
                seconds += net.transfer("migrate:labels", label_bytes)

        # 4. broadcast the decision inputs so `repro ledger` can show
        # why the plan changed (a minimal control record for manual
        # migrations).
        payload = self._decision_inputs(old, plan, decision)
        decision_bytes = decision_wire_bytes(payload) \
            * max(num_workers - 1, 1)
        seconds += net.transfer("migrate:decision", decision_bytes)

        record = MigrationRecord(
            tree_index=session.state.tree_index,
            source_plan=old.plan.key,
            target_plan=plan.key,
            checkpoint_bytes=checkpoint_bytes,
            reshard_bytes=reshard_bytes,
            label_bytes=label_bytes,
            decision_bytes=decision_bytes,
            seconds=seconds,
        )
        return record, new

    def _maybe_crash(self, tree_index: int) -> None:
        if self.scripted_crashes:
            worker = self.scripted_crashes.pop(0)
            raise WorkerCrashError(
                CrashEvent(tree=tree_index, layer=MIGRATION_LAYER,
                           worker=worker)
            )

    def _decision_inputs(self, old: PlanExecutor, plan: ExecutionPlan,
                         decision) -> dict:
        if decision is not None and hasattr(decision, "payload"):
            return decision.payload()
        return {
            "tree": self.session.state.tree_index,
            "source": old.plan.key,
            "target": plan.key,
            "reason": "manual",
        }
