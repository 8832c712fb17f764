"""The plan executor: one training loop for every quadrant.

:class:`PlanExecutor` is the one distributed trainer.  It composes one
strategy per axis — partitioning, storage layout, index plan,
aggregation — and runs the single layer-wise loop they all share:

1. build each worker's histograms for the layer (:class:`IndexPlan`),
2. turn them into global split decisions (:class:`AggregationStrategy`),
3. finalize the nodes that did not split,
4. apply the winning splits to every index replica (aggregation again —
   it owns the placement traffic),
5. run post-layer index maintenance and histogram retirement.

All per-run state lives on the executor, in one shape for every plan:
``shards`` and ``stored`` (one shard and one stored matrix per worker),
``row_ranges`` and ``indexes`` (one index replica per global row span),
``replica_of`` (the replica each worker reads), the histogram stores and
the node statistics.  The strategies are stateless singletons from
:mod:`~repro.systems.strategies`.  Which strategies compose is described
by an :class:`~repro.systems.plans.ExecutionPlan`, so a new system
variant is a registry entry, not a subclass.

Fault tolerance
---------------
With ``TrainConfig.faults`` set, the executor checkpoints trainer state
at every tree boundary (:class:`TreeCheckpoint`: model, row-placement
state, network snapshot) and consults the seeded
:class:`~repro.cluster.faults.FaultInjector` at every layer boundary.  A
scheduled worker crash aborts the tree: the aborted attempt's traffic is
reclassified under ``recovery:<kind>``, the aggregation strategy's
recovery policy charges the restore traffic (``recovery:reshard`` /
``recovery:replicate`` / ``recovery:checkpoint``), state is restored
from the checkpoint, and the tree replays.  Replay is deterministic, so
the final model is bit-identical to the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..cluster.codecs import get_codec_stack
from ..cluster.comm import SPLIT_INFO_BYTES
from ..cluster.faults import (CrashEvent, FaultInjector, FaultPlan,
                              RECOVERY_PREFIX)
from ..cluster.network import CommStats, SimulatedNetwork
from ..cluster.transform import TransformResult, horizontal_to_vertical
from ..config import ClusterConfig, TrainConfig
from ..core.gbdt import evaluate
from ..core.histogram import HistogramBuilder
from ..core.indexing import NodeToInstanceIndex
from ..core.loss import Loss, make_loss
from ..core.split import leaf_weight
from ..core.tree import Tree, TreeEnsemble, layer_nodes, leaf_matrix
from ..data.dataset import BinnedDataset, Dataset, bin_dataset
from .base import (DistEvalRecord, DistTrainResult, HistogramStore,
                   MemoryReport, TreeReport, WorkerClock,
                   gradient_unit_seconds)
from .strategies import AGGREGATIONS, INDEX_PLANS, PARTITIONS, STORAGES

if TYPE_CHECKING:
    from .migration import MigrationRecord
    from .plans import ExecutionPlan


class WorkerCrashError(RuntimeError):
    """Raised at a layer boundary when a scheduled worker crash fires."""

    def __init__(self, event: CrashEvent) -> None:
        super().__init__(
            f"worker {event.worker} crashed at tree {event.tree}, "
            f"layer boundary {event.layer}"
        )
        self.event = event


@dataclass(frozen=True)
class TreeCheckpoint:
    """Trainer state at one tree boundary, sufficient to replay the tree.

    ``index_state`` holds one ``node_of_instance`` snapshot per index
    replica (``PlanExecutor.indexes``: one per worker for horizontal
    plans, a single shared one for vertical plans; worker ``w`` reads
    replica ``replica_of[w]``); ``model_bytes`` is the serialized size of
    the boosted trees committed so far; ``network_snapshot`` pins the
    traffic ledger at the boundary, so recovery can tell lost work from
    committed work.
    """

    tree_index: int
    model_bytes: int
    index_state: Tuple[np.ndarray, ...]
    network_snapshot: CommStats

    @property
    def state_bytes(self) -> int:
        """Bytes of placement state a full restore must ship."""
        return sum(arr.nbytes for arr in self.index_state)


@dataclass(frozen=True)
class RecoveryRecord:
    """One absorbed crash: where it hit and what the recovery shipped."""

    tree: int
    layer: int
    worker: int
    policy: str
    restore_bytes: int


class PlanExecutor:
    """Distributed GBDT trainer driven by an execution plan.

    The executor is the run's state: shards, indexes, histogram stores,
    node statistics, the simulated network and the fault schedule.  The
    boosting loop that drives it one tree at a time is
    :class:`TrainingSession`; :meth:`fit` runs one session to completion.
    """

    #: histogram subtraction (Section 2.1.2); disable for the ablation
    use_subtraction: bool = True

    def __init__(self, config: TrainConfig, cluster: ClusterConfig,
                 plan: "ExecutionPlan") -> None:
        if config.uses_sampling:
            raise ValueError(
                "the distributed quadrants study full-dataset data "
                "management; subsample/colsample are reference-trainer "
                "features"
            )
        if config.growth != "layerwise":
            raise ValueError(
                "the distributed quadrants grow trees layer-wise "
                "(the paper's strategy); leaf-wise growth is a "
                "reference-trainer feature"
            )
        self.config = config
        self.cluster = cluster
        self.net = SimulatedNetwork(cluster.network)
        #: negotiated wire-format codec stack for inter-worker payloads
        self.codec = get_codec_stack(config.codec)
        self.loss: Loss = make_loss(config.objective, config.num_classes)
        # kernel engine shared by the simulated workers; config.backend
        # picks the scatter kernel implementation
        self.hist_builder = HistogramBuilder(
            backend=config.backend or None)
        self.hist_builder.constant_hessian = self.loss.constant_hessian
        self.plan = plan
        self.partition = PARTITIONS[plan.partition]
        self.storage = STORAGES[plan.storage]
        self.index_plan = INDEX_PLANS[plan.index]
        self.aggregation = AGGREGATIONS[plan.aggregation]
        self.aggregation.validate(config)
        self.quadrant = plan.quadrant
        self.name = plan.name
        #: column grouping strategy (Section 4.2.3); ablations override
        self.grouping = "greedy"
        #: seeded fault schedule; ``None`` trains fault-free
        self.injector: Optional[FaultInjector] = None
        #: absorbed crashes, in firing order
        self.recovery_log: List[RecoveryRecord] = []
        self.last_checkpoint: Optional[TreeCheckpoint] = None
        if config.faults:
            fault_plan = FaultPlan.parse(config.faults)
            if fault_plan.active:
                self.injector = FaultInjector(
                    fault_plan, cluster.num_workers, config.num_trees,
                    config.num_layers,
                )
                self.net.injector = self.injector

    # -- the public entry points -------------------------------------------------

    def fit(
        self,
        train: "Dataset | BinnedDataset",
        valid: Optional[Dataset] = None,
        num_trees: Optional[int] = None,
    ) -> DistTrainResult:
        """Train on a dataset (binned on the fly) or a pre-binned dataset.

        Runs one :class:`TrainingSession` to completion.  Callers that
        need to pause, checkpoint, or migrate plans mid-run construct
        the session directly.
        """
        return TrainingSession(self, train, valid=valid,
                               num_trees=num_trees).run()

    def fit_from_raw(
        self,
        train: Dataset,
        valid: Optional[Dataset] = None,
        num_trees: Optional[int] = None,
    ) -> Tuple[DistTrainResult, TransformResult]:
        """Transform a horizontally partitioned raw dataset, then train.

        Only meaningful for vertically partitioned plans (QD4's five-step
        transformation, Section 4.2.1); the transformation's sketch-based
        candidate splits are used for training, so its compression is
        lossless with respect to the model, and its cost report rides
        along.
        """
        if self.partition.key == "horizontal":
            raise ValueError(
                "fit_from_raw runs the horizontal-to-vertical "
                f"transformation; plan {self.plan.key!r} is already "
                "horizontally partitioned — call fit() directly"
            )
        transform = horizontal_to_vertical(
            train, self.cluster, self.config.num_candidates, net=self.net,
            grouping=self.grouping,
        )
        result = self.fit(transform.global_binned, valid=valid,
                          num_trees=num_trees)
        return result, transform

    def predict(self, ensemble: TreeEnsemble,
                dataset: Dataset) -> np.ndarray:
        """Predictions in the objective's natural space."""
        return self.loss.predict(ensemble.raw_scores(dataset.csc()))

    # -- state management --------------------------------------------------------

    def setup(self, binned: BinnedDataset) -> None:
        """Partition ``binned`` and initialize every per-worker structure."""
        self._binned = binned
        self.partition.setup(self, binned)
        self.stores = [HistogramStore()
                       for _ in range(self.cluster.num_workers)]
        self.storage.setup(self)
        self.reset_tree_state()

    def reset_tree_state(self) -> None:
        self.partition.reset(self)
        self.index_plan.reset(self)
        for store in self.stores:
            store.clear()
        self.stats: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # -- the unified training loop -----------------------------------------------

    def train_tree(self, tree_index: int, ensemble: TreeEnsemble,
                   grad: np.ndarray, hess: np.ndarray,
                   clock: WorkerClock) -> Tuple[Tree, np.ndarray]:
        """Grow tree ``tree_index`` on top of the committed ``ensemble``;
        returns it plus each instance's leaf id.  Under a fault schedule
        the tree is checkpointed first and replayed after every crash."""
        self.reset_tree_state()
        if self.injector is None:
            return self._grow_tree(tree_index, grad, hess, clock)
        checkpoint = self.take_checkpoint(tree_index, ensemble)
        self.last_checkpoint = checkpoint
        while True:
            attempt_mark = self.net.mark()
            try:
                return self._grow_tree(tree_index, grad, hess, clock)
            except WorkerCrashError as crash:
                self._recover(crash.event, checkpoint, attempt_mark, clock)

    def _grow_tree(self, tree_index: int, grad: np.ndarray,
                   hess: np.ndarray,
                   clock: WorkerClock) -> Tuple[Tree, np.ndarray]:
        cfg = self.config
        tree = Tree(cfg.num_layers, grad.shape[1])
        self.partition.compute_stats(self, [0], grad, hess, clock)
        active: Set[int] = {0}

        for layer in range(cfg.num_layers - 1):
            if self.injector is not None:
                event = self.injector.maybe_crash(tree_index, layer)
                if event is not None:
                    raise WorkerCrashError(event)
            nodes = [n for n in layer_nodes(layer) if n in active]
            if not nodes:
                break
            self.index_plan.build_layer(self, nodes, grad, hess, clock)
            splits = self.aggregation.find_splits(self, nodes, clock)
            for node in nodes:
                if node not in splits:
                    self._finalize_leaf(tree, node, active)
            self.aggregation.apply_splits(self, tree, splits, grad, hess,
                                          active, clock)
            self.index_plan.after_layer(self, nodes, sorted(splits),
                                        clock)
        for node in sorted(active):
            self._finalize_leaf(tree, node, active)
        return tree, self.partition.assemble_leaves(self)

    # -- checkpointing and crash recovery ------------------------------------------

    def take_checkpoint(self, tree_index: int,
                        ensemble: TreeEnsemble) -> TreeCheckpoint:
        """Snapshot trainer state at the tree boundary before tree
        ``tree_index``, with ``ensemble`` as the committed model."""
        return TreeCheckpoint(
            tree_index=tree_index,
            model_bytes=self._model_state_bytes(ensemble),
            index_state=tuple(
                index.node_of_instance.copy() for index in self.indexes
            ),
            network_snapshot=self.net.snapshot(),
        )

    def ship_index_state(self, snapshots: Sequence[np.ndarray],
                         clock: WorkerClock
                         ) -> Tuple[int, List[np.ndarray]]:
        """Placement snapshots crossing the network: their wire bytes and
        the arrays the receiving end holds.

        The identity stack ships them raw.  Any other stack ships them
        through the index codec and the receiver gets the *decoded*
        payload — what a restore rebuilds from, so a codec that is not
        lossless shows in the model; the kernels are charged to every
        worker.
        """
        if self.codec.is_identity:
            return sum(arr.nbytes for arr in snapshots), list(snapshots)
        wire = 0
        received = []
        with clock.timed(None, "codec"):
            for arr in snapshots:
                enc = self.codec.index.encode(arr)
                received.append(self.codec.index.decode(enc))
                wire += enc.nbytes
        return wire, received

    def _recover(self, event: CrashEvent, checkpoint: TreeCheckpoint,
                 attempt_mark: int, clock: WorkerClock) -> None:
        """Absorb one worker crash and prepare the tree replay.

        The aborted attempt's traffic is reclassified under
        ``recovery:<kind>`` (it was real wire traffic that produced no
        committed state), then the aggregation strategy's recovery
        policy charges the restore path:

        * ``reshard`` / ``replicate`` — what the crashed worker held
          (``PartitionStrategy.held_bytes``: its row shard, or a
          replicated worker's full matrix) plus its labels are
          re-shipped, from durable storage or a surviving peer
          (``recovery:<policy>``), and its checkpointed state follows
          (``recovery:checkpoint``);
        * ``rollback`` — the column shard is irreplaceable without its
          owner, so only the checkpoint state crosses the wire while
          the restarted owner reloads its shard locally.
        """
        net = self.net
        net.relabel_since(attempt_mark, RECOVERY_PREFIX)
        policy = self.aggregation.recovery_policy
        replica = self.replica_of[event.worker]
        state = checkpoint.index_state[replica]
        state_wire, (received,) = self.ship_index_state([state], clock)
        restore_bytes = checkpoint.model_bytes + state_wire
        if policy != "rollback":
            data_bytes = (
                self.partition.held_bytes(self, event.worker)
                + self.partition.label_bytes(self, event.worker)
            )
            net.transfer(f"recovery:{policy}", data_bytes)
            restore_bytes += data_bytes
        net.transfer(
            "recovery:checkpoint",
            checkpoint.model_bytes + state_wire,
            raw_nbytes=checkpoint.model_bytes + state.nbytes,
        )
        self.recovery_log.append(RecoveryRecord(
            tree=event.tree, layer=event.layer, worker=event.worker,
            policy=policy, restore_bytes=restore_bytes,
        ))
        # rebuild the per-tree state from the checkpoint's snapshots:
        # the crashed worker's replica from the state it was shipped,
        # the survivors' from their own
        self.reset_tree_state()
        snapshots = list(checkpoint.index_state)
        snapshots[replica] = received
        self.indexes = [NodeToInstanceIndex.from_assignment(arr)
                        for arr in snapshots]

    def _model_state_bytes(self, ensemble: TreeEnsemble) -> int:
        """Serialized size of the committed trees (checkpoint payload):
        one split record per internal node, one weight vector per
        leaf."""
        return sum(tree.num_splits * SPLIT_INFO_BYTES
                   + tree.num_leaves * 8 * self.config.gradient_dim
                   for tree in ensemble.trees)

    def _finalize_leaf(self, tree: Tree, node: int,
                       active: Set[int]) -> None:
        stats = self.stats[node]
        tree.set_leaf(node, leaf_weight(stats[0], stats[1],
                                        self.config.reg_lambda))
        active.discard(node)
        self.partition.retire_node(self, node)
        for store in self.stores:
            store.pop(node)

    # -- accounting ---------------------------------------------------------------

    def gradient_instances(self) -> int:
        """Instances each worker computes gradients for (``N / W`` rows
        of a horizontal shard, all ``N`` under vertical partitioning)."""
        return self.partition.gradient_instances(self)

    def memory(self) -> MemoryReport:
        """Max per-worker dataset memory (shard + labels) and the max
        per-worker histogram memory seen so far."""
        return MemoryReport(
            data_bytes=self.partition.data_bytes(self),
            histogram_bytes=max(store.peak_bytes for store in self.stores),
        )


# ---------------------------------------------------------------------------
# The resumable training session
# ---------------------------------------------------------------------------

@dataclass
class SessionState:
    """Boosting state that outlives a single tree.

    Everything the old monolithic ``fit`` loop kept in locals — the next
    tree index, the raw score vectors, the simulated elapsed clock, and
    which plan is current — lives here explicitly, so a session can stop
    at any tree boundary and continue later (same process via
    :meth:`TrainingSession.run`, another process via
    :class:`SessionCheckpoint`), possibly under a different plan.
    """

    tree_index: int = 0
    plan_key: str = ""
    scores: Optional[np.ndarray] = None
    valid_scores: Optional[np.ndarray] = None
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class SessionCheckpoint:
    """The session's persistence format at a tree boundary.

    This generalizes :class:`TreeCheckpoint` — which captures only what
    one tree replay needs — into everything a *session* resume needs:
    the committed model (as a serialized payload), the boosting scores,
    the simulated clock, and the plan the session was executing.  The
    embedded ``tree_checkpoint`` carries the placement/ledger snapshot
    exactly as crash recovery uses it.
    """

    tree_index: int
    plan_key: str
    model_payload: dict
    scores: np.ndarray
    valid_scores: Optional[np.ndarray]
    elapsed_seconds: float
    tree_checkpoint: Optional[TreeCheckpoint] = None
    plan_history: Tuple[str, ...] = field(default_factory=tuple)


class TrainingSession:
    """Resumable driver of one distributed training run.

    Owns the per-run state (:class:`SessionState`, the ensemble, the
    result records) and drives a :class:`PlanExecutor` through the
    boosting loop one tree at a time:

    * :meth:`step` trains exactly one tree;
    * :meth:`run` loops to ``num_trees`` (or an earlier ``until``
      boundary, leaving the session resumable);
    * :meth:`migrate` swaps the execution plan at the current tree
      boundary via :class:`~repro.systems.migration.PlanMigrator`;
    * :meth:`checkpoint` / :meth:`resume` persist and rebuild a session
      across processes.

    With a ``policy`` (an :class:`~repro.systems.advisor.AdaptivePolicy`)
    attached, the session consults it at every tree boundary and applies
    any migration it decides — the ``--plan auto-adapt`` path.
    """

    def __init__(
        self,
        system: PlanExecutor,
        train: "Dataset | BinnedDataset",
        valid: Optional[Dataset] = None,
        num_trees: Optional[int] = None,
        policy=None,
    ) -> None:
        cfg = system.config
        if isinstance(train, BinnedDataset):
            binned = train
        else:
            binned = bin_dataset(train, cfg.num_candidates)
        self.system = system
        self.binned = binned
        self.valid = valid
        self.policy = policy
        self.num_trees = cfg.num_trees if num_trees is None else num_trees
        system.setup(binned)
        self.ensemble = TreeEnsemble(
            system.loss.num_outputs, cfg.learning_rate,
            objective=cfg.objective, num_classes=cfg.num_classes,
        )
        self.result = DistTrainResult(self.ensemble)
        self.state = SessionState(
            tree_index=0,
            plan_key=system.plan.key,
            scores=system.loss.init_scores(binned.num_instances),
            valid_scores=(
                system.loss.init_scores(valid.num_instances)
                if valid is not None else None
            ),
        )
        self.result.plan_history.append(self.state.plan_key)
        self._grad_unit = gradient_unit_seconds(system.loss, binned,
                                                self.state.scores)
        #: memory of the executors migrated away from
        self._retired_memory: List[MemoryReport] = []
        self._migrator = None

    # -- the boosting loop, one tree at a time ---------------------------------

    @property
    def done(self) -> bool:
        return self.state.tree_index >= self.num_trees

    def step(self) -> TreeReport:
        """Train exactly one tree and advance the session state."""
        if self.done:
            raise RuntimeError(
                f"session already trained {self.num_trees} trees"
            )
        system, cfg, state = self.system, self.system.config, self.state
        t = state.tree_index
        clock = WorkerClock(system.cluster.num_workers,
                            system.cluster.worker_speeds)
        comm_before = system.net.snapshot()
        grad, hess = system.loss.gradients(self.binned.labels,
                                           state.scores)
        clock.charge_all(self._grad_unit * system.gradient_instances(),
                         phase="gradient")
        tree, leaf_of_instance = system.train_tree(t, self.ensemble, grad,
                                                   hess, clock)
        self.ensemble.append(tree)
        state.scores += cfg.learning_rate * leaf_matrix(tree,
                                                         leaf_of_instance)
        comm_delta = system.net.snapshot().minus(comm_before)
        report = TreeReport(
            comp_seconds=clock.elapsed,
            comm_seconds=comm_delta.total_seconds,
            comm_bytes=comm_delta.total_bytes,
            phase_seconds=clock.phase_breakdown(),
        )
        self.result.tree_reports.append(report)
        state.elapsed_seconds += report.total_seconds
        state.tree_index = t + 1
        if self.valid is not None:
            state.valid_scores += cfg.learning_rate * tree.predict(
                self.valid.csc())
            rec = evaluate(system.loss, self.valid, state.valid_scores, t,
                           train_loss=0.0)
            self.result.evals.append(
                DistEvalRecord(t, rec.metric_name, rec.metric_value,
                               state.elapsed_seconds)
            )
        return report

    def run(self, until: Optional[int] = None) -> DistTrainResult:
        """Train to completion (or pause at the ``until`` tree boundary).

        Returns the result record — final when the session is done,
        in-progress (memory/comm not yet finalized) when paused early.
        """
        target = self.num_trees if until is None \
            else min(until, self.num_trees)
        while self.state.tree_index < target:
            if self.policy is not None and self.state.tree_index > 0:
                self._consult_policy()
            self.step()
        if self.done:
            self._finalize()
        return self.result

    def _finalize(self) -> None:
        reports = self._retired_memory + [self.system.memory()]
        self.result.memory = MemoryReport(
            data_bytes=max(r.data_bytes for r in reports),
            histogram_bytes=max(r.histogram_bytes for r in reports),
        )
        self.result.comm = self.system.net.snapshot()

    # -- plan migration ---------------------------------------------------------

    @property
    def migrator(self):
        """The session's :class:`~repro.systems.migration.PlanMigrator`."""
        if self._migrator is None:
            from .migration import PlanMigrator

            self._migrator = PlanMigrator(self)
        return self._migrator

    def migrate(self, target, decision=None) -> "MigrationRecord":
        """Switch to the ``target`` plan at the current tree boundary."""
        return self.migrator.migrate(target, decision=decision)

    def _adopt_system(self, system: PlanExecutor,
                      record: "MigrationRecord") -> None:
        """Commit a completed migration: swap executors, keep the books."""
        self._retired_memory.append(self.system.memory())
        self.system = system
        self.state.plan_key = record.target_plan
        self.state.elapsed_seconds += record.seconds
        self.result.migrations.append(record)
        self.result.plan_history.append(record.target_plan)
        self._grad_unit = gradient_unit_seconds(system.loss, self.binned,
                                                self.state.scores)

    def _consult_policy(self) -> None:
        decision = self.policy.consider(self)
        if decision is None:
            return
        self.result.decisions.append(decision)
        if decision.migrate:
            self.migrate(decision.target_plan, decision=decision)

    # -- persistence ------------------------------------------------------------

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the session at the current tree boundary."""
        from ..core.serialize import ensemble_to_dict

        state = self.state
        return SessionCheckpoint(
            tree_index=state.tree_index,
            plan_key=state.plan_key,
            model_payload=ensemble_to_dict(self.ensemble),
            scores=state.scores.copy(),
            valid_scores=(None if state.valid_scores is None
                          else state.valid_scores.copy()),
            elapsed_seconds=state.elapsed_seconds,
            tree_checkpoint=self.system.take_checkpoint(
                state.tree_index, self.ensemble),
            plan_history=tuple(self.result.plan_history),
        )

    @classmethod
    def resume(
        cls,
        checkpoint: SessionCheckpoint,
        config: TrainConfig,
        cluster: ClusterConfig,
        train: "Dataset | BinnedDataset",
        valid: Optional[Dataset] = None,
        num_trees: Optional[int] = None,
        policy=None,
    ) -> "TrainingSession":
        """Rebuild a session from a checkpoint and continue from there.

        The resumed session re-trains nothing: the committed trees come
        from the checkpoint payload, and training picks up at
        ``checkpoint.tree_index``.  Its traffic ledger starts fresh (the
        checkpoint pins the pre-resume ledger via its embedded
        ``tree_checkpoint``).  A checkpoint whose scores do not cover
        the dataset's instances, or that holds more trees than the
        session may train, raises ``ValueError``.
        """
        from ..core.serialize import ensemble_from_dict
        from .plans import get_plan

        system = get_plan(checkpoint.plan_key).build(config, cluster)
        session = cls(system, train, valid=valid, num_trees=num_trees,
                      policy=policy)
        rows, instances = (checkpoint.scores.shape[0],
                           session.binned.num_instances)
        if rows != instances:
            raise ValueError(
                f"checkpoint scores cover {rows} instances but the "
                f"dataset has {instances}: resume on the dataset the "
                "checkpoint was trained on"
            )
        if checkpoint.tree_index > session.num_trees:
            raise ValueError(
                f"checkpoint is at tree {checkpoint.tree_index}, past the "
                f"session's num_trees={session.num_trees}"
            )
        restored = ensemble_from_dict(checkpoint.model_payload)
        session.ensemble.trees[:] = restored.trees
        session.state.tree_index = checkpoint.tree_index
        session.state.scores = checkpoint.scores.copy()
        session.state.valid_scores = (
            None if checkpoint.valid_scores is None
            else checkpoint.valid_scores.copy()
        )
        session.state.elapsed_seconds = checkpoint.elapsed_seconds
        session.result.plan_history[:] = list(
            checkpoint.plan_history or (checkpoint.plan_key,))
        return session
