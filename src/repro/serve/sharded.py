"""Tree-sharded (vertically partitioned) serving.

:class:`~repro.serve.replica.ReplicaSet` replicates the whole compiled
model to every worker, so per-worker model memory and deploy bytes scale
with ensemble size.  For the QD3/QD4 regime (very wide features, deep
ensembles) this module shards the *ensemble* by tree range instead — the
serving-side mirror of the paper's replicate-vs-partition question:

- the fleet is a grid of ``R`` replica rows x ``S`` shard groups; worker
  ``r * S + j`` holds shard ``j`` (trees ``tree_root`` range ``j`` of
  the active version), so each worker stores ``~1/S`` of the model and a
  rollout ships each shard's canonical payload to its group only;
- every batch fans out to one whole row: each shard worker walks its own
  trees (real, wall-clocked computation), then the partial score vectors
  reduce through the :mod:`repro.cluster.comm` collective cost models
  under the ``serve:partial`` / ``serve:reduce`` ledger kinds.

Exactness
---------
Float addition is not associative, so summing independently computed
shard partials would *not* reproduce the monolithic predictor bit for
bit.  The reduction is therefore an **ordered chain fold** (the
reduce-scatter ring pass, specialized to one logical chunk): the running
accumulator starts at shard group 0 and hops along the row in shard
order, each worker folding its trees' contributions into the carry
tree-by-tree (:meth:`CompiledEnsemble.add_raw_scores`).  Per element the
fold performs literally the same float64 additions, in the same order,
as ``CompiledEnsemble.raw_scores`` — so sharded serving is bit-identical
to replicated serving for every ``S`` (with the lossless score codec).

Accounting
----------
The carry crosses ``S - 1`` links, one full score vector each — exactly
the ring reduce-scatter decomposition ``(S-1)/S * payload`` per worker
over ``S - 1`` rounds, charged per batch under ``serve:partial`` via
:func:`~repro.cluster.comm.record_collective`.  With
``reduction="allreduce"`` the reduced vector is additionally
redistributed so every shard worker ends with the full scores (the
all-gather half of a ring all-reduce, same decomposition again) under
``serve:reduce`` — the two kinds together equal the closed-form ring
all-reduce bytes ``2 (S-1)/S * payload`` per worker.  Partial-score
payloads ride the :class:`~repro.cluster.codecs.ScoreCodec` of the
chosen codec stack: ``f32``/``f16`` quantize the carried accumulator at
every hop (the error is real, opt-in, and raw-vs-wire accounted);
lossless stacks keep the exact pre-codec accounting.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..config import ClusterConfig
from ..cluster.codecs import CodecStack, get_codec_stack
from ..cluster.comm import record_collective
from ..cluster.network import SimulatedNetwork
from .batcher import DispatchResult
from .compiler import CompiledEnsemble
from .registry import ModelRegistry, ModelShard, ModelVersion
from .replica import deployer, resolve_version

#: ledger kind of the partial-score carry (the reduce half)
PARTIAL_KIND = "serve:partial"
#: ledger kind of the reduced-score redistribution (the all-gather half)
REDUCE_KIND = "serve:reduce"
#: ledger kind of per-shard model distribution
SHARD_DEPLOY_KIND = "deploy:shard"

_BALANCERS = ("round-robin", "least-loaded")
_REDUCTIONS = ("gather", "allreduce")


def reduce_shard_scores(shards: Sequence[CompiledEnsemble],
                        features,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Ordered carry-in fold of tree-range shard scores.

    Bit-identical to the unsharded ``CompiledEnsemble.raw_scores`` on
    the same rows, for any shard count — the fold visits shards in tree
    order and accumulates tree by tree, preserving the monolithic
    predictor's exact summation order.
    """
    if not shards:
        raise ValueError("need at least one shard")
    if out is None:
        rows = (features.shape[0] if isinstance(features, np.ndarray)
                else features.num_rows)
        out = np.zeros((rows, shards[0].gradient_dim), dtype=np.float64)
    for shard in shards:
        shard.add_raw_scores(features, out)
    return out


class ShardedReplicaSet:
    """``R x S`` grid of simulated workers serving tree-range shards.

    Satisfies the :class:`~repro.serve.batcher.MicroBatcher` backend
    contract (``next_free_s`` / ``dispatch``) like
    :class:`~repro.serve.replica.ReplicaSet`, but a batch occupies one
    whole replica row (one worker per shard group) and its score is the
    collective reduction of the row's partials.  ``cluster.num_workers``
    must be a multiple of ``num_shards``.

    ``service_model`` keeps the deterministic-replay contract: it maps a
    batch size to baseline service seconds *for the full model*; each
    shard worker is billed its tree fraction of that, so a scenario's
    simulated clock is independent of the host machine.  Without it,
    each shard's fold is wall-clocked for real.  ``reduction`` picks the
    collective (``"gather"``: chain fold, result on the row's last
    worker; ``"allreduce"``: plus redistribution to every row worker)
    and ``codec`` the partial-score wire format (lossless by default;
    ``f32``/``f16`` opt into quantized carries).
    """

    def __init__(self, registry: ModelRegistry,
                 cluster: Optional[ClusterConfig] = None,
                 num_shards: int = 2,
                 network: Optional[SimulatedNetwork] = None,
                 balancer: str = "round-robin",
                 service_model: Optional[Callable[[int], float]] = None,
                 reduction: str = "gather",
                 codec: Union[str, CodecStack, None] = None) -> None:
        if balancer not in _BALANCERS:
            raise ValueError(
                f"unknown balancer {balancer!r}; choose from {_BALANCERS}"
            )
        if reduction not in _REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r}; choose from "
                f"{_REDUCTIONS}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.registry = registry
        self.cluster = cluster or ClusterConfig()
        if self.cluster.num_workers % num_shards != 0:
            raise ValueError(
                f"fleet of {self.cluster.num_workers} workers cannot "
                f"hold {num_shards} shard groups evenly; num_workers "
                "must be a multiple of num_shards"
            )
        self.network = network or SimulatedNetwork(self.cluster.network)
        self.num_shards = num_shards
        self.num_workers = self.cluster.num_workers
        self.num_rows = self.num_workers // num_shards
        self.balancer = balancer
        self.service_model = service_model
        self.reduction = reduction
        self.codec = (codec if isinstance(codec, CodecStack)
                      else get_codec_stack(codec or "none"))
        self._free = np.zeros(self.num_workers)
        self._deployed: List[Optional[ModelShard]] = \
            [None] * self.num_workers
        self._rr_next_row = 0

    # -- the grid ----------------------------------------------------------

    def row_workers(self, row: int) -> range:
        """Worker ids of replica row ``row`` (one per shard group)."""
        if not 0 <= row < self.num_rows:
            raise ValueError(
                f"row {row} out of range (fleet has {self.num_rows} rows)"
            )
        return range(row * self.num_shards, (row + 1) * self.num_shards)

    def row_ready_s(self, row: int) -> float:
        """Instant every worker of ``row`` is free — a batch needs the
        whole row, so the row's readiness is its slowest member's."""
        lo = row * self.num_shards
        return float(self._free[lo:lo + self.num_shards].max())

    def _pick_row(self) -> int:
        if self.balancer == "round-robin":
            return self._rr_next_row
        ready = [self.row_ready_s(r) for r in range(self.num_rows)]
        return int(np.argmin(ready))   # ties -> lowest row id

    # -- model distribution ------------------------------------------------

    def deploy(self, version: Union[int, ModelVersion, None] = None,
               at_s: float = 0.0,
               kind: str = SHARD_DEPLOY_KIND) -> ModelVersion:
        """Ship each shard's canonical payload to its shard group.

        Worker ``r * S + j`` receives shard ``j``'s payload slice — one
        simulated transfer of ``shards[j].nbytes`` under the
        ``deploy:shard`` kind (not ``deploy:model``; sharded and
        replicated rollout bytes stay separable in the ledger).  Total
        rollout traffic is ``R * sum_j shard_j`` ~= ``R *`` full payload
        — versus ``R * S *`` full payload for a replicated fleet of the
        same size — and per-worker model bytes scale as ``~1/S``.
        """
        entry = resolve_version(self.registry, version)
        shards = self.registry.shards(entry.version, self.num_shards)
        for row in range(self.num_rows):
            for j, shard in enumerate(shards):
                worker = row * self.num_shards + j
                seconds = self.network.transfer(kind, shard.nbytes)
                self._free[worker] = max(self._free[worker],
                                         at_s) + seconds
                self._deployed[worker] = shard
        return entry

    deployer = deployer

    def deployed_versions(self) -> list:
        """Per-worker deployed version id (``None`` before any deploy)."""
        return [None if shard is None else shard.version
                for shard in self._deployed]

    # -- MicroBatcher backend contract -------------------------------------

    def next_free_s(self) -> float:
        """Readiness of the row the *next* batch will land on."""
        return self.row_ready_s(self._pick_row())

    def dispatch(self, features: np.ndarray,
                 close_s: float) -> DispatchResult:
        row = self._pick_row()
        if self.balancer == "round-robin":
            self._rr_next_row = (self._rr_next_row + 1) % self.num_rows
        workers = list(self.row_workers(row))
        shards = [self._deployed[w] for w in workers]
        if any(shard is None for shard in shards):
            raise RuntimeError(
                f"row {row} has undeployed workers; call deploy() "
                "before serving traffic"
            )
        versions = {shard.version for shard in shards}
        if len(versions) != 1:
            raise RuntimeError(
                f"row {row} holds mixed versions {sorted(versions)}; "
                "a batch must be served by exactly one version"
            )
        rows_in_batch = features.shape[0]
        total_trees = sum(s.compiled.num_trees for s in shards)
        gradient_dim = shards[0].compiled.gradient_dim
        score_codec = self.codec.scores

        # the chain fold: worker j folds its trees into the carry, then
        # forwards it (encoded) to worker j+1; lossy codecs quantize the
        # carry at each hop, so the precision cost of narrow wire
        # formats is real
        acc = np.zeros((rows_in_batch, gradient_dim), dtype=np.float64)
        worker_seconds = []
        encoded_nbytes: Optional[int] = None
        for j, shard in enumerate(shards):
            began = time.perf_counter()
            shard.compiled.add_raw_scores(features, acc)
            measured = time.perf_counter() - began
            if self.service_model is None:
                baseline = measured
            else:
                fraction = (shard.compiled.num_trees / total_trees
                            if total_trees else 1.0 / self.num_shards)
                baseline = float(
                    self.service_model(rows_in_batch)) * fraction
            worker_seconds.append(
                baseline / self.cluster.speed_of(workers[j]))
            if j < self.num_shards - 1 and not self.codec.is_identity:
                enc = score_codec.encode(acc)
                encoded_nbytes = enc.nbytes
                if not score_codec.lossless:
                    acc = score_codec.decode(enc)

        start = max(close_s, self.row_ready_s(row))
        compute_done = start + max(worker_seconds)
        payload = rows_in_batch * gradient_dim * 8
        encoded = (None if encoded_nbytes is None
                   else [encoded_nbytes] * self.num_shards)
        reduce_seconds = record_collective(
            self.network, PARTIAL_KIND, payload, self.num_shards,
            "reducescatter", encoded_worker_bytes=encoded)
        if self.reduction == "allreduce":
            reduce_seconds += record_collective(
                self.network, REDUCE_KIND, payload, self.num_shards,
                "reducescatter", encoded_worker_bytes=encoded)
        completion = compute_done + reduce_seconds
        # every row worker participates until the collective completes
        for w in workers:
            self._free[w] = completion
        return DispatchResult(
            start_s=start, completion_s=completion,
            worker=workers[-1],   # the chain's tail holds the result
            model_version=shards[0].version, scores=acc,
        )

    # -- introspection -----------------------------------------------------

    @property
    def deploy_bytes(self) -> int:
        """Total wire bytes shipped under ``deploy:shard`` so far."""
        return self.network.snapshot().bytes_by_kind.get(
            SHARD_DEPLOY_KIND, 0)

    @property
    def deploy_raw_bytes(self) -> int:
        return self.network.snapshot().raw_bytes_by_kind.get(
            SHARD_DEPLOY_KIND, 0)

    @property
    def partial_bytes(self) -> int:
        """Wire bytes of the partial-score carries (``serve:partial``)."""
        return self.network.snapshot().bytes_by_kind.get(PARTIAL_KIND, 0)

    @property
    def reduce_bytes(self) -> int:
        """Wire bytes of reduced-score redistribution (``serve:reduce``)."""
        return self.network.snapshot().bytes_by_kind.get(REDUCE_KIND, 0)

    def model_bytes_per_worker(self) -> int:
        """Largest deployed shard payload — the per-worker model wire
        footprint the sharded layout buys down to ``~1/S``."""
        return max((shard.nbytes for shard in self._deployed
                    if shard is not None), default=0)

    def __repr__(self) -> str:
        return (f"ShardedReplicaSet(rows={self.num_rows}, "
                f"shards={self.num_shards}, "
                f"balancer={self.balancer!r}, "
                f"reduction={self.reduction!r}, "
                f"deployed={self.deployed_versions()})")
