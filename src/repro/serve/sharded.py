"""Tree-sharded (vertically partitioned) serving.

An ``S = 1`` :class:`~repro.serve.replica.ReplicaSet` replicates the
whole compiled model to every worker, so per-worker model memory and
deploy bytes scale with ensemble size.  For the QD3/QD4 regime (very
wide features, deep ensembles) the same fleet shards the *ensemble* by
tree range instead (``num_shards >= 2``; :class:`ShardedReplicaSet` is
that layout by name) — the serving-side mirror of the paper's
replicate-vs-partition question:

- worker ``r * S + j`` of the ``R x S`` grid holds shard ``j`` (tree
  range ``j`` of the deployed version), so each worker stores ``~1/S``
  of the model and a rollout ships each shard to its group only;
- every batch occupies one whole row: its score is the row's chain fold
  over the shards' trees (real, run by the version's score book), and
  the carry's hops are simulated traffic through the :mod:`repro.cluster.comm` collective
  cost models under the ``serve:partial`` ledger kind.

Exactness
---------
Float addition is not associative, so summing independently computed
shard partials would *not* reproduce the monolithic predictor bit for
bit.  The reduction is therefore an **ordered chain fold** (the
reduce-scatter ring pass, specialized to one logical chunk): the running
float64 accumulator starts at shard group 0 and hops along the row in
shard order, each worker folding its trees' contributions into the carry
tree by tree (:meth:`CompiledEnsemble.add_raw_scores`).  Per element the
fold performs literally the same float64 additions, in the same order,
as ``CompiledEnsemble.raw_scores`` — so sharded serving is bit-identical
to replicated serving for every ``S``.  The exactness lives in that
per-tree order, not in splitting the walk: the carry crosses every hop
unchanged, so a row's trees — ``[0, T)`` in order — fold in one
traversal of the version's compiled ensemble, run by its score book
over many batches at once.  What a shard worker
holds is its shipped payload (:class:`~repro.serve.registry.ModelShard`),
and compiling that payload and folding it into the carry gives the same
bytes.

Accounting
----------
The carry crosses ``S - 1`` links, one full score vector each — exactly
the ring reduce-scatter decomposition ``(S-1)/S * payload`` per worker
over ``S - 1`` rounds, charged per batch under ``serve:partial`` via
:func:`~repro.cluster.comm.record_collective`; the reduced scores end
on the row's last worker.  Compute is billed by one rule: each row
member's tree share of one full-model figure.
"""

from __future__ import annotations

from typing import Optional

from ..config import ClusterConfig
from .registry import ModelRegistry
from .replica import PARTIAL_KIND, SHARD_DEPLOY_KIND, ReplicaSet

__all__ = ["PARTIAL_KIND", "SHARD_DEPLOY_KIND", "ShardedReplicaSet",
           "fleet_class"]


class ShardedReplicaSet(ReplicaSet):
    """The fleet's ``S >= 2`` layout by name (default ``num_shards=2``).

    No behaviour of its own — every option, method and ledger read-out
    is :class:`~repro.serve.replica.ReplicaSet`'s, and an ``S = 1``
    fleet built under this name is a replicated fleet (``deploy:model``
    rollouts, no collective).
    """

    def __init__(self, registry: ModelRegistry,
                 cluster: Optional[ClusterConfig] = None,
                 num_shards: int = 2, **options) -> None:
        super().__init__(registry, cluster, num_shards=num_shards,
                         **options)

    # own class attributes on purpose: bench/e2e's tracer anchors its
    # serve.sharded spans on vars(ShardedReplicaSet), not on inheritance
    deploy = ReplicaSet.deploy
    dispatch = ReplicaSet.dispatch


def fleet_class(num_shards: int) -> type:
    """The class name a layout is built under: behaviour is the same
    either way, only bench/e2e's per-class span layers tell them apart."""
    return ShardedReplicaSet if num_shards > 1 else ReplicaSet
