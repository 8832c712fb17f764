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
  over the shards' trees (real, wall-clocked), and the carry's hops are
  simulated traffic through the :mod:`repro.cluster.comm` collective
  cost models under the ``serve:partial`` / ``serve:reduce`` ledger
  kinds.

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
The exactness lives in that per-tree order, not in splitting the walk:
with a lossless score codec the carry crosses every hop unchanged, so
dispatch folds a row's trees — ``[0, T)`` in order — in one traversal
of the version's full compiled ensemble.  Only a lossy codec, which
really quantizes the carry between shards, walks shard by shard.

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
lossless stacks keep the exact pre-codec accounting.  An encoded
carry's size depends on its shape alone
(:meth:`~repro.cluster.codecs.ScoreCodec.wire_nbytes`), so the ledger
prices every hop without encoding it.  Compute is billed by one rule:
each row member's tree share of one full-model figure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import ClusterConfig
from .compiler import CompiledEnsemble
from .registry import ModelRegistry
from .replica import (PARTIAL_KIND, REDUCE_KIND, SHARD_DEPLOY_KIND,
                      ReplicaSet)

__all__ = ["PARTIAL_KIND", "REDUCE_KIND", "SHARD_DEPLOY_KIND",
           "ShardedReplicaSet", "fleet_class", "reduce_shard_scores"]


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
