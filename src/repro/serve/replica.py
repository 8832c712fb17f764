"""The serving fleet: an ``R x S`` grid over the simulated cluster.

A :class:`ReplicaSet` serves one :class:`~repro.serve.registry.ModelRegistry`
from ``W = R * S`` simulated workers: ``R`` replica rows of ``S``
tree-shard groups, worker ``r * S + j`` holding shard ``j`` (a
:class:`~repro.serve.registry.ModelShard`) of the version deployed to
row ``r``.  Replicated serving is the ``S = 1`` row of that grid — every
worker is its own row and its one shard *is* the whole payload (same
bytes, same checksum); tree-sharded serving (:mod:`repro.serve.sharded`,
which documents the chain fold's exactness and accounting) is ``S >= 2``.
The layout is a parameter, not a second code base, so a
replicate-vs-shard comparison isolates the layout alone.

The training-side simulation contract holds: prediction *computation*
is real — each version's served rows are scored in its
:class:`~repro.serve.batcher.ScoreBook`, a walk block at a time, and
billed by a deterministic ``service_model`` (or, without one, scored at
dispatch and billed that call's wall clock); *model distribution* and
*score reduction* are simulated traffic — a deploy ships each shard's
canonical payload bytes through
:class:`~repro.cluster.network.SimulatedNetwork` under ``deploy:model``
(``deploy:shard`` when ``S >= 2``, so the layouts' rollout bytes stay
separable), and a batch's partial scores chain along its row under
``serve:partial``.  An ``S = 1`` row has no link to cross: it pays no
collective and writes no such key.  Because the hop is simulated and
the float64 carry crosses it unchanged, a row computes its chain fold
in one traversal of all its trees.

Balancers: ``round-robin`` (rows in a fixed cycle, oblivious to
stragglers) and ``least-loaded`` (the row ready earliest, ties to the
lowest id; adapts to heterogeneous ``worker_speeds``).

Rows serve whatever version was last *deployed to them* — a registry
``activate`` changes nothing until :meth:`ReplicaSet.deploy` ships it.
A deploy can target a *subset* of rows (a row is one worker at
``S = 1``) under a caller-chosen kind (``deploy:canary``): the fleet
then holds two versions partitioned by row, and ``dispatch`` takes a row
*pool* so a router can pin a batch to one side.  A batch lands on one
row and a row holds one version, so every request is served by exactly
one version, whatever the mix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ClusterConfig
from ..cluster.codecs import apply_model_delta, encode_model_delta
from ..cluster.comm import record_collective
from ..cluster.network import SimulatedNetwork
from ..core.serialize import canonical_payload_bytes, payload_checksum
from .batcher import DispatchResult, ScoreBook, billed_scores
from .registry import ModelRegistry, ModelShard, ModelVersion

#: ledger kinds of model distribution: an ``S = 1`` fleet's, a sharded one's
DEPLOY_KIND, SHARD_DEPLOY_KIND = "deploy:model", "deploy:shard"
#: ledger kind of the partial-score carry along a sharded row
PARTIAL_KIND = "serve:partial"

_BALANCERS = ("round-robin", "least-loaded")

#: why a fleet (and a scenario) refuses ``cache`` with ``num_shards > 1``
CACHE_SHARDING_CONFLICT = (
    "prediction cache and tree sharding are mutually exclusive: cache "
    "entries hold full-model scores, but a sharded row only ever "
    "computes per-shard partials"
)


def resolve_version(registry: ModelRegistry,
                    version: Union[int, ModelVersion, None]) -> ModelVersion:
    """The registry entry ``version`` names: a version id, an entry
    itself, or ``None`` for the registry's active version."""
    if version is None:
        return registry.active
    if isinstance(version, ModelVersion):
        return version
    return registry.get(int(version))


def deployer(fleet, version: Union[int, ModelVersion, None] = None
             ) -> Callable[[float], None]:
    """A swap action for :meth:`MicroBatcher.run`: activates (when
    given a version id) and deploys at the swap's simulated time.
    The fleet binds this as its ``deployer`` method."""
    def action(at_s: float) -> None:
        if isinstance(version, int):
            fleet.registry.activate(version)
        fleet.deploy(version, at_s=at_s)
    return action


class ReplicaSet:
    """``R x S`` grid of simulated workers serving one registry.

    Satisfies the :class:`~repro.serve.batcher.MicroBatcher` backend
    contract (``next_free_s`` / ``dispatch``).  A batch occupies one
    whole replica row (the default ``num_shards=1`` makes every worker
    its own row — plain replication) and its score is the ordered chain
    fold of the row's shards.  ``cluster.num_workers`` must be a
    multiple of ``num_shards``.

    ``service_model`` maps a batch size to baseline seconds *for the
    full model* (the wall clock of the row's fold when omitted); each
    row member is billed its tree fraction of that over
    ``cluster.speed_of(w)``, so stragglers serve slower exactly as they
    train slower.  The reduced scores end on the row's last worker; a
    dispatch returns their positions in the version's :meth:`book`.
    """

    def __init__(self, registry: ModelRegistry,
                 cluster: Optional[ClusterConfig] = None,
                 network: Optional[SimulatedNetwork] = None,
                 balancer: str = "round-robin",
                 service_model: Optional[Callable[[int], float]] = None,
                 delta_deploys: bool = False, cache=None,
                 num_shards: int = 1) -> None:
        if balancer not in _BALANCERS:
            raise ValueError(
                f"unknown balancer {balancer!r}; choose from {_BALANCERS}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > 1 and cache is not None:
            raise ValueError(CACHE_SHARDING_CONFLICT)
        self.registry = registry
        self.cluster = cluster or ClusterConfig()
        if self.cluster.num_workers % num_shards != 0:
            raise ValueError(
                f"fleet of {self.cluster.num_workers} workers cannot "
                f"hold {num_shards} shard groups evenly; num_workers "
                "must be a multiple of num_shards")
        self.network = network or SimulatedNetwork(self.cluster.network)
        self.balancer = balancer
        self.service_model = service_model
        self.delta_deploys = delta_deploys
        #: opt-in fleet-wide :class:`~repro.serve.cache.PredictionCache`
        #: (``S = 1`` only): only rows that miss are billed
        self.cache = cache
        self.num_shards = num_shards
        self.num_workers = self.cluster.num_workers
        self.num_rows = self.num_workers // num_shards
        #: kind of a fleet-wide rollout, read by :attr:`deploy_bytes` —
        #: set by the layout, not by the class name
        self.deploy_kind = (SHARD_DEPLOY_KIND if num_shards > 1
                            else DEPLOY_KIND)
        # plain lists: the free-time read sits on the batcher's path
        self._free: List[float] = [0.0] * self.num_workers
        self._deployed = [None] * self.num_workers  # ModelShard each
        self._all_rows = range(self.num_rows)
        #: round-robin cursors: ``None`` is the whole fleet's; each row
        #: pool keeps its own, so canary and incumbent cycle fairly
        self._rr_cursors: Dict[Optional[Tuple[int, ...]], int] = {}
        self._books: Dict[int, ScoreBook] = {}

    # -- the grid ----------------------------------------------------------

    def row_ready_s(self, row: int) -> float:
        """Instant every worker of ``row`` is free — a batch needs the
        whole row, so the row's readiness is its slowest member's."""
        lo = row * self.num_shards
        return max(self._free[lo:lo + self.num_shards])

    def _check_pool(self, pool: Sequence[int]) -> Sequence[int]:
        if len(pool) == 0:
            raise ValueError("worker pool must not be empty")
        for row in pool:
            if not (0 <= row < self.num_rows):
                raise ValueError(f"row {row} out of range (fleet has "
                                 f"{self.num_rows} rows)")
        return pool

    def _pick_row(self, pool: Optional[Sequence[int]] = None,
                  take: bool = False, least_loaded: bool = False) -> int:
        """The row the next batch (of ``pool``, or of the whole fleet)
        lands on; ``take`` moves the round-robin cursor past it,
        ``least_loaded`` overrides the balancer.  Ties on readiness
        break to the earliest candidate."""
        rows = self._all_rows if pool is None else self._check_pool(pool)
        if least_loaded or self.balancer != "round-robin":
            return int(min(rows, key=self.row_ready_s))
        key = None if pool is None else tuple(pool)
        cursor = self._rr_cursors.get(key, 0)
        if take:
            self._rr_cursors[key] = (cursor + 1) % len(rows)
        return int(rows[cursor])

    def _row_shards(self, row: int) -> List[ModelShard]:
        """What ``row`` serves from: all deployed, all of one version."""
        lo = row * self.num_shards
        shards = self._deployed[lo:lo + self.num_shards]
        if None in shards:
            raise RuntimeError(
                f"row {row} has undeployed workers (no model to serve "
                "from); call deploy() before serving traffic")
        versions = {shard.version for shard in shards}
        if len(versions) != 1:
            raise RuntimeError(
                f"row {row} holds mixed versions {sorted(versions)}; "
                "a batch must be served by exactly one version")
        return shards

    def _tree_shares(self, shards: Sequence[ModelShard],
                     full_model_seconds: float) -> List[float]:
        """Each row member's tree fraction of ``full_model_seconds``."""
        trees = sum(shard.num_trees for shard in shards)
        return [full_model_seconds * (shard.num_trees / trees if trees
                                      else 1.0 / self.num_shards)
                for shard in shards]

    def _bill(self, row: int, at_s: float, baselines: Sequence[float],
              collective_seconds: float = 0.0) -> Tuple[float, float]:
        """Occupy ``row`` from ``max(at_s, its readiness)``: member ``j``
        computes ``baselines[j]`` seconds at its own ``speed_of``, and
        every member is held until the slowest is done and the
        collective completes.  Returns ``(start_s, completion_s)``."""
        lo = row * self.num_shards
        start = max(at_s, self.row_ready_s(row))
        done = start + max(
            seconds / self.cluster.speed_of(lo + j)
            for j, seconds in enumerate(baselines)) + collective_seconds
        self._free[lo:lo + self.num_shards] = [done] * self.num_shards
        return start, done

    # -- model distribution ------------------------------------------------

    def deploy(self, version: Union[int, ModelVersion, None] = None,
               at_s: float = 0.0, workers: Optional[Sequence[int]] = None,
               kind: Optional[str] = None) -> ModelVersion:
        """Ship a model version to every row (or a targeted subset).

        ``version`` is a version id, a :class:`ModelVersion`, or ``None``
        for the registry's active one.  Worker ``r * S + j`` receives
        shard ``j``'s canonical payload as one simulated transfer and is
        busy installing for its duration, so traffic queues behind the
        rollout.  A rollout ships ``~R *`` full payload at any ``S``
        (``W *`` at ``S = 1``); per-worker model bytes scale as ``~1/S``.

        ``workers`` restricts the rollout to a subset of replica *rows*
        (worker ``w`` sits in row ``w // S``; the ids coincide only at
        ``S = 1``) — how a canary lands on its slice — and ``kind``
        labels the traffic (default :attr:`deploy_kind`).  With
        ``delta_deploys``, a worker already holding another version's
        shard receives only the tree-suffix delta against it, applied
        and checksum-verified before its bytes are believed; without a
        verified delta the full shard ships.  ``raw_nbytes`` stays the
        full shard size, so ``codec:<kind>`` reports what the deltas
        avoided shipping.
        """
        entry = resolve_version(self.registry, version)
        shards = self.registry.shards(entry.version, self.num_shards)
        rows = (self._all_rows if workers is None
                else self._check_pool(workers))
        kind = kind or self.deploy_kind
        # (predecessor version, shard group) -> verified delta wire size
        delta_nbytes: dict = {}
        for row in rows:
            for j, shard in enumerate(shards):
                worker = row * self.num_shards + j
                wire = shard.nbytes
                prev = self._deployed[worker]
                if self.delta_deploys and prev is not None:
                    key = (prev.version, j)
                    if key not in delta_nbytes:
                        delta_nbytes[key] = self._delta_bytes(prev, shard)
                    wire = min(delta_nbytes[key] or wire, shard.nbytes)
                seconds = self.network.transfer(kind, wire,
                                                raw_nbytes=shard.nbytes)
                self._free[worker] = max(self._free[worker],
                                         at_s) + seconds
                self._deployed[worker] = shard
        return entry

    @staticmethod
    def _delta_bytes(prev: ModelShard, new: ModelShard) -> Optional[int]:
        """Wire size of the delta ``prev`` -> ``new``, verified by
        rebuilding ``new`` to its checksum; ``None`` without one."""
        delta = encode_model_delta(prev.payload, new.payload)
        if delta is None:
            return None
        rebuilt = apply_model_delta(prev.payload, delta)
        if payload_checksum(rebuilt) != new.checksum:
            return None
        return len(canonical_payload_bytes(delta))

    deployer = deployer

    def deployed_versions(self) -> list:
        """Per-worker deployed version id (``None`` before any deploy)."""
        return [None if shard is None else shard.version
                for shard in self._deployed]

    def book(self, version: int) -> ScoreBook:
        """The score book of ``version``: every row the fleet serves
        (or shadow-scores) on it, one book per version."""
        book = self._books.get(version)
        if book is None:
            book = self._books[version] = ScoreBook(
                self.registry.get(version).compiled)
        return book

    # -- MicroBatcher backend contract -------------------------------------

    def next_free_s(self, pool: Optional[Sequence[int]] = None) -> float:
        """Readiness of the row the *next* batch will land on."""
        return self.row_ready_s(self._pick_row(pool))

    def occupy(self, pool: Sequence[int], at_s: float,
               baseline_seconds: float) -> Tuple[int, float, float]:
        """Bill ``baseline_seconds`` of full-model compute to the
        least-loaded row of ``pool`` without serving traffic from it.

        Shadow scoring uses this: canary rows score every batch for the
        monitor, so their clocks advance as if they served it.  Returns
        ``(worker, start_s, completion_s)``, the worker the row's tail."""
        row = self._pick_row(pool, least_loaded=True)
        start, done = self._bill(row, at_s, self._tree_shares(
            self._row_shards(row), baseline_seconds))
        return (row + 1) * self.num_shards - 1, start, done

    def dispatch(self, features: np.ndarray, close_s: float,
                 pool: Optional[Sequence[int]] = None) -> DispatchResult:
        row = self._pick_row(pool, take=True)
        shards = self._row_shards(row)
        version = shards[0].version
        book = self.book(version)

        # the chain fold: the float64 carry crosses every hop unchanged,
        # so the row — trees [0, T) in order — is one traversal of the
        # version's compiled ensemble, every tree one ``+=`` in tree
        # order (fold_scores), exactly what the shards fold one by one;
        # the book runs that traversal for many batches at once
        positions, full_model_seconds = billed_scores(
            book, features, self.service_model, self.cache, version)

        # the float64 carry, (rows, gradient_dim), crosses S - 1 links;
        # a one-worker row has none
        reduce_seconds = (record_collective(
            self.network, PARTIAL_KIND,
            features.shape[0] * book.compiled.gradient_dim * 8,
            self.num_shards, "reducescatter")
            if self.num_shards > 1 else 0.0)
        start, done = self._bill(row, close_s, self._tree_shares(
            shards, full_model_seconds), reduce_seconds)
        return DispatchResult(
            start_s=start, completion_s=done, model_version=version,
            worker=(row + 1) * self.num_shards - 1,   # the chain's tail
            book=book, positions=positions)

    # -- introspection -----------------------------------------------------

    def _ledger_bytes(self, kind: str, raw: bool = False) -> int:
        snapshot = self.network.snapshot()
        return (snapshot.raw_bytes_by_kind if raw
                else snapshot.bytes_by_kind).get(kind, 0)

    @property
    def deploy_bytes(self) -> int:
        """Wire bytes shipped under :attr:`deploy_kind` so far — **only**
        that kind: a subset deploy under a caller-chosen kind is
        attributed to its own (see :meth:`deploy_bytes_by_kind`)."""
        return self._ledger_bytes(self.deploy_kind)

    @property
    def deploy_raw_bytes(self) -> int:
        """Pre-encoding bytes of the same transfers — what full-payload
        rollouts would have shipped (a delta-encoded canary keeps its
        ``raw_nbytes`` under its own kind, never inflating this one)."""
        return self._ledger_bytes(self.deploy_kind, raw=True)

    @property
    def partial_bytes(self) -> int:
        """Wire bytes of the partial-score carries (``serve:partial``)."""
        return self._ledger_bytes(PARTIAL_KIND)

    def model_bytes_per_worker(self) -> int:
        """Largest deployed shard payload — the per-worker model wire
        footprint sharding buys down to ``~1/S``."""
        return max((shard.nbytes for shard in self._deployed
                    if shard is not None), default=0)

    def deploy_bytes_by_kind(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (wire_bytes, raw_bytes)`` of every ``deploy:*``
        kind (rollouts, canary slices), raw the pre-delta baseline."""
        snapshot = self.network.snapshot()
        return {
            kind: (nbytes, snapshot.raw_bytes_by_kind.get(kind, nbytes))
            for kind, nbytes in sorted(snapshot.bytes_by_kind.items())
            if kind.startswith("deploy:")
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(rows={self.num_rows}, "
                f"shards={self.num_shards}, balancer={self.balancer!r}, "
                f"deployed={self.deployed_versions()})")
