"""Replicated serving over the simulated cluster.

A :class:`ReplicaSet` serves one :class:`~repro.serve.registry.ModelRegistry`
from ``W`` simulated workers.  It follows the training-side simulation
contract exactly: prediction *computation* is real (the compiled
predictor runs and is wall-clocked, unless a deterministic
``service_model`` substitutes), while *model distribution* is simulated
network traffic — every deploy ships the model's canonical payload bytes
to each worker through :class:`~repro.cluster.network.SimulatedNetwork`
under the ``deploy:model`` ledger kind, so serving rollouts share the
byte/time accounting used for the paper's training communication results.

Two load balancers are provided:

- ``round-robin`` — workers take batches in a fixed cycle; fair under
  homogeneous workers, oblivious to stragglers;
- ``least-loaded`` — each batch goes to the worker that frees earliest
  (ties break to the lowest id); adapts to heterogeneous
  ``worker_speeds`` at the cost of determinism under ties.

Workers serve whatever model version was last *deployed to them* — a
registry ``activate`` alone changes nothing on the replicas until a
:meth:`ReplicaSet.deploy` ships it, which is how real fleets behave and
what makes the hot-swap byte accounting honest.

Deployments can target a *subset* of workers (``deploy(workers=...)``)
under a caller-chosen ledger kind (``deploy:canary``,
``deploy:rollback``), which is what a canary rollout is: the fleet holds
two versions at once, partitioned by worker, and the dispatch path takes
an optional worker *pool* so a router can pin each batch to one side of
the partition.  The mixed-version invariant holds by construction — a
batch lands on exactly one worker and a worker holds exactly one version,
so every request is served by exactly one version, whatever the mix.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ClusterConfig
from ..cluster.codecs import apply_model_delta, encode_model_delta
from ..cluster.network import SimulatedNetwork
from ..core.serialize import canonical_payload_bytes, payload_checksum
from .batcher import DispatchResult
from .registry import ModelRegistry, ModelVersion

#: ledger kind for model distribution traffic
DEPLOY_KIND = "deploy:model"

_BALANCERS = ("round-robin", "least-loaded")


def resolve_version(registry: ModelRegistry,
                    version: Union[int, ModelVersion, None]
                    ) -> ModelVersion:
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
    Every fleet backend binds this as its ``deployer`` method."""
    def action(at_s: float) -> None:
        if isinstance(version, int):
            fleet.registry.activate(version)
        fleet.deploy(version, at_s=at_s)
    return action


class ReplicaSet:
    """``W`` simulated workers serving one registry behind a balancer.

    Satisfies the :class:`~repro.serve.batcher.MicroBatcher` backend
    contract (``next_free_s`` / ``dispatch``).  ``service_model`` maps a
    batch size to baseline service seconds (measured wall-clock when
    omitted); per-worker time divides by ``cluster.speed_of(w)``, so
    stragglers configured via ``worker_speeds`` serve slower, exactly as
    they train slower.
    """

    def __init__(self, registry: ModelRegistry,
                 cluster: Optional[ClusterConfig] = None,
                 network: Optional[SimulatedNetwork] = None,
                 balancer: str = "round-robin",
                 service_model: Optional[Callable[[int], float]] = None,
                 delta_deploys: bool = False,
                 cache=None) -> None:
        if balancer not in _BALANCERS:
            raise ValueError(
                f"unknown balancer {balancer!r}; choose from {_BALANCERS}"
            )
        self.registry = registry
        self.cluster = cluster or ClusterConfig()
        self.network = network or SimulatedNetwork(self.cluster.network)
        self.balancer = balancer
        self.service_model = service_model
        self.delta_deploys = delta_deploys
        #: opt-in :class:`~repro.serve.cache.PredictionCache`; shared by
        #: every replica (the fleet-wide score store a real deployment
        #: would put in front of the workers), consulted per dispatch —
        #: only the rows that miss are billed to the service model
        self.cache = cache
        self.num_workers = self.cluster.num_workers
        self._free = np.zeros(self.num_workers)
        self._deployed: list = [None] * self.num_workers
        self._rr_next = 0
        #: independent round-robin cursor per worker pool, so canary
        #: and incumbent pools cycle fairly regardless of the split
        self._rr_cursors: Dict[Tuple[int, ...], int] = {}

    # -- model distribution ------------------------------------------------

    def deploy(self, version: Union[int, ModelVersion, None] = None,
               at_s: float = 0.0,
               workers: Optional[Sequence[int]] = None,
               kind: str = DEPLOY_KIND) -> ModelVersion:
        """Ship a model version to every worker (or a targeted subset).

        ``version`` may be a version id, a :class:`ModelVersion`, or
        ``None`` for the registry's active version.  Each worker receives
        the canonical JSON payload as one simulated ``deploy:model``
        transfer; the worker is busy installing for the transfer's
        duration, so in-flight traffic queues behind the rollout rather
        than racing it.

        ``workers`` restricts the rollout to a subset of worker ids —
        how a canary lands on its slice of the fleet — and ``kind``
        labels the traffic in the wire ledger (``deploy:canary`` and
        ``deploy:rollback`` keep canary and rollback bytes separable
        from steady-state rollouts).

        With ``delta_deploys`` enabled, a worker that already holds
        another version receives only the tree-suffix delta against it
        (:func:`~repro.cluster.codecs.encode_model_delta`) — the common
        append-only rollout ships new trees, not the whole ensemble.
        The delta is applied and checksum-verified before its bytes are
        believed; an incompatible pair falls back to the full payload.
        The ledger keeps ``raw_nbytes`` at the full payload size, so the
        ``codec:deploy:model`` savings dimension reports what the deltas
        avoided shipping.
        """
        entry = resolve_version(self.registry, version)
        targets = (range(self.num_workers) if workers is None
                   else self._check_pool(workers))
        delta_nbytes: dict = {}   # predecessor version -> delta wire size
        for worker in targets:
            wire = entry.nbytes
            prev = self._deployed[worker]
            if (self.delta_deploys and prev is not None
                    and prev.payload is not None
                    and entry.payload is not None):
                if prev.version not in delta_nbytes:
                    delta_nbytes[prev.version] = self._delta_bytes(
                        prev, entry)
                wire = min(delta_nbytes[prev.version] or wire,
                           entry.nbytes)
            seconds = self.network.transfer(kind, wire,
                                            raw_nbytes=entry.nbytes)
            self._free[worker] = max(self._free[worker], at_s) + seconds
            self._deployed[worker] = entry
        return entry

    def _check_pool(self, pool: Sequence[int]) -> Sequence[int]:
        if len(pool) == 0:
            raise ValueError("worker pool must not be empty")
        for worker in pool:
            if not (0 <= worker < self.num_workers):
                raise ValueError(
                    f"worker {worker} out of range "
                    f"(fleet has {self.num_workers} workers)"
                )
        return pool

    @staticmethod
    def _delta_bytes(prev: ModelVersion,
                     new: ModelVersion) -> Optional[int]:
        """Wire size of the delta from ``prev`` to ``new``, verified by
        reconstructing ``new`` and checking its checksum; ``None`` when
        the pair has no usable delta."""
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
        return [None if entry is None else entry.version
                for entry in self._deployed]

    def workers_serving(self, version: int) -> list:
        """Worker ids currently holding ``version``."""
        return [w for w, entry in enumerate(self._deployed)
                if entry is not None and entry.version == version]

    # -- MicroBatcher backend contract -------------------------------------

    def _pick_worker(self, pool: Optional[Sequence[int]] = None) -> int:
        if pool is None:
            if self.balancer == "round-robin":
                return self._rr_next
            return int(np.argmin(self._free))   # ties -> lowest id
        pool = self._check_pool(pool)
        if self.balancer == "round-robin":
            cursor = self._rr_cursors.get(tuple(pool), 0)
            return int(pool[cursor % len(pool)])
        free = self._free[np.asarray(pool, dtype=np.int64)]
        return int(pool[int(np.argmin(free))])

    def next_free_s(self, pool: Optional[Sequence[int]] = None) -> float:
        """Free time of the worker the *next* batch will land on."""
        return float(self._free[self._pick_worker(pool)])

    def occupy(self, pool: Sequence[int], at_s: float,
               baseline_seconds: float) -> Tuple[int, float, float]:
        """Bill ``baseline_seconds`` of compute to the least-loaded
        worker of ``pool`` without serving traffic from it.

        Shadow scoring uses this: the canary workers score every batch
        for the monitor, so their clocks must advance exactly as if they
        served it — the shadow's cost is real in the ledger even though
        its answers never reach a client.  Returns ``(worker, start_s,
        completion_s)``.
        """
        pool = self._check_pool(pool)
        free = self._free[np.asarray(pool, dtype=np.int64)]
        worker = int(pool[int(np.argmin(free))])
        seconds = baseline_seconds / self.cluster.speed_of(worker)
        start = max(at_s, float(self._free[worker]))
        self._free[worker] = start + seconds
        return worker, start, start + seconds

    def dispatch(self, features: np.ndarray, close_s: float,
                 pool: Optional[Sequence[int]] = None) -> DispatchResult:
        worker = self._pick_worker(pool)
        if self.balancer == "round-robin":
            if pool is None:
                self._rr_next = (self._rr_next + 1) % self.num_workers
            else:
                key = tuple(pool)
                self._rr_cursors[key] = (self._rr_cursors.get(key, 0)
                                         + 1) % len(pool)
        entry = self._deployed[worker]
        if entry is None:
            raise RuntimeError(
                f"worker {worker} has no model; call deploy() before "
                "serving traffic"
            )
        began = time.perf_counter()
        if self.cache is None:
            scores = entry.compiled.raw_scores(features)
            billable = features.shape[0]
        else:
            scores, billable = self.cache.serve(
                entry.version, features, entry.compiled.raw_scores)
        measured = time.perf_counter() - began
        baseline = (measured if self.service_model is None
                    else float(self.service_model(billable)))
        seconds = baseline / self.cluster.speed_of(worker)
        start = max(close_s, float(self._free[worker]))
        self._free[worker] = start + seconds
        return DispatchResult(
            start_s=start, completion_s=start + seconds, worker=worker,
            model_version=entry.version, scores=scores,
        )

    # -- introspection -----------------------------------------------------

    @property
    def deploy_bytes(self) -> int:
        """Total wire bytes shipped under ``deploy:model`` so far.

        Covers **only** the steady-state kind: subset deploys made under
        a caller-chosen kind (``deploy(workers=..., kind="deploy:canary")``,
        per-shard rollouts under ``deploy:shard``) are attributed to
        *that* kind and do not appear here — use
        :meth:`deploy_bytes_by_kind` for the full per-kind breakdown.
        """
        return self.network.snapshot().bytes_by_kind.get(DEPLOY_KIND, 0)

    @property
    def deploy_raw_bytes(self) -> int:
        """Pre-encoding bytes of every ``deploy:model`` transfer — what
        full-payload rollouts would have shipped.

        Like :attr:`deploy_bytes`, this reads only the steady-state
        kind; delta-encoded subset deploys keep their ``raw_nbytes`` (the
        full payload size) under the caller's kind, so the
        ``codec:deploy:canary`` savings dimension reports what a canary's
        deltas avoided shipping without inflating the steady-state
        numbers.
        """
        return self.network.snapshot().raw_bytes_by_kind.get(
            DEPLOY_KIND, 0)

    def deploy_bytes_by_kind(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (wire_bytes, raw_bytes)`` of every ``deploy:*`` kind.

        The per-kind ledger view that keeps subset and per-shard deploy
        accounting attributable: steady-state rollouts land under
        ``deploy:model``, canary slices under the kind their caller
        chose, sharded rollouts under ``deploy:shard`` — each with the
        raw (pre-delta, pre-codec) baseline alongside the wire bytes.
        """
        snapshot = self.network.snapshot()
        return {
            kind: (nbytes, snapshot.raw_bytes_by_kind.get(kind, nbytes))
            for kind, nbytes in sorted(snapshot.bytes_by_kind.items())
            if kind.startswith("deploy:")
        }

    def __repr__(self) -> str:
        return (f"ReplicaSet(workers={self.num_workers}, "
                f"balancer={self.balancer!r}, "
                f"deployed={self.deployed_versions()})")
