"""Versioned model registry with checksums, hot-swap, and rollback.

A :class:`ModelRegistry` owns every model a serving process knows about.
Models enter through :meth:`~ModelRegistry.publish` (in-memory ensembles
or payload dicts) or :meth:`~ModelRegistry.publish_file` (the
:mod:`repro.core.serialize` JSON format); each gets a monotonically
increasing version number, a SHA-256 checksum of its canonical payload
encoding, the payload's wire size in bytes (what a deploy ships, per the
block-distributed-GBDT accounting argument), and a ready-to-serve
:class:`~repro.serve.compiler.CompiledEnsemble`.

Exactly one version is *active* at a time.  :meth:`~ModelRegistry.activate`
is an atomic pointer flip — a traffic source that resolves the active
version at batch-dispatch time therefore serves every batch from exactly
one version, which is the hot-swap invariant the serving tests pin.
:meth:`~ModelRegistry.rollback` re-activates the previously active
version (the activation history is kept, so repeated rollbacks walk
backwards).

Deployment staging layers on top of the active pointer: a published
version can be staged as a *canary* (:meth:`~ModelRegistry.stage_canary`),
then either promoted to active (:meth:`~ModelRegistry.promote`) or
retired (:meth:`~ModelRegistry.roll_back`) when the drift monitor
condemns it.  A retired version can never be re-staged — a bad model
stays rolled back.  Attached prediction caches are notified eagerly on
*every* active-version change (hot-swap, promote, rollback), so stale
entries are flushed at the decision instant rather than at the next
lookup.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..config import TrainConfig
from ..core.gbdt import GBDT
from ..core.serialize import (canonical_payload_bytes, ensemble_from_dict,
                              ensemble_to_dict, payload_checksum)
from ..core.tree import TreeEnsemble
from .compiler import CompiledEnsemble, compile_ensemble, shard_bounds


def shard_payload(payload: dict, start: int, stop: int) -> dict:
    """The serialize-format payload restricted to trees
    ``start..stop`` (exclusive) — what a sharded deploy ships to one
    shard group.  The result is a complete, loadable model payload
    (``ensemble_from_dict`` accepts it), so a shard can be published,
    checksummed, and verified exactly like a full model."""
    return {**payload, "trees": payload["trees"][start:stop]}


@dataclass(frozen=True)
class ModelShard:
    """One tree-range shard of a published version.

    The deployable unit of tree-sharded serving
    (:mod:`repro.serve.sharded`): shard ``shard_index`` of ``num_shards``
    holds trees ``start_tree..stop_tree`` of ``version``.  ``payload``
    is the canonical serialize-format slice, independently checksummed,
    and ``nbytes`` its canonical encoding size — the wire cost of
    shipping this shard to one worker.  Each shard's payload, compiled on
    its own and folded into the carry in shard order
    (:meth:`~repro.serve.compiler.CompiledEnsemble.add_raw_scores`),
    reproduces the version's compiled scores bit for bit.
    """

    version: int
    shard_index: int
    num_shards: int
    start_tree: int
    stop_tree: int
    checksum: str
    nbytes: int
    payload: dict = field(repr=False)

    @property
    def num_trees(self) -> int:
        return self.stop_tree - self.start_tree

    def __str__(self) -> str:
        return (f"v{self.version}[{self.shard_index}/{self.num_shards}] "
                f"(trees {self.start_tree}..{self.stop_tree}, "
                f"{self.nbytes / 1e6:.2f}MB, "
                f"sha256:{self.checksum[:12]})")


@dataclass(frozen=True)
class ModelVersion:
    """One published model: identity, provenance, and compiled form."""

    version: int
    checksum: str
    #: canonical JSON payload size — the bytes a deploy ships per worker
    nbytes: int
    objective: str
    num_classes: int
    compiled: CompiledEnsemble
    ensemble: TreeEnsemble = field(repr=False)
    source: str = "<memory>"
    #: the serialized payload dict — kept so successive versions can be
    #: delta-encoded against each other without re-serializing
    payload: Optional[dict] = field(default=None, repr=False)

    def __str__(self) -> str:
        return (f"v{self.version} ({self.objective}, "
                f"{self.compiled.num_trees} trees, "
                f"{self.nbytes / 1e6:.2f}MB, "
                f"sha256:{self.checksum[:12]})")


class ModelRegistry:
    """Versioned store of served models with one active pointer."""

    def __init__(self) -> None:
        self._versions: Dict[int, ModelVersion] = {}
        self._active: Optional[ModelVersion] = None
        self._activation_log: List[int] = []
        self._next_version = 1
        #: explicit stage overrides ("canary"/"retired"); anything else
        #: derives from the active pointer ("active" or "published")
        self._stages: Dict[int, str] = {}
        self._stage_log: List[tuple] = []
        self._caches: List = []
        #: (version, num_shards) -> ModelShard list; slicing and
        #: checksumming a big payload is not free, and a fleet deploys
        #: the same sharding many times (rows x rollouts)
        self._shard_cache: Dict[tuple, List[ModelShard]] = {}

    # -- publishing --------------------------------------------------------

    def publish(self, model: Union[TreeEnsemble, dict],
                source: str = "<memory>") -> ModelVersion:
        """Register a model and return its :class:`ModelVersion`.

        Accepts a live :class:`TreeEnsemble` or a payload dict in the
        :mod:`repro.core.serialize` format (validated either way).  The
        first publish auto-activates, so a fresh registry serves as soon
        as it holds one model; later publishes never change the active
        version — that takes an explicit :meth:`activate`.
        """
        if isinstance(model, TreeEnsemble):
            payload = ensemble_to_dict(model)
            ensemble = model
        else:
            payload = model
            ensemble = ensemble_from_dict(payload)
        entry = ModelVersion(
            version=self._next_version,
            checksum=payload_checksum(payload),
            nbytes=len(canonical_payload_bytes(payload)),
            objective=str(payload.get("objective", "binary")),
            num_classes=int(payload.get("num_classes", 2)),
            compiled=compile_ensemble(ensemble),
            ensemble=ensemble,
            source=source,
            payload=payload,
        )
        self._versions[entry.version] = entry
        self._next_version += 1
        if self._active is None:
            self.activate(entry.version)
        return entry

    def publish_file(self, path: Union[str, Path],
                     expected_checksum: Optional[str] = None
                     ) -> ModelVersion:
        """Publish a model JSON file, optionally pinning its checksum.

        ``expected_checksum`` guards the ship: if the payload read from
        disk does not hash to it, the file was corrupted or swapped in
        transit and the publish is refused.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not a valid model file") from exc
        actual = payload_checksum(payload)
        if expected_checksum is not None and actual != expected_checksum:
            raise ValueError(
                f"checksum mismatch for {path}: expected "
                f"{expected_checksum}, got {actual}"
            )
        return self.publish(payload, source=str(path))

    # -- the active pointer ------------------------------------------------

    @property
    def active(self) -> ModelVersion:
        """The currently served version (raises if nothing is active)."""
        if self._active is None:
            raise LookupError("registry has no active model")
        return self._active

    def activate(self, version: int) -> ModelVersion:
        """Atomically flip the active pointer to ``version``."""
        entry = self.get(version)
        self._active = entry
        self._activation_log.append(entry.version)
        self._notify_caches()
        return entry

    def rollback(self) -> ModelVersion:
        """Re-activate the previously active version.

        Walks the activation history: the current activation is popped,
        so consecutive rollbacks step further back.  Refuses when there
        is no earlier activation to return to.  Attached caches are
        invalidated eagerly — a rollback is a version change exactly
        like a hot-swap, so entries scored by the abandoned version must
        not survive it.
        """
        if len(self._activation_log) < 2:
            raise LookupError("no previous activation to roll back to")
        self._activation_log.pop()
        entry = self.get(self._activation_log[-1])
        self._active = entry
        self._notify_caches()
        return entry

    # -- deployment stages -------------------------------------------------

    def stage_of(self, version: int) -> str:
        """Deployment stage of a published version: ``"published"``,
        ``"canary"``, ``"active"``, or ``"retired"``."""
        self.get(version)
        if self._active is not None and version == self._active.version:
            return "active"
        return self._stages.get(version, "published")

    def stages(self) -> Dict[int, str]:
        """Stage of every published version, keyed by version id."""
        return {v: self.stage_of(v) for v in sorted(self._versions)}

    @property
    def stage_log(self) -> List[tuple]:
        """``(version, stage)`` transitions in decision order."""
        return list(self._stage_log)

    def stage_canary(self, version: int) -> ModelVersion:
        """Stage ``version`` as the canary candidate.

        A canary is published-but-probationary: a deployment controller
        routes a slice of traffic (or shadow traffic) to it while the
        drift monitor accumulates evidence.  Refuses the active version
        (nothing to canary against) and any retired version — a model
        that was rolled back once stays rolled back.
        """
        entry = self.get(version)
        stage = self.stage_of(version)
        if stage == "retired":
            raise ValueError(
                f"version {version} was rolled back; refusing to "
                "re-stage a retired model as a canary"
            )
        if stage == "active":
            raise ValueError(
                f"version {version} is already active; a canary must "
                "be a non-active version"
            )
        self._stages[version] = "canary"
        self._stage_log.append((version, "canary"))
        return entry

    def promote(self, version: int) -> ModelVersion:
        """Promote a staged canary to the active version.

        The flip itself is :meth:`activate` (atomic, logged, caches
        notified); promotion additionally requires that the version went
        through the canary stage — the deployment controller's verdict
        path is the only road to production.
        """
        if self.stage_of(version) != "canary":
            raise ValueError(
                f"version {version} is {self.stage_of(version)!r}; "
                "only a staged canary can be promoted"
            )
        self._stages.pop(version, None)
        self._stage_log.append((version, "active"))
        return self.activate(version)

    def roll_back(self, version: int) -> ModelVersion:
        """Retire a condemned version; returns the version left active.

        If ``version`` is the active model, the previous activation is
        restored (exactly :meth:`rollback`).  If it is a staged canary,
        it is retired in place and the incumbent keeps serving.  Either
        way the version is marked ``"retired"`` (it can never be staged
        again) and attached caches are invalidated eagerly, so entries
        scored by the condemned version are flushed at the decision
        instant.
        """
        if self.stage_of(version) == "active":
            left = self.rollback()
        else:
            left = self.active
            self._notify_caches()
        # recorded only once nothing above has refused
        self._stages[version] = "retired"
        self._stage_log.append((version, "retired"))
        return left

    # -- tree-range shards -------------------------------------------------

    def shards(self, version: int, num_shards: int) -> List[ModelShard]:
        """Tree-range shards of a published version, cached per
        ``(version, num_shards)``.

        Each shard carries its own canonical payload slice and SHA-256
        checksum, so a sharded rollout ships and verifies shard ``j``'s
        payload to shard group ``j`` only — per-worker deploy bytes
        scale as ``~1/S`` of the full payload instead of replicating it.
        Empty shards (when ``num_shards`` exceeds the tree count) are
        legal and score zero, so a fleet layout can outlive model size.
        """
        key = (int(version), int(num_shards))
        cached = self._shard_cache.get(key)
        if cached is not None:
            return cached
        entry = self.get(version)
        payload = (entry.payload if entry.payload is not None
                   else ensemble_to_dict(entry.ensemble))
        shards: List[ModelShard] = []
        for j, (start, stop) in enumerate(
                shard_bounds(entry.compiled.num_trees, num_shards)):
            piece = shard_payload(payload, start, stop)
            shards.append(ModelShard(
                version=entry.version,
                shard_index=j,
                num_shards=num_shards,
                start_tree=start,
                stop_tree=stop,
                checksum=payload_checksum(piece),
                nbytes=len(canonical_payload_bytes(piece)),
                payload=piece,
            ))
        self._shard_cache[key] = shards
        return shards

    # -- cache attachment --------------------------------------------------

    def attach_cache(self, cache) -> None:
        """Register a prediction cache for eager invalidation.

        The cache's ``on_version_change(active_version)`` hook fires on
        every activation change — hot-swap, promote, rollback — closing
        the gap where a lazily-invalidated cache could hand out scores
        from an already-abandoned version between the registry decision
        and the next serve call.
        """
        if cache not in self._caches:
            self._caches.append(cache)

    def _notify_caches(self) -> None:
        version = self._active.version if self._active else None
        for cache in self._caches:
            cache.on_version_change(version)

    # -- introspection -----------------------------------------------------

    def get(self, version: int) -> ModelVersion:
        try:
            return self._versions[version]
        except KeyError:
            raise KeyError(
                f"unknown model version {version}; published: "
                f"{sorted(self._versions) or 'none'}"
            ) from None

    def versions(self) -> List[ModelVersion]:
        """Every published version, oldest first."""
        return [self._versions[v] for v in sorted(self._versions)]

    @property
    def activation_log(self) -> List[int]:
        """Version ids in activation order (rollbacks pop entries)."""
        return list(self._activation_log)

    def __len__(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:
        active = self._active.version if self._active else None
        return (f"ModelRegistry(versions={sorted(self._versions)}, "
                f"active={active})")


def publish_trained(registry: ModelRegistry, dataset, config: TrainConfig,
                    source: str, successor: Optional[str] = None
                    ) -> ModelVersion:
    """Train the served model on ``dataset`` under ``config``, publish it
    as ``source`` and return its entry; with ``successor`` (a source),
    publish the hot-swap successor as the next version: the same data
    retrained with ``max(T // 2, 1)`` trees.  Every runner and bench
    trains its served models here."""
    entry = registry.publish(GBDT(config).fit(dataset).ensemble,
                             source=source)
    if successor is not None:
        half = dataclasses.replace(
            config, num_trees=max(config.num_trees // 2, 1))
        registry.publish(GBDT(half).fit(dataset).ensemble, source=successor)
    return entry
