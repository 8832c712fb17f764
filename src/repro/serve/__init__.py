"""Model serving subsystem: compile, batch, version, replicate.

Trained :class:`~repro.core.tree.TreeEnsemble` models are *grown* as
dictionaries of nodes — convenient for training, slow to serve.  This
package turns them into production-shaped inference:

- :mod:`~repro.serve.compiler` — lower an ensemble into a
  struct-of-arrays :class:`CompiledEnsemble` whose vectorized
  level-synchronous predictor is bit-identical to
  ``TreeEnsemble.raw_scores`` and several times faster on large batches,
  plus the opt-in :class:`QuantizedEnsemble` ablation that rewrites
  thresholds to uint8 bin indices and traverses cache-resident binned
  batches (still bit-identical);
- :mod:`~repro.serve.batcher` — micro-batching request scheduler on the
  simulated clock with a per-request latency ledger;
- :mod:`~repro.serve.registry` — versioned model registry with payload
  checksums, atomic hot-swap, and rollback, plus
  :func:`publish_trained`, the one place a served model and its
  half-size hot-swap successor are trained;
- :mod:`~repro.serve.replica` — replicated serving over the simulated
  cluster with ``deploy:model`` byte accounting and load balancing;
- :mod:`~repro.serve.sharded` — tree-sharded (vertically partitioned)
  serving: the ensemble splits into ``S`` tree-range shards
  (:func:`shard_ensemble`), each replica row holds one worker per shard
  group, per-shard canonical payloads deploy under ``deploy:shard``, and
  partial scores reduce through the comm collectives
  (``serve:partial``/``serve:reduce``) with an ordered carry-in fold
  that keeps sharded scores bit-identical to the full predictor;
- :mod:`~repro.serve.cache` — opt-in exact-hit
  :class:`PredictionCache` keyed on quantized bin ids, with an LRU
  bound, version invalidation and a full hit/miss/eviction ledger;
- :mod:`~repro.serve.scenarios` — declarative seeded traffic scenarios
  (diurnal curves, flash crowds, heavy-tailed multi-tenant fleets with
  latency SLOs and admission priorities) and the
  :class:`ScenarioRunner` conformance harness emitting byte-identical
  ``scenario-report/v1`` JSON;
- :mod:`~repro.serve.deploy` — closed-loop deployment: a
  :class:`DeployController` runs canary routing (or shadow scoring)
  through a :class:`CanaryRouter`, feeds delayed labels to per-version
  :class:`DriftMonitor` windows, auto-rolls-back and retrains when the
  canary degrades beyond the :class:`RollbackPolicy` margins, and emits
  a byte-deterministic ``deploy-report/v1`` decision log whose verdict
  :func:`audit_deploy` re-derives from the serving ledger alone.
"""

from .batcher import (BatchPolicy, BatchRecord, DispatchResult,
                      DropRecord, LatencyStats, MicroBatcher,
                      RequestRecord, RequestTrace, ServingReport,
                      synthetic_trace)
from .cache import CacheStats, PredictionCache
from .compiler import (CompiledEnsemble, QuantizedEnsemble,
                       compile_ensemble, quantize_ensemble,
                       shard_bounds, shard_ensemble, slice_trees)
from .deploy import (CANARY_KIND, DECISION_KIND, ROLLBACK_KIND,
                     CanaryPolicy, CanaryRouter, DeployController,
                     DeployDecision, DriftMonitor, RollbackPolicy,
                     audit_deploy, run_deploy)
from .registry import (ModelRegistry, ModelShard, ModelVersion,
                       publish_trained, shard_payload)
from .replica import DEPLOY_KIND, ReplicaSet
from .sharded import (PARTIAL_KIND, REDUCE_KIND, SHARD_DEPLOY_KIND,
                      ShardedReplicaSet, reduce_shard_scores)
from .scenarios import (SCENARIO_SCHEMA, SCENARIOS, LabelStream,
                        LoadShape, Scenario, ScenarioRunner, TenantSpec,
                        audit_priority_admission, build_trace,
                        emit_labels, get_scenario, run_scenario)

__all__ = [
    "BatchPolicy",
    "BatchRecord",
    "CANARY_KIND",
    "CacheStats",
    "CanaryPolicy",
    "CanaryRouter",
    "CompiledEnsemble",
    "DECISION_KIND",
    "DEPLOY_KIND",
    "DeployController",
    "DeployDecision",
    "DispatchResult",
    "DriftMonitor",
    "DropRecord",
    "LabelStream",
    "LatencyStats",
    "LoadShape",
    "MicroBatcher",
    "ModelRegistry",
    "ModelShard",
    "ModelVersion",
    "PARTIAL_KIND",
    "PredictionCache",
    "QuantizedEnsemble",
    "REDUCE_KIND",
    "ROLLBACK_KIND",
    "ReplicaSet",
    "SHARD_DEPLOY_KIND",
    "RequestRecord",
    "RequestTrace",
    "RollbackPolicy",
    "SCENARIOS",
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioRunner",
    "ServingReport",
    "ShardedReplicaSet",
    "TenantSpec",
    "audit_deploy",
    "audit_priority_admission",
    "build_trace",
    "compile_ensemble",
    "emit_labels",
    "get_scenario",
    "publish_trained",
    "quantize_ensemble",
    "reduce_shard_scores",
    "run_deploy",
    "run_scenario",
    "shard_bounds",
    "shard_ensemble",
    "shard_payload",
    "slice_trees",
    "synthetic_trace",
]
