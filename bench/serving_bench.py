"""Serving-stack benchmark: compiled predictor, batching, hot-swap.

Four sections, written to ``BENCH_serving.json``:

* ``speedup`` — best-of-3 throughput of the naive per-tree loop
  (``TreeEnsemble.raw_scores``) vs the compiled level-synchronous
  predictor on a 10k-row batch of a trained paper-default model
  (``num_layers = 8``);
* ``latency`` — p50/p95/p99 and throughput of a Poisson trace replayed
  through the micro-batcher over a replica set, per load balancer
  (service time is the measured wall-clock of the compiled predictor —
  computation real, coordination simulated);
* ``hot_swap`` — a mid-traffic deploy of a second model version:
  versions served and the ``deploy:model`` bytes;
* ``sharded`` — the replicate-vs-shard grid: shard counts ``S in
  {1, 2, 4, 8}`` x batch size x model shape over a fixed 8-worker
  fleet, with the measured deploy-byte crossover (the smallest ``S >= 2``
  whose rollout ships fewer deploy bytes than replication — per-worker
  model bytes scale ``~1/S`` while the reduction adds ``S - 1`` latency
  rounds per batch) and the layout the cost model recommends.

Usage::

    PYTHONPATH=src python bench/serving_bench.py            # full workload
    PYTHONPATH=src python bench/serving_bench.py --quick    # CI-sized
    PYTHONPATH=src python bench/serving_bench.py --check    # enforce gate

Gate: compiled >= 5x naive at batch 10k (a live-vs-live ratio; needs
bench scale).  Every exact property this script once re-checked —
compiled and sharded bit-identity, single-version batches, deploy and
``serve:partial`` byte closed forms, the S=2 crossover, ``~1/S`` shard
sizes — is tier-1's (``tests/serve/test_compiler.py``,
``test_replica.py``, ``test_sharded.py``).
"""

from __future__ import annotations

import numpy as np

from _harness import Bench, time_ops
from repro.config import ClusterConfig, NetworkModel, TrainConfig
from repro.data.synthetic import make_classification
from repro.serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                         ReplicaSet, publish_trained, synthetic_trace)
from repro.systems.costmodel import (price_serving_layouts,
                                     recommend_serving_layout)

BATCH_SIZE = 10_000
SPEEDUP_TARGET = 5.0
NUM_FEATURES = 100


def train_models(quick: bool) -> ModelRegistry:
    """The served model and its hot-swap successor (paper-default
    depth: ``num_layers = 8``), published to a fresh registry."""
    dataset = make_classification(8_000 if quick else 20_000,
                                  NUM_FEATURES, density=0.2, seed=5)
    cfg = TrainConfig(num_trees=10 if quick else 50, num_layers=8,
                      learning_rate=0.3)
    registry = ModelRegistry()
    publish_trained(registry, dataset, cfg, "bench v1", successor="bench v2")
    return registry


def bench_speedup(registry, quick: bool) -> dict:
    entry = registry.get(1)
    primary, compiled = entry.ensemble, entry.compiled
    trace = synthetic_trace(BATCH_SIZE, NUM_FEATURES, rate_rps=1e5,
                            seed=1)
    csc = trace.csc()
    # a ratio between two predictors only means something if they agree
    assert np.array_equal(primary.raw_scores(csc),
                          compiled.raw_scores(trace.features)), \
        "compiled predictor diverged from TreeEnsemble"
    min_s = 0.25 if quick else 0.75
    naive_ops = time_ops(lambda: primary.raw_scores(csc), min_s)
    compiled_ops = time_ops(
        lambda: compiled.raw_scores(trace.features), min_s
    )
    speedup = compiled_ops / naive_ops
    print(f"  {'raw_scores_10k':24s} {naive_ops:8.2f} -> "
          f"{compiled_ops:8.2f} batches/s ({speedup:5.2f}x)")
    return {
        "batch_size": BATCH_SIZE,
        "num_trees": compiled.num_trees,
        "num_layers": 8,
        "naive_ops": round(naive_ops, 3),
        "compiled_ops": round(compiled_ops, 3),
        "speedup": round(speedup, 3),
    }


def bench_latency(registry, quick: bool) -> dict:
    requests = 1_000 if quick else 5_000
    results = {}
    for balancer in ("round-robin", "least-loaded"):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              balancer=balancer)
        replicas.deploy()
        trace = synthetic_trace(requests, NUM_FEATURES,
                                rate_rps=20_000.0, seed=2)
        report = MicroBatcher(
            replicas, BatchPolicy(max_batch_size=128, max_delay_s=0.002)
        ).run(trace)
        stats = report.latency_stats()
        results[balancer] = stats.to_dict()
        results[balancer]["batches"] = report.batch_size.size
        print(f"  {balancer:24s} p50={stats.p50_s * 1e3:6.2f}ms "
              f"p95={stats.p95_s * 1e3:6.2f}ms "
              f"p99={stats.p99_s * 1e3:6.2f}ms "
              f"throughput={stats.throughput_rps:8.0f}rps")
    return results


def bench_hot_swap(registry, quick: bool) -> dict:
    requests = 1_000 if quick else 5_000
    replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                          balancer="least-loaded")
    replicas.deploy(1)
    trace = synthetic_trace(requests, NUM_FEATURES, rate_rps=20_000.0,
                            seed=3)
    swap_at = float(trace.arrivals[requests // 2])
    report = MicroBatcher(
        replicas, BatchPolicy(max_batch_size=128, max_delay_s=0.002)
    ).run(trace, swaps=[(swap_at, replicas.deployer(2))])
    entry = {
        "swap_at_s": round(swap_at, 6),
        "versions_served": report.versions_served(),
        "requests_v1": int((report.request_version == 1).sum()),
        "requests_v2": int((report.request_version == 2).sum()),
        "deploy_bytes": replicas.deploy_bytes,
    }
    print(f"  hot-swap at t={swap_at * 1e3:.1f}ms: versions "
          f"{entry['versions_served']} "
          f"(v1={entry['requests_v1']}, v2={entry['requests_v2']}), "
          f"deploy bytes={entry['deploy_bytes']}")
    return entry


def bench_sharded(registry, quick: bool) -> dict:
    """The replicate-vs-shard grid over a fixed 8-worker fleet.

    Model shapes come free from the registry: v1 is the full bench
    model, v2 its half-size hot-swap retrain — same depth, half the
    trees.  Per (shape, batch) the summary records the deploy-byte
    crossover and the layout the cost model recommends.
    """
    workers = 8
    shard_counts = (1, 2, 4, 8)
    batch_sizes = (64, 256) if quick else (64, 256, 1024)
    network = NetworkModel()
    cells = []
    crossovers = []
    for version in (1, 2):
        entry = registry.get(version)
        compiled = entry.compiled
        for batch in batch_sizes:
            trace = synthetic_trace(batch, NUM_FEATURES,
                                    rate_rps=1e5, seed=7 + version)
            deploy_by_s = {}
            for num_shards in shard_counts:
                replicas = ReplicaSet(
                    registry, ClusterConfig(num_workers=workers),
                    num_shards=num_shards)
                replicas.deploy(version)
                result = replicas.dispatch(trace.features, close_s=0.0)
                deploy_by_s[num_shards] = replicas.deploy_bytes
                cells.append({
                    "model_version": version,
                    "num_trees": compiled.num_trees,
                    "batch": batch,
                    "num_shards": num_shards,
                    "rows": replicas.num_rows,
                    "model_bytes_per_worker":
                        replicas.model_bytes_per_worker(),
                    "model_bytes_full": entry.nbytes,
                    "deploy_bytes": replicas.deploy_bytes,
                    "partial_bytes_per_batch": replicas.partial_bytes,
                    "reduction_rounds": max(num_shards - 1, 0),
                    "batch_latency_s": round(
                        result.completion_s - result.start_s, 6),
                })
            crossover = next(
                (s for s in shard_counts[1:]
                 if deploy_by_s[s] <= deploy_by_s[1]), None)
            layouts = price_serving_layouts(
                entry.nbytes,
                {s: [m.nbytes for m in registry.shards(version, s)]
                 for s in shard_counts},
                workers, batch, compiled.gradient_dim,
                network.bytes_per_second, network.latency_s)
            pick = recommend_serving_layout(layouts)
            crossovers.append({
                "model_version": version,
                "num_trees": compiled.num_trees,
                "batch": batch,
                "deploy_bytes_by_shards": deploy_by_s,
                "deploy_crossover_shards": crossover,
                "recommended_shards": pick["num_shards"],
            })
            print(f"  v{version} ({compiled.num_trees} trees) "
                  f"batch={batch:5d}: deploy bytes "
                  + " ".join(f"S={s}:{deploy_by_s[s]}"
                             for s in shard_counts)
                  + f" -> crossover S={crossover}, "
                    f"cost model picks S={pick['num_shards']}")
    return {
        "workers": workers,
        "shard_counts": list(shard_counts),
        "batch_sizes": list(batch_sizes),
        "cells": cells,
        "crossover": crossovers,
    }


def main() -> int:
    bench = Bench("serving", __doc__)
    registry = train_models(bench.quick)
    speedup = bench_speedup(registry, bench.quick)
    bench.gate(speedup["speedup"] >= SPEEDUP_TARGET,
               f"speedup {speedup['speedup']}x < {SPEEDUP_TARGET}x")
    return bench.finish({
        "targets": {"speedup_min": SPEEDUP_TARGET},
        "speedup": speedup,
        "latency": bench_latency(registry, bench.quick),
        "hot_swap": bench_hot_swap(registry, bench.quick),
        "sharded": bench_sharded(registry, bench.quick),
    })


if __name__ == "__main__":
    raise SystemExit(main())
