"""Closed-form cost model of Section 3.

These formulas are the paper's analytical claims; the test suite checks
the simulator against them, and ``tests/systems/test_costmodel.py``
reproduces the worked example of Section 3.1.4 (the industrial *Age*
dataset) exactly.  The Section 3.2.4 compute cost is one formula,
:func:`repro.systems.advisor.plan_accesses`, which prices every plan from
its axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..cluster.codecs import sparse_entry_bytes
from ..core.histogram import histogram_size_bytes


@dataclass(frozen=True)
class WorkloadShape:
    """The quantities the Section 3 analysis is parameterized by."""

    num_instances: int            # N
    num_features: int             # D
    num_workers: int              # W
    num_layers: int               # L
    num_candidates: int           # q
    num_classes: int = 1          # C (1 for binary per Section 3)

    def __post_init__(self) -> None:
        if min(self.num_instances, self.num_features, self.num_workers,
               self.num_layers, self.num_candidates,
               self.num_classes) < 1:
            raise ValueError("all shape parameters must be >= 1")


def workload_of(binned, config, cluster) -> Tuple[WorkloadShape, float]:
    """The shape of training ``binned`` under ``config`` on ``cluster``,
    with its mean stored entries per instance (the ``d`` the density and
    access-count formulas take) — the advisor's two workload inputs."""
    shape = WorkloadShape(
        num_instances=binned.num_instances,
        num_features=binned.num_features,
        num_workers=cluster.num_workers,
        num_layers=config.num_layers,
        num_candidates=config.num_candidates,
        num_classes=config.gradient_dim,
    )
    return shape, binned.binned.nnz / max(binned.num_instances, 1)


def sizehist_bytes(shape: WorkloadShape) -> int:
    """``Sizehist = 2 * D * q * C * 8`` bytes (Section 3.1.1)."""
    return histogram_size_bytes(shape.num_features, shape.num_candidates,
                                shape.num_classes)


def horizontal_histogram_memory_bytes(shape: WorkloadShape) -> int:
    """Per-worker histogram memory, horizontal: ``Sizehist * 2^(L-2)``."""
    return sizehist_bytes(shape) * 2 ** (shape.num_layers - 2)


def vertical_histogram_memory_bytes(shape: WorkloadShape) -> float:
    """Per-worker histogram memory, vertical: horizontal / W (expected)."""
    return horizontal_histogram_memory_bytes(shape) / shape.num_workers


def horizontal_comm_bytes_per_tree(shape: WorkloadShape) -> int:
    """Total aggregation traffic for one tree, horizontal partitioning:
    ``Sizehist * W * (2^(L-1) - 1)`` (Section 3.1.3)."""
    return (
        sizehist_bytes(shape) * shape.num_workers
        * (2 ** (shape.num_layers - 1) - 1)
    )


def vertical_comm_bytes_per_tree(shape: WorkloadShape) -> int:
    """Total placement traffic for one tree, vertical partitioning:
    ``ceil(N / 8) * W * L`` (Section 3.1.3)."""
    bitmap = (shape.num_instances + 7) // 8
    return bitmap * shape.num_workers * shape.num_layers


def expected_hist_density(shape: WorkloadShape,
                          avg_nnz_per_instance: float,
                          layer: int = 0) -> float:
    """Expected occupied-slot fraction of a layer-``layer`` node histogram.

    A node at layer ``l`` holds about ``N / 2^l`` instances contributing
    ``N d / (D 2^l)`` stored entries per feature, which can occupy at
    most that many (and at most ``q``) of the feature's ``q`` bins — so
    the density is at most ``min(1, N d / (D q 2^l))``.  Sparse datasets
    (RCV1-like: ``d << D``) sit far below 1 even at the root, and the
    density halves with each layer — the Vasiloudis et al. observation
    that makes sparse histogram encoding pay.
    """
    if avg_nnz_per_instance <= 0:
        raise ValueError("avg_nnz_per_instance must be > 0")
    if layer < 0:
        raise ValueError(f"layer must be >= 0, got {layer}")
    entries_per_feature = (
        shape.num_instances * avg_nnz_per_instance
        / (shape.num_features * 2 ** layer)
    )
    return min(1.0, entries_per_feature / shape.num_candidates)


def codec_byte_factor(density: float, gradient_dim: int,
                      codec: str) -> float:
    """Fraction of dense histogram bytes a codec puts on the wire.

    ``sparse`` ships ``4 + 16 C`` bytes per occupied slot against
    ``16 C`` dense, capped at 1.0 by the codec's dense fallback;
    ``f32``/``f16`` quantize every slot to 4/2 bytes; ``none`` and
    ``delta`` ship histograms dense (``delta`` compresses only integer
    payloads).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if codec in ("none", "delta"):
        return 1.0
    if codec == "f32":
        return 0.5
    if codec == "f16":
        return 0.25
    if codec == "sparse":
        dense_slot = 2 * 8 * gradient_dim
        return min(1.0, density * sparse_entry_bytes(gradient_dim)
                   / dense_slot)
    raise ValueError(f"unknown codec for byte projection: {codec!r}")


def encoded_sizehist_bytes(shape: WorkloadShape, density: float,
                           codec: str) -> float:
    """``Sizehist`` after encoding at the given occupied-slot density."""
    return sizehist_bytes(shape) * codec_byte_factor(
        density, shape.num_classes, codec)


def horizontal_comm_bytes_per_tree_encoded(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    codec: str,
) -> float:
    """Aggregation traffic of one tree with encoded histogram payloads.

    The dense formula charges ``Sizehist * W`` for each of the
    ``2^(L-1) - 1`` nodes; here each layer's nodes are scaled by the
    codec's byte factor at that layer's expected density (density halves
    per layer, so deep layers compress progressively better).
    """
    total = 0.0
    for layer in range(shape.num_layers - 1):
        density = expected_hist_density(shape, avg_nnz_per_instance,
                                        layer)
        total += (
            2 ** layer * shape.num_workers
            * encoded_sizehist_bytes(shape, density, codec)
        )
    return total


def checkpoint_state_bytes(shape: WorkloadShape, vertical: bool) -> int:
    """Placement state one crash recovery must restore (DESIGN.md §9).

    The tree checkpoint carries a 4-byte node id per tracked row.  A
    horizontal worker tracks only its ``N / W`` shard rows; a vertical
    worker's (shared) index covers all ``N`` rows.
    """
    if vertical:
        return 4 * shape.num_instances
    return 4 * ((shape.num_instances + shape.num_workers - 1)
                // shape.num_workers)


def recovery_restore_bytes(shape: WorkloadShape,
                           avg_nnz_per_instance: float,
                           vertical: bool) -> float:
    """Expected wire bytes to restore state after one worker crash.

    Horizontal partitioning reshards: the crashed worker's binned rows
    (8 bytes per stored entry, the row-store convention) plus its
    checkpointed placement state are re-shipped.  Vertical partitioning
    rolls back: the restarted owner reloads its irreplaceable column
    shard from local storage, so only the checkpoint state crosses the
    wire.
    """
    state = checkpoint_state_bytes(shape, vertical)
    if vertical:
        return float(state)
    shard_entries = (shape.num_instances * avg_nnz_per_instance
                     / shape.num_workers)
    return 8.0 * shard_entries + state


def migration_wire_bytes(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    source_partition: str,
    target_partition: str,
) -> float:
    """Projected wire bytes of one plan migration (DESIGN.md §13).

    Mirrors the :class:`~repro.systems.migration.PlanMigrator` charges:
    the checkpointed placement state always ships; changing the
    partition axis reshards the stored entries at the reshard machinery's
    ``(W-1)/W`` wire fraction (every worker for a replicated target);
    leaving horizontal partitioning broadcasts the labels.  A
    storage-only migration ships only the checkpoint.
    """
    total = float(checkpoint_state_bytes(
        shape, vertical=source_partition != "horizontal"))
    if source_partition != target_partition:
        entries = shape.num_instances * avg_nnz_per_instance
        copies = (
            float(shape.num_workers - 1)
            if target_partition == "replicated"
            else (shape.num_workers - 1) / shape.num_workers
        )
        total += 8.0 * entries * copies
    if source_partition == "horizontal" and target_partition != "horizontal":
        total += 4.0 * shape.num_instances * (shape.num_workers - 1)
    return total


def migration_seconds(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    source_partition: str,
    target_partition: str,
    bytes_per_second: float,
    latency_s: float = 0.0,
) -> float:
    """Projected migration bill: wire time plus per-worker latencies
    (one checkpoint transfer, one reshard stream per worker, one
    decision broadcast)."""
    wire = migration_wire_bytes(shape, avg_nnz_per_instance,
                                source_partition, target_partition)
    transfers = 2 + (shape.num_workers
                     if source_partition != target_partition else 0)
    return wire / bytes_per_second + transfers * latency_s


def sharded_serving_deploy_bytes(shard_nbytes, num_rows: int) -> int:
    """Rollout wire bytes of a sharded fleet: each of the ``R`` replica
    rows receives every shard's payload once (shard ``j`` to its group's
    member in that row) — ``R * sum_j shard_j``.  A replicated fleet of
    the same ``W = R * S`` workers ships ``R * S *`` the full payload, so
    sharding wins on deploy bytes whenever
    ``sum_j shard_j < S * full`` — i.e. for every ``S >= 2`` (the shard
    payloads repeat only the few metadata keys)."""
    return int(num_rows) * int(sum(shard_nbytes))


def replicated_serving_deploy_bytes(model_nbytes: int,
                                    num_workers: int) -> int:
    """Rollout wire bytes of a replicated fleet: the full canonical
    payload to every worker."""
    return int(model_nbytes) * int(num_workers)


def score_reduction_bytes_per_batch(batch_rows: int, gradient_dim: int,
                                    num_shards: int) -> int:
    """Wire bytes one batch's score reduction puts on the ledger.

    The sharded dispatch charges the ring reduce-scatter decomposition:
    the ``serve:partial`` carry is ``(S-1)/S * payload`` per worker over
    the float64 score vector (``batch * C * 8`` bytes).  This is the
    exact number the ledger records (``S = 1`` charges nothing).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return 0
    payload = batch_rows * gradient_dim * 8
    per_worker = (num_shards - 1) / num_shards * payload
    return int(per_worker * num_shards)


def score_reduction_rounds(num_shards: int) -> int:
    """Latency rounds the score reduction adds to every batch: ``S - 1``
    sequential carry hops — the bounded latency cost sharding pays per
    batch."""
    return max(num_shards - 1, 0)


def score_reduction_seconds_per_batch(
    batch_rows: int,
    gradient_dim: int,
    num_shards: int,
    bytes_per_second: float,
    latency_s: float,
) -> float:
    """Simulated seconds the reduction adds to one batch: per-worker
    wire time plus one latency per round (the
    :class:`~repro.cluster.comm.Collective` timing model)."""
    if num_shards <= 1:
        return 0.0
    payload = batch_rows * gradient_dim * 8
    per_worker = (num_shards - 1) / num_shards * payload
    return (per_worker / bytes_per_second
            + score_reduction_rounds(num_shards) * latency_s)


def price_serving_layouts(
    model_nbytes: int,
    shard_nbytes_by_s,
    num_workers: int,
    batch_rows: int,
    gradient_dim: int,
    bytes_per_second: float,
    latency_s: float,
):
    """Replicate-vs-shard price list for one model and fleet.

    ``shard_nbytes_by_s`` maps each candidate shard count to its
    per-shard canonical payload sizes (``S = 1`` is the replicated
    layout).  Returns one dict per candidate with the three axes the
    decision trades off: model bytes per worker, rollout deploy bytes,
    and the per-batch reduction bytes/rounds/seconds.
    """
    layouts = []
    for num_shards in sorted(shard_nbytes_by_s):
        shard_nbytes = shard_nbytes_by_s[num_shards]
        if num_workers % num_shards != 0:
            raise ValueError(
                f"fleet of {num_workers} cannot hold {num_shards} "
                "shard groups evenly"
            )
        if len(shard_nbytes) != num_shards:
            raise ValueError(
                f"need {num_shards} shard sizes, got {len(shard_nbytes)}"
            )
        rows = num_workers // num_shards
        layouts.append({
            "num_shards": num_shards,
            "rows": rows,
            "model_bytes_per_worker": int(max(shard_nbytes)),
            "deploy_bytes": (
                replicated_serving_deploy_bytes(model_nbytes, num_workers)
                if num_shards == 1
                else sharded_serving_deploy_bytes(shard_nbytes, rows)),
            "reduction_bytes_per_batch": score_reduction_bytes_per_batch(
                batch_rows, gradient_dim, num_shards),
            "reduction_rounds": score_reduction_rounds(num_shards),
            "reduction_seconds_per_batch":
                score_reduction_seconds_per_batch(
                    batch_rows, gradient_dim, num_shards,
                    bytes_per_second, latency_s),
        })
    return layouts


def recommend_serving_layout(layouts,
                             max_reduction_seconds: float = 0.002):
    """Pick a layout from :func:`price_serving_layouts` output.

    Among candidates whose per-batch reduction latency stays within
    ``max_reduction_seconds``, choose the smallest model-bytes-per-worker
    footprint; ties break to fewer shards (less coordination).  The
    replicated layout (``S = 1``) pays no reduction, so the fall-back is
    always eligible.
    """
    eligible = [entry for entry in layouts
                if entry["reduction_seconds_per_batch"]
                <= max_reduction_seconds]
    if not eligible:
        eligible = [entry for entry in layouts
                    if entry["num_shards"] == 1] or layouts
    return min(eligible, key=lambda entry: (
        entry["model_bytes_per_worker"], entry["num_shards"]))


def expected_recovery_seconds_per_tree(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    bytes_per_second: float,
    crash_rate: float,
    vertical: bool,
) -> float:
    """Expected per-tree recovery cost under ``crash_rate`` crashes/tree.

    A crash at a uniformly random layer boundary wastes half the
    interrupted tree's aggregation traffic (the rolled-back attempt is
    replayed), on top of the policy's restore transfer — the term the
    advisor adds to each plan's per-tree price.
    """
    if crash_rate < 0:
        raise ValueError(f"crash_rate must be >= 0, got {crash_rate}")
    if crash_rate == 0:
        return 0.0
    restore = recovery_restore_bytes(shape, avg_nnz_per_instance,
                                     vertical)
    tree_bytes = (vertical_comm_bytes_per_tree(shape) if vertical
                  else horizontal_comm_bytes_per_tree(shape))
    replayed = 0.5 * tree_bytes / shape.num_workers
    return crash_rate * (restore + replayed) / bytes_per_second
