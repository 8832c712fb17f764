"""Data partitioning: horizontal row sharding and vertical column grouping.

Horizontal partitioning slices the instance axis into ``W`` contiguous row
ranges; vertical partitioning assigns each feature to one of ``W`` column
groups.  Column grouping uses the paper's greedy load balancer
(Section 4.2.3): features are assigned, heaviest first, to the group with
the fewest key-value pairs so far — the classic LPT heuristic for the
NP-hard balanced-assignment problem.  Round-robin and hash strategies are
provided for the ablation bench.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from ..data.dataset import BinnedDataset


def horizontal_row_ranges(num_instances: int,
                          num_workers: int) -> List[np.ndarray]:
    """Contiguous, near-equal row id ranges, one per worker."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    bounds = np.linspace(0, num_instances, num_workers + 1).astype(np.int64)
    return [
        np.arange(bounds[w], bounds[w + 1], dtype=np.int64)
        for w in range(num_workers)
    ]


def horizontal_shards(
    binned: BinnedDataset, num_workers: int
) -> Tuple[List[BinnedDataset], List[np.ndarray]]:
    """Row shards plus each shard's global row ids."""
    ranges = horizontal_row_ranges(binned.num_instances, num_workers)
    shards = [
        binned.select_instances(rows, name=f"{binned.name}-w{w}")
        for w, rows in enumerate(ranges)
    ]
    return shards, ranges


def greedy_column_groups(
    pairs_per_feature: np.ndarray, num_workers: int
) -> List[np.ndarray]:
    """Greedy balanced feature assignment (Section 4.2.3).

    ``pairs_per_feature[f]`` is the number of key-value pairs of feature
    ``f`` (its occurrence count from the global quantile sketches).
    Features are taken heaviest-first and placed on the currently lightest
    group.  Returns one sorted global-feature-id array per worker.
    """
    pairs_per_feature = np.asarray(pairs_per_feature, dtype=np.int64)
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    order = np.argsort(-pairs_per_feature, kind="stable")
    heap: List[Tuple[int, int]] = [(0, w) for w in range(num_workers)]
    heapq.heapify(heap)
    groups: List[List[int]] = [[] for _ in range(num_workers)]
    for fid in order:
        load, worker = heapq.heappop(heap)
        groups[worker].append(int(fid))
        heapq.heappush(heap, (load + int(pairs_per_feature[fid]), worker))
    return [np.array(sorted(g), dtype=np.int64) for g in groups]


def round_robin_column_groups(
    num_features: int, num_workers: int
) -> List[np.ndarray]:
    """Feature ``f`` goes to worker ``f % W`` (ablation baseline)."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    return [
        np.arange(w, num_features, num_workers, dtype=np.int64)
        for w in range(num_workers)
    ]


def hash_column_groups(
    num_features: int, num_workers: int, seed: int = 0
) -> List[np.ndarray]:
    """Pseudo-random feature assignment (ablation baseline)."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_workers, size=num_features)
    return [
        np.flatnonzero(assignment == w).astype(np.int64)
        for w in range(num_workers)
    ]


def group_imbalance(
    groups: List[np.ndarray], pairs_per_feature: np.ndarray
) -> float:
    """Max group load over mean group load (1.0 = perfectly balanced)."""
    loads = np.array(
        [pairs_per_feature[g].sum() for g in groups], dtype=np.float64
    )
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def column_groups(
    binned: BinnedDataset,
    num_workers: int,
    strategy: str = "greedy",
    seed: int = 0,
) -> List[np.ndarray]:
    """Each worker's sorted global feature ids under ``strategy``.

    The one grouping decision of vertical partitioning: the
    transformation prices its repartition on these groups and
    :func:`vertical_shards` cuts the training shards along them.
    """
    if strategy == "greedy":
        pairs = np.bincount(binned.binned.indices,
                            minlength=binned.num_features)
        return greedy_column_groups(pairs, num_workers)
    if strategy == "round-robin":
        return round_robin_column_groups(binned.num_features, num_workers)
    if strategy == "hash":
        return hash_column_groups(binned.num_features, num_workers, seed)
    raise ValueError(f"unknown grouping strategy: {strategy!r}")


def vertical_shards(
    binned: BinnedDataset,
    num_workers: int,
    strategy: str = "greedy",
    seed: int = 0,
) -> Tuple[List[BinnedDataset], List[np.ndarray]]:
    """Column-group shards plus each shard's global feature ids.

    Every shard keeps all ``N`` instances (labels were broadcast in step 5
    of the transformation) with its group's features renumbered from 0.
    """
    groups = column_groups(binned, num_workers, strategy, seed)
    shards = [
        binned.select_features(group, name=f"{binned.name}-g{w}")
        for w, group in enumerate(groups)
    ]
    return shards, groups
