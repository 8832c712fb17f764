"""Experiment harness: run a system on a workload, collect the paper's
measurements (per-tree computation/communication time, traffic, memory
breakdown, convergence curves) and aggregate them into figure-ready rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig, TrainConfig
from ..data.dataset import BinnedDataset, Dataset, bin_dataset
from ..systems.plans import ExecutionPlan, get_plan


@dataclass
class ExperimentPoint:
    """One bar/point of a paper figure: a (system, workload) measurement."""

    system: str
    label: str
    comp_seconds: float
    comm_seconds: float
    comp_std: float
    comm_std: float
    comm_bytes_per_tree: float
    data_bytes: int
    histogram_bytes: int
    evals: List = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.comp_seconds + self.comm_seconds


def run_point(
    system_name: "str | ExecutionPlan",
    binned: BinnedDataset,
    config: TrainConfig,
    cluster: ClusterConfig,
    num_trees: Optional[int] = None,
    valid: Optional[Dataset] = None,
    label: str = "",
    faults: Optional[str] = None,
) -> ExperimentPoint:
    """Train and condense the run into one :class:`ExperimentPoint`.

    ``system_name`` is a system/plan registry name (any
    :func:`~repro.systems.plans.get_plan` spelling, including plan keys
    like ``"qd3-pure"``) or an :class:`ExecutionPlan` object — so the
    harness can measure custom strategy compositions that have no
    registry entry.  ``num_trees`` overrides ``config.num_trees`` so
    sweeps can measure a few trees of an otherwise long schedule (the
    paper reports mean and standard deviation of per-tree time).
    ``faults`` overrides ``config.faults`` so a sweep can measure the
    same workload fault-free and under a seeded fault schedule.
    """
    if faults is not None:
        config = replace(config, faults=faults)
    if isinstance(system_name, ExecutionPlan):
        system = system_name.build(config, cluster)
        system_name = system_name.key
    else:
        system = get_plan(system_name).build(config, cluster)
    result = system.fit(binned, valid=valid, num_trees=num_trees)
    reports = result.tree_reports
    return ExperimentPoint(
        system=system_name,
        label=label,
        comp_seconds=float(np.mean([r.comp_seconds for r in reports])),
        comm_seconds=float(np.mean([r.comm_seconds for r in reports])),
        comp_std=float(np.std([r.comp_seconds for r in reports])),
        comm_std=float(np.std([r.comm_seconds for r in reports])),
        comm_bytes_per_tree=(
            float(np.mean([r.comm_bytes for r in reports]))
        ),
        data_bytes=result.memory.data_bytes,
        histogram_bytes=result.memory.histogram_bytes,
        evals=list(result.evals),
    )


def sweep(
    system_name: "str | ExecutionPlan",
    workloads: Dict[str, BinnedDataset],
    config: TrainConfig,
    cluster: ClusterConfig,
    num_trees: int = 3,
) -> List[ExperimentPoint]:
    """One point per labelled workload, e.g. ``{"N=5M": binned, ...}``."""
    return [
        run_point(system_name, binned, config, cluster,
                  num_trees=num_trees, label=label)
        for label, binned in workloads.items()
    ]


class BinnedCache:
    """Memoized exact binning keyed by dataset identity, so sweeps that
    reuse a dataset across systems only pay quantization once.

    The cache pins a strong reference to each key dataset: ``id()`` keys
    are only unique among *live* objects, so letting a key be collected
    would allow a later dataset to reuse its id and silently receive the
    wrong binned data.
    """

    def __init__(self) -> None:
        self._cache: Dict[tuple, Tuple[Dataset, BinnedDataset]] = {}

    def get(self, dataset: Dataset, num_bins: int) -> BinnedDataset:
        key = (id(dataset), num_bins)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is dataset:
            return hit[1]
        binned = bin_dataset(dataset, num_bins)
        self._cache[key] = (dataset, binned)
        return binned
