"""Shared pieces of the distributed trainer: cost records, the worker
clock, histogram stores and the plans' split search.

The paper's Section 5.2 methodology — "implement different quadrants in the
same code base" — is realized by one trainer,
:class:`~repro.systems.executor.PlanExecutor`, whose strategies reuse the
same split finding, leaf finalization, gradient bookkeeping, timing and
memory accounting; only the partitioning scheme, storage pattern, index
structure and communication pattern differ between plans.

Timing model
------------
Computation runs for real; each simulated worker's kernel time is measured
with a wall clock, and a phase's parallel elapsed time is the *maximum*
over workers (workers run concurrently in the modelled cluster).
Communication time comes from the byte-accounted
:class:`~repro.cluster.network.SimulatedNetwork`.  Per-tree reports split
time into the paper's two buckets: ``Comp`` and ``Comm`` (Figure 10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TrainConfig
from ..core.histogram import Histogram, HistogramPool
from ..core.loss import Loss
from ..core.split import SplitInfo, accepted_split, find_best_split
from ..core.tree import TreeEnsemble
from ..data.dataset import BinnedDataset
from ..cluster.network import CommStats


@dataclass
class TreeReport:
    """Cost breakdown of training one tree (one bar of Figure 10).

    ``phase_seconds`` splits computation into the Section 3.2.4 phases
    (gradient, histogram, split-find, node-split); per-phase maxima are
    taken over workers independently, so they need not sum exactly to
    ``comp_seconds`` (which is the max of per-worker totals).
    """

    comp_seconds: float = 0.0
    comm_seconds: float = 0.0
    comm_bytes: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.comp_seconds + self.comm_seconds


@dataclass
class MemoryReport:
    """Peak per-worker memory split into the paper's two buckets
    (Figure 10(e)/(f)): dataset storage vs gradient histograms."""

    data_bytes: int = 0
    histogram_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.histogram_bytes


@dataclass
class DistEvalRecord:
    """Validation metric with the simulated time axis of Figure 11."""

    tree_index: int
    metric_name: str
    metric_value: float
    elapsed_seconds: float


@dataclass
class DistTrainResult:
    """Model plus the full cost/quality record of a distributed run.

    ``plan_history`` lists every execution plan the run trained under, in
    order (one entry for a static run); ``migrations`` and ``decisions``
    record the :class:`~repro.systems.migration.MigrationRecord` and
    :class:`~repro.systems.advisor.AdaptDecision` trail of an adaptive
    session (both empty for a static run).
    """

    ensemble: TreeEnsemble
    tree_reports: List[TreeReport] = field(default_factory=list)
    evals: List[DistEvalRecord] = field(default_factory=list)
    memory: MemoryReport = field(default_factory=MemoryReport)
    comm: CommStats = field(default_factory=CommStats)
    plan_history: List[str] = field(default_factory=list)
    migrations: List = field(default_factory=list)
    decisions: List = field(default_factory=list)

    def total_modeled_seconds(self) -> float:
        """Simulated cost of the whole run: trees plus migration bills."""
        return (
            sum(r.total_seconds for r in self.tree_reports)
            + sum(m.seconds for m in self.migrations)
        )

    def _per_tree(self, attr: str) -> List[float]:
        """``attr`` of every tree report (``[0.0]`` before the first)."""
        return [getattr(r, attr) for r in self.tree_reports] or [0.0]

    def mean_tree_seconds(self) -> float:
        return float(np.mean(self._per_tree("total_seconds")))

    def mean_comp_seconds(self) -> float:
        return float(np.mean(self._per_tree("comp_seconds")))

    def mean_comm_seconds(self) -> float:
        return float(np.mean(self._per_tree("comm_seconds")))


#: computation phases of one boosting round (Section 3.2.4 vocabulary,
#: plus the wire-codec encode/decode kernels of the codec layer)
PHASES = ("gradient", "histogram", "split-find", "node-split", "codec")


class WorkerClock:
    """Per-worker computation stopwatch; phase time = max over workers.

    ``speeds`` (from :attr:`ClusterConfig.worker_speeds`) scales measured
    kernel time per worker: a 0.5-speed straggler is charged twice the
    measured seconds, so the max-over-workers phase time reflects it.

    Charges carry a *phase* label so the per-round breakdown (gradient /
    histogram / split-find / node-split) can be reported — the paper's
    Section 3.2.4 argues histogram construction dominates the rest.
    """

    def __init__(self, num_workers: int,
                 speeds: Optional[Sequence[float]] = None) -> None:
        self.seconds = np.zeros(num_workers, dtype=np.float64)
        self.phase_seconds: Dict[str, np.ndarray] = {
            phase: np.zeros(num_workers, dtype=np.float64)
            for phase in PHASES
        }
        if speeds is None:
            self._inv_speeds = np.ones(num_workers, dtype=np.float64)
        else:
            self._inv_speeds = 1.0 / np.asarray(speeds, dtype=np.float64)

    def charge(self, worker: int, seconds: float,
               phase: str = "histogram") -> None:
        scaled = seconds * self._inv_speeds[worker]
        self.seconds[worker] += scaled
        self.phase_seconds[phase][worker] += scaled

    def charge_all(self, seconds: float,
                   phase: str = "histogram") -> None:
        scaled = seconds * self._inv_speeds
        self.seconds += scaled
        self.phase_seconds[phase] += scaled

    def timed(self, worker: Optional[int] = None,
              phase: str = "histogram") -> "_Timed":
        """``with clock.timed(worker, phase):`` wall-clocks the block and
        charges it to ``worker`` (:meth:`charge`), or to every worker
        when ``worker`` is ``None`` (:meth:`charge_all`); a block that
        raises charges nothing.  The context keeps the unscaled
        measurement as ``.seconds``.
        """
        return _Timed(self, worker, phase)

    @property
    def elapsed(self) -> float:
        return float(self.seconds.max()) if self.seconds.size else 0.0

    def phase_breakdown(self) -> Dict[str, float]:
        """Per-phase parallel time (max over workers, per phase)."""
        return {
            phase: float(per_worker.max()) if per_worker.size else 0.0
            for phase, per_worker in self.phase_seconds.items()
        }


class _Timed:
    """One :meth:`WorkerClock.timed` block (slotted: the trainer opens
    thousands per tree, so no generator frame per block)."""

    __slots__ = ("_clock", "_worker", "_phase", "_start", "seconds")

    def __init__(self, clock: WorkerClock, worker: Optional[int],
                 phase: str) -> None:
        self._clock, self._worker, self._phase = clock, worker, phase

    def __enter__(self) -> "_Timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.seconds = time.perf_counter() - self._start
        if exc_type is not None:
            return
        if self._worker is None:
            self._clock.charge_all(self.seconds, self._phase)
        else:
            self._clock.charge(self._worker, self.seconds, self._phase)


def gradient_unit_seconds(loss: Loss, binned: BinnedDataset,
                          scores: np.ndarray) -> float:
    """Measured seconds per instance of one gradient computation."""
    start = time.perf_counter()
    loss.gradients(binned.labels, scores)
    total = time.perf_counter() - start
    return total / max(binned.num_instances, 1)


class HistogramStore:
    """Per-worker histogram cache with live/peak byte tracking.

    Parents are retained for subtraction (Section 3.1.2), so the peak here
    is exactly the paper's per-worker histogram memory.  With a
    :class:`~repro.core.histogram.HistogramPool` attached, retired buffers
    are recycled on ``pop``/``clear`` instead of discarded; pool-parked
    buffers no longer count as live, so the accounting is unchanged.
    """

    def __init__(self, pool: Optional[HistogramPool] = None) -> None:
        self._store: Dict[int, Histogram] = {}
        self._pool = pool
        self.live_bytes = 0
        self.peak_bytes = 0

    def put(self, node: int, hist: Histogram) -> None:
        old = self._store.get(node)
        if old is not None:
            self.live_bytes -= old.nbytes
        self._store[node] = hist
        self.live_bytes += hist.nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def get(self, node: int) -> Histogram:
        return self._store[node]

    def pop(self, node: int) -> Optional[Histogram]:
        """Retire a node's histogram.

        Without a pool the histogram is returned for the caller to use;
        with one it is released for reuse and ``None`` is returned (a
        recycled buffer must not be retained).
        """
        hist = self._store.pop(node, None)
        if hist is not None:
            self.live_bytes -= hist.nbytes
            if self._pool is not None:
                self._pool.release(hist)
                return None
        return hist

    def __contains__(self, node: int) -> bool:
        return node in self._store

    def clear(self) -> None:
        if self._pool is not None:
            for hist in self._store.values():
                self._pool.release(hist)
        self._store.clear()
        self.live_bytes = 0


def decide_split(
    config: TrainConfig,
    hists: Sequence[Histogram],
    stats: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts: Sequence[int],
    bins_per_feature: np.ndarray,
) -> List[Optional[SplitInfo]]:
    """Local best split of each node of a stack (``hists[i]``, with
    totals ``stats[i]`` over ``counts[i]`` instances) under the shared
    acceptance rule (:func:`~repro.core.split.accepted_split`): one
    finder call over the eligible nodes."""
    def search(eligible: List[int]) -> List[Optional[SplitInfo]]:
        return find_best_split(
            [hists[i] for i in eligible],
            [stats[i][0] for i in eligible],
            [stats[i][1] for i in eligible],
            config.reg_lambda, config.reg_gamma, bins_per_feature)

    return accepted_split(config, counts, search)
