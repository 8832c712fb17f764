"""Data-management advisor — the paper's stated future work.

Section 6 closes with an open problem: *"How to determine an optimal
dataset management strategy given the size of dataset (e.g., number of
instances, feature dimensionality and number of classes) along with the
application environment (e.g., network bandwidth, number of machines,
number of cores) is remained unsolved."*

This module implements that decision procedure on top of the Section 3
cost model.  :func:`price_plans` is its one price list: a
:class:`PlanCost` per registry plan for one tree — computation from the
access-count complexities of Section 3.2.4 against a calibratable scan
rate, communication from the byte formulas of Section 3.1.3 against the
network model, plus histogram memory and expected recovery.
:func:`recommend` ranks the four quadrant plans' records and
:class:`AdaptivePolicy` re-prices every plan mid-run, so the choice is
auditable either way.  The test suite validates the advisor's ranking
against the simulator on representative regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cluster.codecs import get_codec_stack
from ..config import NetworkModel
from ..core.kernels import compute_factor
from .costmodel import (WorkloadShape, expected_recovery_seconds_per_tree,
                        horizontal_comm_bytes_per_tree,
                        horizontal_comm_bytes_per_tree_encoded,
                        horizontal_histogram_memory_bytes,
                        migration_seconds, vertical_comm_bytes_per_tree,
                        vertical_histogram_memory_bytes)
from .plans import PLANS, ExecutionPlan, get_plan

#: key-value pair accesses per second of one worker core; the default is
#: calibratable via :func:`calibrate_constants`
DEFAULT_SCAN_RATE = 5e7

_DESCRIPTIONS = {
    "QD1": "horizontal + column-store (XGBoost style)",
    "QD2": "horizontal + row-store (LightGBM/DimBoost style)",
    "QD3": "vertical + column-store (Yggdrasil style)",
    "QD4": "vertical + row-store (Vero)",
}

#: quadrant label -> canonical plan registry key
PLAN_OF_QUADRANT = {
    "QD1": "qd1",
    "QD2": "qd2",
    "QD3": "qd3",
    "QD4": "vero",
}


@dataclass(frozen=True)
class PlanCost:
    """Per-tree cost of one registry plan — the advisor's price record.

    :func:`price_plans` returns one per plan; :func:`recommend` ranks
    the four quadrant plans' and :class:`AdaptivePolicy` all of them.
    """

    plan_key: str
    comp_seconds: float
    comm_seconds: float
    histogram_memory_bytes: float
    #: expected crash-recovery cost per tree (0 on a fault-free cluster)
    recovery_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.comp_seconds + self.comm_seconds \
            + self.recovery_seconds

    @property
    def plan(self) -> ExecutionPlan:
        """The priced, ready-to-build execution plan."""
        return get_plan(self.plan_key)

    @property
    def quadrant(self) -> str:
        return self.plan.quadrant

    @property
    def description(self) -> str:
        return _DESCRIPTIONS.get(self.quadrant, self.plan.description)


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict: ranked quadrants plus the reasoning.

    The verdict is directly executable:
    ``recommendation.plan.build(config, cluster).fit(binned)`` trains
    with the recommended strategy composition.
    """

    best: PlanCost
    ranking: List[PlanCost]
    reasons: List[str]
    #: projected histogram-aggregation byte reduction per codec name
    #: (dense bytes / encoded bytes; > 1 means the codec saves wire)
    codec_projections: Dict[str, float] = field(default_factory=dict)

    @property
    def plan_key(self) -> str:
        """Registry key of the recommended plan (``repro train --plan``)."""
        return self.best.plan_key

    @property
    def plan(self) -> ExecutionPlan:
        """The recommended, ready-to-build execution plan."""
        return self.best.plan


# ---------------------------------------------------------------------------
# The price list (Section 3)
# ---------------------------------------------------------------------------

def plan_accesses(shape: WorkloadShape, avg_nnz_per_instance: float,
                  plan: ExecutionPlan) -> float:
    """Per-worker stored-entry accesses per tree of ``plan``'s kernels
    (Section 3.2.4), including histogram-subtraction savings — the one
    compute-cost formula every decider prices with.

    Derived from the axes, not the registry key, so derived/custom plans
    price correctly: a level-wise instance-to-node pass scans every
    entry at every layer; every other index plan builds with
    subtraction, and over a column store additionally pays the
    search/filter overhead of locating a node's rows in each column.
    Row-major node-to-instance scans cost the same per worker however
    the data is partitioned.
    """
    layers = shape.num_layers - 1
    nnz = shape.num_instances * avg_nnz_per_instance
    if plan.index == "instance-to-node":
        return layers * nnz / shape.num_workers
    # with subtraction, layers below the root scan about half the data
    subtracted = nnz + (layers - 1) * nnz / 2 if layers > 1 else nnz
    if plan.storage == "column":
        per_column = max(nnz / max(shape.num_features, 1), 2.0)
        return subtracted * math.log2(per_column) / shape.num_workers
    return subtracted / shape.num_workers


def plan_comm_seconds(
    shape: WorkloadShape,
    plan: ExecutionPlan,
    network: NetworkModel,
    avg_nnz_per_instance: float,
    codec: str = "none",
) -> float:
    """Predicted per-tree communication seconds of one plan.

    Horizontal aggregations pay the Section 3.1.3 histogram traffic
    (codec-priced when one is set; ``codec`` is any ``--codec`` name,
    ``""`` meaning none); bitmap-broadcast plans pay the placement
    bitmaps; a ``local`` aggregation (feature-parallel) pays only the
    split-info election."""
    layers = shape.num_layers - 1
    bps = network.bytes_per_second
    if plan.aggregation in ("all-reduce", "reduce-scatter",
                            "parameter-server"):
        stack = get_codec_stack(codec)
        if stack.is_identity:
            nbytes = horizontal_comm_bytes_per_tree(shape)
        else:
            nbytes = horizontal_comm_bytes_per_tree_encoded(
                shape, avg_nnz_per_instance, stack.name)
        return (nbytes / shape.num_workers / bps
                + layers * 2 * shape.num_workers * network.latency_s)
    if plan.aggregation == "local":
        return layers * 2 * network.latency_s
    nbytes = vertical_comm_bytes_per_tree(shape)
    return (nbytes / shape.num_workers / bps
            + layers * 2 * network.latency_s)


@dataclass(frozen=True)
class CalibratedConstants:
    """Cost-model constants fitted to an observed ledger.

    ``scan_rate`` replaces :data:`DEFAULT_SCAN_RATE` (entry accesses per
    second actually achieved); ``comm_scale`` multiplies the predicted
    communication seconds (observed / predicted — >1 means the wire ran
    slower than the model, e.g. retries or contention).  By construction
    the current plan's recalibrated per-tree cost reproduces the
    observed ledger means exactly.
    """

    scan_rate: float
    comm_scale: float
    trees_observed: int
    prior_scan_rate: float = DEFAULT_SCAN_RATE


def backend_constants(scan_rate: float,
                      backend: str = "") -> CalibratedConstants:
    """Prior constants for a kernel backend: ``scan_rate`` scaled by the
    backend's relative histogram throughput (numpy 1.0, numba the
    bench-pinned speedup), the wire at the network model's own speed."""
    return CalibratedConstants(
        scan_rate=scan_rate * compute_factor(backend), comm_scale=1.0,
        trees_observed=0, prior_scan_rate=scan_rate,
    )


def price_plans(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    network: NetworkModel,
    constants: Optional[CalibratedConstants] = None,
    codec: str = "none",
    crash_rate: float = 0.0,
) -> Dict[str, PlanCost]:
    """Per-tree cost of every registry plan under the given constants
    (the prior cost model when ``constants`` is ``None``).

    ``codec`` prices horizontal aggregation traffic with the
    encoded-byte formula at the workload's expected histogram density
    (the vertical plans' bitmap traffic is already minimal).
    ``crash_rate`` (expected worker crashes per tree) adds each plan's
    expected recovery cost: horizontal plans pay a reshard of the crashed
    worker's rows, every other plan a rollback of shared placement
    state, both plus half a tree of replayed traffic (DESIGN.md §9).
    Histogram memory follows the same partition rule.
    """
    scan_rate = constants.scan_rate if constants else DEFAULT_SCAN_RATE
    comm_scale = constants.comm_scale if constants else 1.0
    out: Dict[str, PlanCost] = {}
    for key, plan in PLANS.items():
        vertical = plan.partition != "horizontal"
        out[key] = PlanCost(
            plan_key=key,
            comp_seconds=plan_accesses(
                shape, avg_nnz_per_instance, plan) / scan_rate,
            comm_seconds=comm_scale * plan_comm_seconds(
                shape, plan, network, avg_nnz_per_instance, codec),
            histogram_memory_bytes=(
                vertical_histogram_memory_bytes(shape) if vertical
                else float(horizontal_histogram_memory_bytes(shape))),
            recovery_seconds=expected_recovery_seconds_per_tree(
                shape, avg_nnz_per_instance, network.bytes_per_second,
                crash_rate, vertical=vertical),
        )
    return out


def codec_projections(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    codecs: tuple = ("sparse", "f32", "f16"),
) -> Dict[str, float]:
    """Projected histogram-aggregation byte reduction per codec.

    Each entry is ``dense bytes / encoded bytes`` for one tree of
    horizontal aggregation at the workload's expected density profile.
    """
    dense = horizontal_comm_bytes_per_tree(shape)
    out: Dict[str, float] = {}
    for codec in codecs:
        encoded = horizontal_comm_bytes_per_tree_encoded(
            shape, avg_nnz_per_instance, codec)
        out[codec] = dense / encoded if encoded else float("inf")
    return out


def recommend(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    network: NetworkModel = None,
    memory_budget_bytes: float = None,
    scan_rate: float = DEFAULT_SCAN_RATE,
    crash_rate: float = 0.0,
    codec: str = "none",
    backend: str = "",
) -> Recommendation:
    """Pick the cheapest feasible quadrant for a workload.

    Ranks the :func:`price_plans` records of the four quadrant plans
    (:data:`PLAN_OF_QUADRANT`).  ``memory_budget_bytes`` (per worker,
    histograms only) disqualifies quadrants whose predicted histogram
    memory exceeds it — the paper's OOM scenario for horizontal
    partitioning on multi-class data.  ``crash_rate`` folds an
    expected-recovery-cost term into the ranking, so an unreliable
    cluster can tip the verdict toward the quadrant with the cheaper
    recovery policy.  ``codec`` prices horizontal aggregation with the
    named codec's encoded bytes, so a sparse workload can tip the verdict
    back toward a horizontal quadrant; the returned
    :attr:`Recommendation.codec_projections` reports the projected byte
    reduction of every codec either way.  ``backend`` scales the scan
    rate by the kernel backend's relative histogram throughput, so
    network-bound and compute-bound verdicts can flip with it.
    """
    if avg_nnz_per_instance <= 0:
        raise ValueError("avg_nnz_per_instance must be > 0")
    if scan_rate <= 0:
        raise ValueError("scan_rate must be > 0")
    if network is None:
        network = NetworkModel()
    codec = get_codec_stack(codec).name
    costs = price_plans(shape, avg_nnz_per_instance, network,
                        backend_constants(scan_rate, backend), codec=codec,
                        crash_rate=crash_rate)
    reasons: List[str] = []
    feasible = []
    for est in (costs[key] for key in PLAN_OF_QUADRANT.values()):
        if (memory_budget_bytes is not None
                and est.histogram_memory_bytes > memory_budget_bytes):
            reasons.append(
                f"{est.quadrant} excluded: predicted histogram memory "
                f"{est.histogram_memory_bytes / 2**30:.2f} GiB exceeds "
                f"the {memory_budget_bytes / 2**30:.2f} GiB budget"
            )
        else:
            feasible.append(est)
    if not feasible:
        raise ValueError(
            "no quadrant fits the memory budget; add workers or shrink "
            "the model (fewer layers/candidates)"
        )
    ranking = sorted(feasible, key=lambda e: e.total_seconds)
    best = ranking[0]
    reasons.append(
        f"{best.quadrant} ({best.description}) predicted cheapest: "
        f"{best.comp_seconds * 1e3:.1f} ms compute + "
        f"{best.comm_seconds * 1e3:.1f} ms network per tree"
    )
    if crash_rate > 0:
        reasons.append(
            f"expected recovery cost at {crash_rate:g} crashes/tree: "
            f"{best.recovery_seconds * 1e3:.1f} ms per tree "
            f"({best.quadrant} recovery policy)"
        )
    if len(ranking) > 1:
        runner = ranking[1]
        reasons.append(
            f"runner-up {runner.quadrant} at "
            f"{runner.total_seconds * 1e3:.1f} ms per tree"
        )
    projections = codec_projections(shape, avg_nnz_per_instance)
    if projections["sparse"] > 1.05:
        reasons.append(
            f"lossless sparse codec projects a "
            f"{projections['sparse']:.1f}x histogram-aggregation byte "
            f"reduction at this density (train --codec sparse)"
        )
    if codec != "none":
        reasons.append(
            f"horizontal aggregation priced with the {codec!r} codec"
        )
    if backend and backend != "numpy":
        factor = compute_factor(backend)
        reasons.append(
            f"compute priced for the {backend!r} kernel backend "
            f"({factor:g}x the numpy scan rate)"
        )
    return Recommendation(best=best, ranking=ranking, reasons=reasons,
                          codec_projections=projections)


# ---------------------------------------------------------------------------
# Adaptive re-planning (DESIGN.md §13)
# ---------------------------------------------------------------------------

def calibrate_constants(
    shape: WorkloadShape,
    avg_nnz_per_instance: float,
    plan: ExecutionPlan,
    reports: Sequence,
    network: NetworkModel,
    codec: str = "none",
    prior_scan_rate: float = DEFAULT_SCAN_RATE,
) -> CalibratedConstants:
    """Fit the per-phase constants to observed per-tree reports.

    ``reports`` are :class:`~repro.systems.base.TreeReport` records of
    trees trained under ``plan``.  Inverts the advisor's own formulas:
    the plan's predicted access count over the observed mean compute
    seconds gives the scan rate, and the observed over predicted
    communication seconds gives the wire scale.
    """
    if not reports:
        raise ValueError("calibration needs at least one observed tree")
    comp_obs = sum(r.comp_seconds for r in reports) / len(reports)
    comm_obs = sum(r.comm_seconds for r in reports) / len(reports)
    accesses = plan_accesses(shape, avg_nnz_per_instance, plan)
    scan_rate = accesses / comp_obs if comp_obs > 0 else prior_scan_rate
    comm_pred = plan_comm_seconds(shape, plan, network,
                                  avg_nnz_per_instance, codec)
    comm_scale = comm_obs / comm_pred if comm_pred > 0 else 1.0
    return CalibratedConstants(
        scan_rate=scan_rate, comm_scale=comm_scale,
        trees_observed=len(reports), prior_scan_rate=prior_scan_rate,
    )


@dataclass(frozen=True)
class AdaptDecision:
    """One adaptive re-planning verdict, with its full inputs.

    Recorded on :attr:`DistTrainResult.decisions` whether or not the
    session migrated, and (for migrations) broadcast to the workers as
    the ``migrate:decision`` ledger payload — so ``repro ledger`` can
    show why every plan change happened.
    """

    tree_index: int
    current_plan: str
    target_plan: str
    migrate: bool
    reason: str
    scan_rate: float
    comm_scale: float
    trees_observed: int
    trees_remaining: int
    current_cost_per_tree: float
    target_cost_per_tree: float
    projected_savings_seconds: float
    migration_seconds: float
    plan_costs: Dict[str, float] = field(default_factory=dict)

    def payload(self) -> dict:
        """JSON-ready decision inputs (the ``migrate:decision`` bytes)."""
        return {
            "tree": self.tree_index,
            "source": self.current_plan,
            "target": self.target_plan,
            "migrate": self.migrate,
            "reason": self.reason,
            "scan_rate": round(self.scan_rate, 3),
            "comm_scale": round(self.comm_scale, 6),
            "trees_observed": self.trees_observed,
            "trees_remaining": self.trees_remaining,
            "current_cost_per_tree": round(self.current_cost_per_tree, 9),
            "target_cost_per_tree": round(self.target_cost_per_tree, 9),
            "projected_savings_seconds": round(
                self.projected_savings_seconds, 9),
            "migration_seconds": round(self.migration_seconds, 9),
        }


class AdaptivePolicy:
    """Mid-run re-planning: recalibrate, re-price, switch when it pays.

    Every ``every`` trees the policy fits :class:`CalibratedConstants`
    to the trees observed since the last migration, re-prices all
    registry plans plus the migration bill, and tells the session to
    migrate when the projected savings over the remaining trees exceed
    that bill by ``margin``.  Attached to a
    :class:`~repro.systems.executor.TrainingSession` via its ``policy``
    argument (the ``--plan auto-adapt`` path).

    ``candidates`` restricts which registry plans the policy may migrate
    to (the current plan is always eligible to keep).  The default
    considers every plan; pass a whitelist to e.g. keep replicated
    plans — priced cheap on the wire but costing ``W`` full data copies
    the pricing does not see — off the table.
    """

    def __init__(
        self,
        shape: WorkloadShape,
        avg_nnz_per_instance: float,
        network: NetworkModel,
        every: int = 4,
        margin: float = 1.0,
        codec: str = "none",
        candidates: Optional[Sequence[str]] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if margin <= 0:
            raise ValueError(f"margin must be > 0, got {margin}")
        self.shape = shape
        self.avg_nnz = avg_nnz_per_instance
        self.network = network
        self.every = every
        self.margin = margin
        self.codec = codec
        if candidates is not None:
            unknown = sorted(set(candidates) - set(PLANS))
            if unknown:
                raise KeyError(f"unknown candidate plans: {unknown}")
            candidates = tuple(candidates)
        self.candidates = candidates
        #: report index where the current plan's observations begin
        self._observe_from = 0

    def consider(self, session) -> Optional[AdaptDecision]:
        """The session's tree-boundary hook; ``None`` means keep going."""
        t = session.state.tree_index
        if t % self.every != 0:
            return None
        plan = session.system.plan
        reports = session.result.tree_reports[self._observe_from:]
        if not reports:
            return None
        constants = calibrate_constants(
            self.shape, self.avg_nnz, plan, reports, self.network,
            codec=self.codec)
        costs = price_plans(self.shape, self.avg_nnz, self.network,
                            constants, codec=self.codec)
        current = costs[plan.key]
        eligible = [
            cost for key, cost in costs.items()
            if key == plan.key or self.candidates is None
            or key in self.candidates
        ]
        best = min(eligible, key=lambda c: c.total_seconds)
        remaining = session.num_trees - t
        savings = (current.total_seconds - best.total_seconds) * remaining
        bill = migration_seconds(
            self.shape, self.avg_nnz,
            plan.partition, PLANS[best.plan_key].partition,
            self.network.bytes_per_second,
            latency_s=self.network.latency_s,
        )
        should = (best.plan_key != plan.key
                  and savings > bill * self.margin)
        if should:
            reason = (
                f"{best.plan_key} saves "
                f"{(current.total_seconds - best.total_seconds) * 1e3:.1f}"
                f" ms/tree x {remaining} trees > migration bill "
                f"{bill * 1e3:.1f} ms"
            )
            self._observe_from = len(session.result.tree_reports)
        elif best.plan_key == plan.key:
            reason = f"{plan.key} remains the cheapest plan"
        else:
            reason = (
                f"projected savings {savings * 1e3:.1f} ms do not cover "
                f"the {bill * 1e3:.1f} ms migration bill"
            )
        return AdaptDecision(
            tree_index=t,
            current_plan=plan.key,
            target_plan=best.plan_key,
            migrate=should,
            reason=reason,
            scan_rate=constants.scan_rate,
            comm_scale=constants.comm_scale,
            trees_observed=constants.trees_observed,
            trees_remaining=remaining,
            current_cost_per_tree=current.total_seconds,
            target_cost_per_tree=costs[best.plan_key].total_seconds,
            projected_savings_seconds=savings,
            migration_seconds=bill,
            plan_costs={k: c.total_seconds for k, c in costs.items()},
        )
