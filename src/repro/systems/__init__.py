"""The four data-management quadrants, one code base (Section 5.2).

Every system is an :class:`~repro.systems.plans.ExecutionPlan` — one
strategy per axis, composed by a
:class:`~repro.systems.executor.PlanExecutor`:

========  ============  =========  ============  =================
Plan key  Partitioning  Storage    Index         Aggregation
========  ============  =========  ============  =================
qd1       horizontal    column     inst-to-node  all-reduce
qd2       horizontal    row        node-to-inst  reduce-scatter
qd2-ps    horizontal    row        node-to-inst  parameter-server
qd2-fp    replicated    row        node-to-inst  local
qd3       vertical      column     node-to-inst  bitmap-broadcast
qd3-pure  vertical      column     columnwise    bitmap-broadcast
vero      vertical      row        node-to-inst  bitmap-broadcast
========  ============  =========  ============  =================

``get_plan(key).build(config, cluster)`` is the one trainer
constructor; :func:`get_plan` also accepts the classic system names
(xgboost, lightgbm, dimboost, lightgbm-fp, yggdrasil, qd4) listed in
:data:`~repro.systems.plans.ALIASES`, case-insensitively.

Training runs through a resumable
:class:`~repro.systems.executor.TrainingSession`, which can migrate
between plans at tree boundaries (``system.fit`` wraps one).
:func:`make_adaptive_session` builds a session with an
:class:`~repro.systems.advisor.AdaptivePolicy` attached — the
``--plan auto-adapt`` path.
"""

from __future__ import annotations

from ..config import ClusterConfig, TrainConfig
from ..data.dataset import BinnedDataset, bin_dataset
from .advisor import (AdaptDecision, AdaptivePolicy, CalibratedConstants,
                      PlanCost, Recommendation, calibrate_constants,
                      price_plans, recommend)
from .base import DistEvalRecord, DistTrainResult, MemoryReport, TreeReport
from .costmodel import WorkloadShape, workload_of
from .executor import (PlanExecutor, SessionCheckpoint, SessionState,
                       TrainingSession)
from .migration import MigrationRecord, PlanMigrator
from .plans import ALIASES, PLANS, ExecutionPlan, get_plan, plan_keys


def make_adaptive_session(
    config: TrainConfig,
    cluster: ClusterConfig,
    train,
    valid=None,
    start_plan: str = "",
    every: int = 4,
    margin: float = 1.0,
) -> TrainingSession:
    """A :class:`TrainingSession` with adaptive re-planning attached.

    ``start_plan`` names the opening plan; when it is empty the
    advisor's prior-cost recommendation picks it.  The policy
    recalibrates every ``every`` trees and migrates whenever the
    projected savings over the remaining trees exceed the migration bill
    by ``margin``.
    """
    binned = train if isinstance(train, BinnedDataset) \
        else bin_dataset(train, config.num_candidates)
    shape, avg_nnz = workload_of(binned, config, cluster)
    key = start_plan
    if key in ("", "auto-adapt"):
        # no opening plan named: let the prior cost model pick one (the
        # session migrates away later if the calibrated model disagrees)
        key = recommend(shape, avg_nnz, cluster.network,
                        codec=config.codec,
                        backend=config.backend).best.plan_key
    session = TrainingSession(get_plan(key).build(config, cluster), binned,
                              valid=valid)
    session.policy = AdaptivePolicy(
        shape, avg_nnz, cluster.network,
        every=every,
        margin=margin,
        codec=config.codec,
    )
    return session


__all__ = [
    "ALIASES",
    "AdaptDecision",
    "AdaptivePolicy",
    "CalibratedConstants",
    "ExecutionPlan",
    "MigrationRecord",
    "PLANS",
    "PlanCost",
    "PlanExecutor",
    "PlanMigrator",
    "Recommendation",
    "SessionCheckpoint",
    "SessionState",
    "TrainingSession",
    "WorkloadShape",
    "calibrate_constants",
    "get_plan",
    "plan_keys",
    "price_plans",
    "recommend",
    "DistEvalRecord",
    "DistTrainResult",
    "MemoryReport",
    "TreeReport",
    "make_adaptive_session",
]
