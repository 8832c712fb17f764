"""Declarative registry of distributed GBDT execution plans.

An :class:`ExecutionPlan` names one strategy per axis — partitioning,
storage layout, index plan, aggregation — and can build a ready-to-train
:class:`~repro.systems.executor.PlanExecutor`.  The paper's quadrants
(and the bolted-on variants of its Section 5 study) are entries in
:data:`PLANS`; adding a system variant means adding an entry, not a
subclass, and mixed layouts beyond the four quadrants are just new axis
combinations.

Use :func:`get_plan` to resolve a registry key or alias, and
``plan.build(config, cluster).fit(binned)`` to train with it::

    from repro.systems.plans import get_plan
    result = get_plan("qd2-ps").build(config, cluster).fit(binned)

Custom plans need no registration — ``dataclasses.replace`` an existing
entry (or construct :class:`ExecutionPlan` directly) and call ``build``.
A composition whose strategies cannot run together (a strategy's
``requires`` names another axis) raises ``ValueError`` at construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, TYPE_CHECKING

from .strategies import AGGREGATIONS, INDEX_PLANS, PARTITIONS, STORAGES

if TYPE_CHECKING:
    from ..config import ClusterConfig, TrainConfig
    from .executor import PlanExecutor


@dataclass(frozen=True)
class ExecutionPlan:
    """One point of the plan space: a strategy key per axis."""

    #: registry key, e.g. ``"qd2-ps"``
    key: str
    #: quadrant label of the paper's taxonomy, e.g. ``"QD2"``
    quadrant: str
    #: human name, e.g. ``"dimboost-style"``
    name: str
    #: one-line description (shown by ``repro advise``)
    description: str
    #: :data:`~repro.systems.strategies.PARTITIONS` key
    partition: str
    #: :data:`~repro.systems.strategies.STORAGES` key
    storage: str
    #: :data:`~repro.systems.strategies.INDEX_PLANS` key
    index: str
    #: :data:`~repro.systems.strategies.AGGREGATIONS` key
    aggregation: str

    def __post_init__(self) -> None:
        for axis, registry in (("partition", PARTITIONS),
                               ("storage", STORAGES),
                               ("index", INDEX_PLANS),
                               ("aggregation", AGGREGATIONS)):
            value = getattr(self, axis)
            if value not in registry:
                raise ValueError(
                    f"unknown {axis} strategy {value!r}; known: "
                    f"{', '.join(sorted(registry))}"
                )
        for axis, registry in (("index", INDEX_PLANS),
                               ("aggregation", AGGREGATIONS)):
            value = getattr(self, axis)
            for other, allowed in registry[value].requires.items():
                if getattr(self, other) not in allowed:
                    raise ValueError(
                        f"{axis} strategy {value!r} cannot run with "
                        f"{other} strategy {getattr(self, other)!r}; it "
                        f"needs {other} {' or '.join(sorted(allowed))}"
                    )

    def build(self, config: "TrainConfig",
              cluster: "ClusterConfig") -> "PlanExecutor":
        """Compose the plan's strategies into a ready trainer."""
        from .executor import PlanExecutor

        return PlanExecutor(config, cluster, self)

    def replace(self, **changes) -> "ExecutionPlan":
        """A derived plan with some axes (or labels) swapped out."""
        return dataclasses.replace(self, **changes)

    def axes(self) -> Dict[str, str]:
        """The four strategy keys, by axis name."""
        return {
            "partition": self.partition,
            "storage": self.storage,
            "index": self.index,
            "aggregation": self.aggregation,
        }


def _plans(*plans: ExecutionPlan) -> Dict[str, ExecutionPlan]:
    return {plan.key: plan for plan in plans}


#: the plan registry: every system of the paper's study, by key
PLANS: Dict[str, ExecutionPlan] = _plans(
    ExecutionPlan(
        key="qd1", quadrant="QD1", name="xgboost-style",
        description=("horizontal rows in CSC; level-wise instance-to-"
                     "node pass; ring all-reduce + leader split find"),
        partition="horizontal", storage="column",
        index="instance-to-node", aggregation="all-reduce",
    ),
    ExecutionPlan(
        key="qd2", quadrant="QD2", name="lightgbm-style",
        description=("horizontal rows in CSR; node-to-instance index "
                     "with subtraction; reduce-scatter over feature "
                     "slices"),
        partition="horizontal", storage="row",
        index="node-to-instance", aggregation="reduce-scatter",
    ),
    ExecutionPlan(
        key="qd2-ps", quadrant="QD2", name="dimboost-style",
        description=("QD2 with parameter-server push/pull aggregation "
                     "(the DimBoost architecture)"),
        partition="horizontal", storage="row",
        index="node-to-instance", aggregation="parameter-server",
    ),
    ExecutionPlan(
        key="qd2-fp", quadrant="QD2-FP",
        name="lightgbm-feature-parallel",
        description=("feature-parallel LightGBM: full data copy per "
                     "worker, local election, local node splitting"),
        partition="replicated", storage="row",
        index="node-to-instance", aggregation="local",
    ),
    ExecutionPlan(
        key="qd3", quadrant="QD3", name="yggdrasil-style",
        description=("vertical column groups in CSC; hybrid scan/search "
                     "kernel; local election + bitmap broadcast"),
        partition="vertical", storage="column",
        index="node-to-instance", aggregation="bitmap-broadcast",
    ),
    ExecutionPlan(
        key="qd3-pure", quadrant="QD3", name="yggdrasil-style",
        description=("pure Yggdrasil: per-column node-to-instance index "
                     "with per-layer column reorders"),
        partition="vertical", storage="column",
        index="columnwise", aggregation="bitmap-broadcast",
    ),
    ExecutionPlan(
        key="vero", quadrant="QD4", name="vero",
        description=("vertical column groups in CSR; node-to-instance "
                     "index with subtraction; local election + bitmap "
                     "broadcast (the paper's system)"),
        partition="vertical", storage="row",
        index="node-to-instance", aggregation="bitmap-broadcast",
    ),
)

#: accepted spellings that map onto a canonical registry key
ALIASES: Dict[str, str] = {
    "xgboost": "qd1",
    "lightgbm": "qd2",
    "dimboost": "qd2-ps",
    "lightgbm-fp": "qd2-fp",
    "yggdrasil": "qd3",
    "qd4": "vero",
}


def plan_keys() -> List[str]:
    """Canonical registry keys, in registry order."""
    return list(PLANS)


def get_plan(key: str) -> ExecutionPlan:
    """Resolve a registry key or alias (case-insensitive)."""
    canonical = key.lower()
    canonical = ALIASES.get(canonical, canonical)
    try:
        return PLANS[canonical]
    except KeyError:
        raise KeyError(
            f"unknown plan {key!r}; known: "
            f"{', '.join(sorted(set(PLANS) | set(ALIASES)))}"
        ) from None
