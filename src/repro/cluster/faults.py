"""Deterministic fault injection for the simulated cluster.

The paper's experiments assume a fault-free cluster; production training
does not get that luxury.  This module adds the three failure classes a
distributed GBDT run must survive — **worker crashes** at tree/layer
boundaries, **transient message drops**, and **timeouts** — as seeded,
exactly replayable schedules:

* :class:`FaultPlan` is the declarative schedule description, parsed from
  the ``SEED:SPEC`` strings of ``TrainConfig.faults`` /
  ``repro train --faults`` (e.g. ``"42:crash=2,drop=0.05,timeout=0.01"``).
* :class:`FaultInjector` draws every injected event from one
  ``numpy`` RNG seeded with the plan's seed, in deterministic call order,
  so any failure run can be replayed bit-for-bit.

Transport faults (drops/timeouts) are consumed by
:meth:`repro.cluster.network.SimulatedNetwork.record`, which re-sends the
payload with exponential backoff and accounts every extra byte and second
under a dedicated ``retry:<kind>`` ledger entry.  Crash events are
consumed by :class:`repro.systems.executor.PlanExecutor`, which rolls the
tree back to its last :class:`~repro.systems.executor.TreeCheckpoint` and
charges the recovery traffic under ``recovery:*`` kinds.  Because the
fault-free operation sequence is deterministic, a faulty run's ledger is
exactly the fault-free ledger plus those dedicated kinds — the invariant
``tests/systems/test_chaos.py`` pins for every plan in the registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: kinds carrying injected-fault traffic; never themselves subject to
#: injection (the retry/recovery channel is modelled as reliable)
RETRY_PREFIX = "retry:"
RECOVERY_PREFIX = "recovery:"
FAULT_PREFIXES = (RETRY_PREFIX, RECOVERY_PREFIX)


class UnrecoverableFaultError(RuntimeError):
    """A fault schedule exceeded what the recovery policy can absorb."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of a fault schedule.

    Attributes
    ----------
    seed:
        Seed of the injector's RNG; the same plan always injects the
        same events at the same points.
    crashes:
        Number of worker-crash events, each scheduled at a uniformly
        drawn (tree, layer, worker) boundary.
    drop_rate:
        Per-operation probability that a message is lost in transit and
        must be re-sent.
    timeout_rate:
        Per-operation probability that a message times out; a timed-out
        attempt additionally waits ``timeout_s`` before the re-send.
    backoff_s:
        Base of the exponential backoff: the ``i``-th consecutive retry
        of one operation waits ``backoff_s * 2**i`` seconds.
    timeout_s:
        Detection delay charged for each timeout event.
    max_retries:
        Consecutive re-sends after which an operation is declared
        undeliverable (:class:`UnrecoverableFaultError`).
    max_crashes_per_tree:
        Recovery-budget guard: more crash events landing inside one tree
        than this is declared unrecoverable.
    """

    seed: int
    crashes: int = 0
    drop_rate: float = 0.0
    timeout_rate: float = 0.0
    backoff_s: float = 0.01
    timeout_s: float = 0.5
    max_retries: int = 8
    max_crashes_per_tree: int = 4

    def __post_init__(self) -> None:
        if self.crashes < 0:
            raise ValueError(f"crashes must be >= 0, got {self.crashes}")
        for name in ("drop_rate", "timeout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.drop_rate + self.timeout_rate >= 1.0:
            raise ValueError(
                "drop_rate + timeout_rate must be < 1 (an operation "
                "must eventually succeed)"
            )
        for name in ("backoff_s", "timeout_s"):
            delay = getattr(self, name)
            if not 0.0 <= delay < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {delay}")
        if self.max_retries < 1:
            raise ValueError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        if self.max_crashes_per_tree < 1:
            raise ValueError(
                "max_crashes_per_tree must be >= 1, got "
                f"{self.max_crashes_per_tree}"
            )

    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all."""
        return (self.crashes > 0 or self.drop_rate > 0.0
                or self.timeout_rate > 0.0)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``SEED:SPEC`` string (the ``--faults`` syntax).

        ``SPEC`` is a comma-separated list of ``key=value`` entries with
        keys ``crash``, ``drop``, ``timeout``, ``backoff``, ``timeout-s``
        and ``retries``, e.g. ``"42:crash=2,drop=0.05"``.  Each key may
        appear once, and ``crash`` / ``retries`` take whole counts.
        """
        head, sep, tail = spec.partition(":")
        if not sep or not head.strip():
            raise ValueError(
                f"fault spec {spec!r} must look like 'SEED:key=value,...'"
            )
        try:
            seed = int(head)
        except ValueError:
            raise ValueError(
                f"fault spec {spec!r} has a non-integer seed {head!r}"
            ) from None
        fields: Dict[str, float] = {}
        keys = {
            "crash": "crashes",
            "drop": "drop_rate",
            "timeout": "timeout_rate",
            "backoff": "backoff_s",
            "timeout-s": "timeout_s",
            "retries": "max_retries",
        }
        for item in filter(None, (p.strip() for p in tail.split(","))):
            key, eq, value = item.partition("=")
            attr = keys.get(key.strip())
            if not eq or attr is None:
                raise ValueError(
                    f"fault spec entry {item!r} must be one of "
                    f"{', '.join(sorted(keys))} followed by '=value'"
                )
            if attr in fields:
                raise ValueError(
                    f"fault spec entry {item!r} repeats {key.strip()!r}")
            try:
                number = float(value)
            except ValueError:
                raise ValueError(
                    f"fault spec entry {item!r} has a non-numeric value"
                ) from None
            if attr in ("crashes", "max_retries"):
                if not number.is_integer():
                    raise ValueError(
                        f"fault spec entry {item!r} needs a whole count")
                number = int(number)
            fields[attr] = number
        if not fields:
            raise ValueError(
                f"fault spec {spec!r} names no fault (e.g. 'crash=1')"
            )
        return cls(seed=seed, **fields)

    def describe(self) -> str:
        """One-line human summary (CLI output)."""
        parts = [f"seed={self.seed}"]
        if self.crashes:
            parts.append(f"crashes={self.crashes}")
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.timeout_rate:
            parts.append(f"timeout={self.timeout_rate:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled worker crash, fired at a (tree, layer) boundary."""

    tree: int
    layer: int
    worker: int


@dataclass(frozen=True)
class TransportFault:
    """One injected drop or timeout of a transport operation."""

    kind: str           # "drop" | "timeout"
    penalty_s: float    # detection delay before the re-send


@dataclass
class FaultCounters:
    """What the injector actually fired (for exact-accounting tests)."""

    crashes: int = 0
    drops: int = 0
    timeouts: int = 0


class FaultInjector:
    """Runtime oracle of one seeded fault schedule.

    Crash events are pre-drawn at construction; transport faults are
    drawn per consulted operation, in deterministic call order.  The
    injector is single-run state: build a fresh one (same plan) to
    replay a run exactly.
    """

    def __init__(self, plan: FaultPlan, num_workers: int,
                 num_trees: int, num_layers: int) -> None:
        if num_workers < 1 or num_trees < 1 or num_layers < 2:
            raise ValueError("injector needs a valid cluster/schedule")
        self.plan = plan
        self.num_workers = num_workers
        self.counters = FaultCounters()
        self._rng = np.random.default_rng(plan.seed)
        self._crashes: Dict[Tuple[int, int], List[CrashEvent]] = {}
        per_tree: Dict[int, int] = {}
        for _ in range(plan.crashes):
            tree = int(self._rng.integers(num_trees))
            layer = int(self._rng.integers(num_layers - 1))
            worker = int(self._rng.integers(num_workers))
            event = CrashEvent(tree, layer, worker)
            self._crashes.setdefault((tree, layer), []).append(event)
            per_tree[tree] = per_tree.get(tree, 0) + 1
        overloaded = {t: n for t, n in per_tree.items()
                      if n > plan.max_crashes_per_tree}
        if overloaded:
            raise UnrecoverableFaultError(
                f"fault plan schedules {max(overloaded.values())} crashes "
                f"inside one tree, above the recovery budget of "
                f"{plan.max_crashes_per_tree}; pick another seed or "
                "raise max_crashes_per_tree"
            )

    # -- crash faults ----------------------------------------------------------

    def scheduled_crashes(self) -> List[CrashEvent]:
        """Every scheduled crash event, in (tree, layer) order."""
        return [event for key in sorted(self._crashes)
                for event in self._crashes[key]]

    def maybe_crash(self, tree: int, layer: int) -> "CrashEvent | None":
        """Pop the next crash scheduled at this boundary, if any.

        Each event fires exactly once, so the recovery replay of a layer
        does not re-trigger the crash that interrupted it.
        """
        pending = self._crashes.get((tree, layer))
        if not pending:
            return None
        self.counters.crashes += 1
        return pending.pop(0)

    # -- transport faults ------------------------------------------------------

    def transport_faults(self, kind: str) -> List[TransportFault]:
        """Injected drop/timeout events for one transport operation.

        One RNG draw per attempt: the operation retries while the draw
        lands inside the drop/timeout mass, up to ``max_retries``.
        Retry/recovery traffic itself is never faulted.
        """
        plan = self.plan
        if kind.startswith(FAULT_PREFIXES):
            return []
        if plan.drop_rate == 0.0 and plan.timeout_rate == 0.0:
            return []
        faults: List[TransportFault] = []
        while len(faults) < plan.max_retries:
            draw = float(self._rng.random())
            if draw < plan.drop_rate:
                faults.append(TransportFault("drop", 0.0))
                self.counters.drops += 1
            elif draw < plan.drop_rate + plan.timeout_rate:
                faults.append(TransportFault("timeout", plan.timeout_s))
                self.counters.timeouts += 1
            else:
                return faults
        raise UnrecoverableFaultError(
            f"operation {kind!r} failed {plan.max_retries} consecutive "
            "times; the schedule is unrecoverable under this retry budget"
        )

    def retry_seconds(self, attempt: int, base_seconds: float,
                      fault: TransportFault) -> float:
        """Simulated cost of re-sending after the ``attempt``-th failure:
        detection delay + exponential backoff + the re-send itself."""
        backoff = self.plan.backoff_s * (2.0 ** attempt)
        return fault.penalty_s + backoff + base_seconds
