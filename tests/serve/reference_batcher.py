"""The bounded admission queue as it stood before the per-class deques:
``_shed_victim`` takes ``min`` over the backlog and scans it for the
first member of that class, and every field is read through the
per-request accessors.

Kept as the reference ``MicroBatcher._bounded_batches`` is compared
against — the same ``(ids, close)`` batch sequence and the same
``report.dropped`` list, field for field.

:class:`FixedServiceServer` is the backend the hand-computed schedules
in ``test_batcher.py`` run on.  The one serving backend,
:class:`~repro.serve.replica.ReplicaSet`, cannot stand in: its
``deploy`` occupies the worker for the model transfer, so no fleet is
free at t=0.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.serve.batcher import (Batch, BatchPolicy, DispatchResult,
                                 DropRecord, RequestTrace, ServingReport)
from repro.serve.compiler import CompiledEnsemble


class SimulatedWorker:
    """The slice of the backend contract batch formation reads: a free
    time, moved by whoever drains the batches.  ``stall_every`` makes it
    jump (a deploy landing on the worker) after every n-th batch."""

    def __init__(self, stall_every: int = 0) -> None:
        self.free_s = 0.0
        self.stall_every = stall_every
        self.served = 0

    def next_free_s(self) -> float:
        return self.free_s

    def serve(self, size: int, close_s: float) -> float:
        """Occupy the worker with one batch; returns its completion."""
        self.served += 1
        self.free_s = max(close_s, self.free_s) + 0.002 + 0.0001 * size
        done = self.free_s
        if self.stall_every and self.served % self.stall_every == 0:
            self.free_s += 0.03
        return done


class FixedServiceServer:
    """The backend contract at its smallest, for schedules computed by
    hand: one worker free from t=0 that scores every batch with
    ``compiled`` and holds it for ``service(batch rows)`` seconds."""

    def __init__(self, compiled: CompiledEnsemble,
                 service: Callable[[int], float]) -> None:
        self.compiled = compiled
        self.service = service
        self.free_s = 0.0

    def next_free_s(self) -> float:
        return self.free_s

    def dispatch(self, features: np.ndarray,
                 close_s: float) -> DispatchResult:
        start = max(close_s, self.free_s)
        self.free_s = start + self.service(features.shape[0])
        return DispatchResult(
            start_s=start, completion_s=self.free_s, worker=0,
            model_version=0, scores=self.compiled.raw_scores(features))


def reference_shed_victim(trace: RequestTrace, backlog: List[int],
                          newcomer: int) -> Optional[int]:
    """Backlog position the shed policy evicts to admit ``newcomer``,
    or ``None`` when the newcomer itself must be refused: the oldest
    request of the lowest priority class queued, unless the newcomer is
    below every queued class."""
    if trace.priorities is None:
        return 0
    lowest = min(trace.priority_of(r) for r in backlog)
    if trace.priority_of(newcomer) < lowest:
        return None
    for pos, request in enumerate(backlog):
        if trace.priority_of(request) == lowest:
            return pos
    raise AssertionError("unreachable: lowest class vanished")


def reference_bounded_batches(backend, policy: BatchPolicy,
                              trace: RequestTrace, report: ServingReport,
                              shed_victim=reference_shed_victim
                              ) -> Iterator[Batch]:
    """``MicroBatcher._bounded_batches`` over ``backend.next_free_s``.

    ``shed_victim`` is the one seam added to the original: the audit
    tests pass deliberately broken shed rules through it.
    """
    arrivals = trace.arrivals
    total = trace.num_requests
    backlog: List[int] = []
    i = 0
    free = backend.next_free_s()
    while i < total or backlog:
        if not backlog:
            backlog.append(i)
            i += 1
        if len(backlog) >= policy.max_batch_size:
            close = max(
                float(arrivals[backlog[policy.max_batch_size - 1]]), free)
        else:
            close = max(
                float(arrivals[backlog[0]]) + policy.max_delay_s, free)
        if i < total and arrivals[i] <= close:
            now = float(arrivals[i])
            if len(backlog) < policy.max_queue:
                backlog.append(i)
            else:
                victim_pos = None if policy.overload == "reject" \
                    else shed_victim(trace, backlog, i)
                if victim_pos is None:
                    report.dropped.append(DropRecord(
                        i, now, now, "reject",
                        tenant=trace.tenant_of(i),
                        priority=trace.priority_of(i)))
                else:
                    victim = backlog.pop(victim_pos)
                    report.dropped.append(DropRecord(
                        victim, float(arrivals[victim]), now,
                        "shed-oldest",
                        tenant=trace.tenant_of(victim),
                        priority=trace.priority_of(victim)))
                    backlog.append(i)
            i += 1
            continue
        size = min(len(backlog), policy.max_batch_size)
        batch_ids = backlog[:size]
        del backlog[:size]
        yield (trace.features[batch_ids],
               np.asarray(batch_ids, dtype=np.int64), float(close))
        free = backend.next_free_s()
