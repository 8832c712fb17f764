"""The bounded admission queue as it stood before the per-class deques:
``_shed_victim`` takes ``min`` over the backlog and scans it for the
first member of that class, and every field is read through the
per-request accessors.

Kept as the reference ``MicroBatcher._batches`` is compared
against — the same ``(ids, close)`` batch sequence and the same drop
columns, entry for entry.  :func:`reference_ledger` joins its batches
into a :class:`ServingReport` one request at a time, the oracle for the
columns ``MicroBatcher.run`` builds once per batch.

:class:`FixedServiceServer` is the backend the hand-computed schedules
in ``test_batcher.py`` run on.  The one serving backend,
:class:`~repro.serve.replica.ReplicaSet`, cannot stand in: its
``deploy`` occupies the worker for the model transfer, so no fleet is
free at t=0.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.serve.batcher import (BATCH_COLUMNS, DROP_COLUMNS, Batch,
                                 BatchPolicy, DispatchResult,
                                 RequestTrace, ScoreBook, ServingReport)
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

    def dispatch(self, features: np.ndarray,
                 close_s: float) -> DispatchResult:
        """The backend contract over :meth:`serve`: the model version
        counts the batches served, so every batch has its own."""
        start = max(close_s, self.free_s)
        done = self.serve(features.shape[0], close_s)
        # batch formation reads no scores: the worker books none
        return DispatchResult(
            start_s=start, completion_s=done, worker=self.served % 3,
            model_version=self.served, book=None,
            positions=np.zeros(0, dtype=np.int64))


class FixedServiceServer:
    """The backend contract at its smallest, for schedules computed by
    hand: one worker free from t=0 that books every batch in one
    :class:`ScoreBook` of ``compiled`` and holds it for
    ``service(batch rows)`` seconds."""

    def __init__(self, compiled: CompiledEnsemble,
                 service: Callable[[int], float]) -> None:
        self.book = ScoreBook(compiled)
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
            model_version=0, book=self.book,
            positions=self.book.append(features))


def entry_of(column: Optional[np.ndarray], request: int) -> int:
    """One request's entry of an optional trace column (``tenants`` or
    ``priorities``); 0 when the trace leaves the column out."""
    return 0 if column is None else int(column[request])


def reference_shed_victim(trace: RequestTrace, backlog: List[int],
                          newcomer: int) -> Optional[int]:
    """Backlog position the shed policy evicts to admit ``newcomer``,
    or ``None`` when the newcomer itself must be refused: the oldest
    request of the lowest priority class queued, unless the newcomer is
    below every queued class."""
    if trace.priorities is None:
        return 0
    lowest = min(entry_of(trace.priorities, r) for r in backlog)
    if entry_of(trace.priorities, newcomer) < lowest:
        return None
    for pos, request in enumerate(backlog):
        if entry_of(trace.priorities, request) == lowest:
            return pos
    raise AssertionError("unreachable: lowest class vanished")


def reference_bounded_batches(backend, policy: BatchPolicy,
                              trace: RequestTrace,
                              drops: Dict[str, list],
                              shed_victim=reference_shed_victim
                              ) -> Iterator[Batch]:
    """``MicroBatcher._batches`` over ``backend.next_free_s``,
    appending each drop to ``drops`` (one list per name in
    ``DROP_COLUMNS``).

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
                    drop = (i, now, "reject", entry_of(trace.tenants, i),
                            entry_of(trace.priorities, i))
                else:
                    victim = backlog.pop(victim_pos)
                    drop = (victim, now, "shed-oldest",
                            entry_of(trace.tenants, victim),
                            entry_of(trace.priorities, victim))
                    backlog.append(i)
                for name, value in zip(DROP_COLUMNS, drop):
                    drops[name].append(value)
            i += 1
            continue
        size = min(len(backlog), policy.max_batch_size)
        batch_ids = backlog[:size]
        del backlog[:size]
        yield (trace.features[batch_ids],
               np.asarray(batch_ids, dtype=np.int64), float(close))
        free = backend.next_free_s()


def reference_ledger(backend, policy: BatchPolicy,
                     trace: RequestTrace,
                     shed_victim=reference_shed_victim) -> ServingReport:
    """The ledger of ``trace`` replayed through ``backend``, written one
    request at a time: every request row copies its batch id, and its
    arrival is read through the single-request accessor.  An unbounded
    policy runs as a queue no trace can fill, which forms the same
    batches and drops nobody."""
    if policy.max_queue == 0:
        policy = BatchPolicy(policy.max_batch_size, policy.max_delay_s,
                             max_queue=max(trace.num_requests,
                                           policy.max_batch_size))
    drops: Dict[str, list] = {name: [] for name in DROP_COLUMNS}
    batches: Dict[str, list] = {name: [] for name in BATCH_COLUMNS}
    request_id, request_batch, request_arrival_s = [], [], []
    for features, ids, close in reference_bounded_batches(
            backend, policy, trace, drops, shed_victim):
        result = backend.dispatch(features, close)
        row = (ids.size, close, result.start_s, result.completion_s,
               result.worker, result.model_version)
        for name, value in zip(BATCH_COLUMNS, row):
            batches[name].append(value)
        for request in ids.tolist():
            request_id.append(request)
            request_batch.append(len(batches["batch_size"]) - 1)
            request_arrival_s.append(float(trace.arrivals[request]))
    return ServingReport(**batches, **drops, request_id=request_id,
                         request_batch=request_batch,
                         request_arrival_s=request_arrival_s,
                         offered=trace.num_requests)
