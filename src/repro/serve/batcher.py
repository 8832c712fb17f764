"""Micro-batching request scheduler on the simulated clock.

Serving traffic arrives one request at a time; the compiled predictor is
fastest on large batches.  The :class:`MicroBatcher` bridges the two with
the classic policy pair: a batch dispatches when it reaches
``max_batch_size`` requests **or** when its oldest request has waited
``max_delay_s``, whichever comes first.  Following the repo's simulation
discipline (computation real, coordination simulated), time is a simulated
clock driven by the trace's arrival process — by default the *service*
time of each batch is the measured wall-clock of the compiled predictor,
while tests substitute a deterministic ``service_model`` so schedules are
reproducible down to the float.

Every request's life is recorded in a :class:`RequestRecord` (arrival,
batch, dispatch start, completion, worker, model version) and summarized
by :class:`LatencyStats` (p50/p95/p99/mean/max latency plus throughput).
The model version of a batch is resolved exactly once at dispatch — that
is what makes a registry hot-swap atomic from the traffic's point of
view: each request is served by exactly one version, and the swap falls
on a batch boundary.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..ledger import percentile_summary
from .compiler import CompiledEnsemble
from .registry import ModelRegistry

#: a hot-swap scheduled on the simulated clock: ``(time_s, action)``;
#: the action receives the swap time (e.g. to stamp a deploy)
SwapEvent = Tuple[float, Callable[[float], None]]

#: one batch ready to dispatch: ``(feature rows, request ids, close_s)``
Batch = Tuple[np.ndarray, np.ndarray, float]


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch a batch at ``max_batch_size`` requests or after the
    oldest request has waited ``max_delay_s``, whichever happens first.

    ``max_queue`` bounds the admission queue (0 = unbounded, the
    default).  When offered load exceeds capacity a bounded queue fills
    and the ``overload`` policy decides who pays: ``"reject"`` drops the
    *newcomer* at its arrival (drop-tail — queued requests keep their
    place, admission latency is predictable), ``"shed-oldest"`` drops
    the *head* of the queue to admit the newcomer (drop-head — the
    request most likely to already be uselessly stale is sacrificed,
    as in SEDA-style load shedding).  Dropped requests appear in the
    :class:`ServingReport` ledger and the drop rate in
    :class:`LatencyStats`.
    """

    max_batch_size: int = 64
    max_delay_s: float = 0.002
    max_queue: int = 0
    overload: str = "reject"

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not (self.max_delay_s >= 0.0):
            raise ValueError("max_delay_s must be >= 0")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        if 0 < self.max_queue < self.max_batch_size:
            raise ValueError(
                "a bounded queue must hold at least one full batch: "
                f"max_queue={self.max_queue} < "
                f"max_batch_size={self.max_batch_size}"
            )
        if self.overload not in ("reject", "shed-oldest"):
            raise ValueError(
                f"unknown overload policy: {self.overload!r} "
                "(choose 'reject' or 'shed-oldest')"
            )

    @property
    def bounded(self) -> bool:
        return self.max_queue > 0


@dataclass(frozen=True)
class RequestTrace:
    """A replayable serving workload: rows plus their arrival times.

    ``features`` is a dense ``(num_requests, num_features)`` float64
    matrix (``NaN`` marks missing values, matching the sparse-input
    convention of :class:`~repro.serve.compiler.CompiledEnsemble`);
    ``arrivals`` is finite, nondecreasing simulated seconds.  A ``NaN``
    or infinite arrival is rejected here rather than silently producing
    negative queue delays downstream (``NaN`` compares false against
    everything, so a diff-based monotonicity check alone lets it
    through).

    ``tenants`` and ``priorities`` are optional per-request ``int``
    arrays for multi-tenant traffic: ``tenants[i]`` names the fleet
    tenant that issued request ``i`` (an index into whatever tenant
    table the trace builder keeps) and ``priorities[i]`` is its
    admission priority class — **higher values are more important** and
    are shed last under overload.  Single-tenant traces leave both
    ``None``; every request then belongs to tenant 0 at priority 0.
    """

    features: np.ndarray
    arrivals: np.ndarray
    tenants: Optional[np.ndarray] = None
    priorities: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("trace features must be 2-D")
        if self.arrivals.shape != (self.features.shape[0],):
            raise ValueError("one arrival time per request required")
        if self.arrivals.size and not np.all(np.isfinite(self.arrivals)):
            raise ValueError(
                "arrival times must be finite (a NaN or infinite "
                "arrival would corrupt every queue-delay downstream)"
            )
        if self.arrivals.size and np.any(np.diff(self.arrivals) < 0):
            raise ValueError("arrival times must be nondecreasing")
        for name in ("tenants", "priorities"):
            extra = getattr(self, name)
            if extra is None:
                continue
            if extra.shape != (self.features.shape[0],):
                raise ValueError(f"one {name[:-1]} entry per request "
                                 "required")
            if not np.issubdtype(extra.dtype, np.integer):
                raise ValueError(f"{name} must be an integer array")

    @property
    def num_requests(self) -> int:
        return self.features.shape[0]

    def tenant_of(self, request_id: int) -> int:
        """Tenant index of one request (0 for single-tenant traces)."""
        return (0 if self.tenants is None
                else int(self.tenants[request_id]))

    def priority_of(self, request_id: int) -> int:
        """Admission priority of one request (0 when unprioritized)."""
        return (0 if self.priorities is None
                else int(self.priorities[request_id]))

    def csc(self):
        """The trace rows as a :class:`~repro.data.matrix.CSCMatrix`.

        Non-``NaN`` entries become stored entries — the format
        ``TreeEnsemble.raw_scores`` consumes, used by the bench's naive
        baseline and the exactness tests.  (A dense trace cannot carry a
        *stored* exact zero; synthetic Gaussian traces never hit one.)
        """
        from ..data.matrix import CSCMatrix

        mask = ~np.isnan(self.features)
        by_col = mask.T
        cols, rows = np.nonzero(by_col)
        indptr = np.concatenate(
            ([0], np.cumsum(by_col.sum(axis=1)))
        ).astype(np.int64)
        return CSCMatrix(indptr, rows.astype(np.int64),
                         np.ascontiguousarray(self.features.T[by_col]),
                         self.features.shape[0])


def synthetic_trace(num_requests: int, num_features: int,
                    rate_rps: float, seed: int = 0,
                    missing_rate: float = 0.2) -> RequestTrace:
    """Seeded Poisson-arrival trace with Gaussian features.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps``; a
    ``missing_rate`` fraction of entries is blanked to ``NaN`` so the
    default-direction paths of the served model actually get traffic.
    """
    if rate_rps <= 0.0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_requests, num_features))
    if missing_rate > 0.0:
        features[rng.random(features.shape) < missing_rate] = np.nan
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, num_requests))
    return RequestTrace(features=features, arrivals=arrivals)


@dataclass
class RequestRecord:
    """Ledger entry for one served request (all times simulated)."""

    request_id: int
    arrival_s: float
    batch_id: int
    start_s: float
    completion_s: float
    worker: int
    model_version: int

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting before the batch started computing."""
        return self.start_s - self.arrival_s


@dataclass(frozen=True)
class DropRecord:
    """Ledger entry for one request dropped by the overload policy.

    ``reason`` is ``"reject"`` (drop-tail: the request was turned away
    at arrival) or ``"shed-oldest"`` (drop-head: it was admitted but
    evicted at ``drop_s`` to make room for a newer arrival).

    ``tenant`` and ``priority`` attribute the drop to the tenant that
    offered the request and its admission class (both 0 on
    single-tenant, unprioritized traces) — per-tenant drop rates in the
    scenario reports are computed from exactly these fields.
    """

    request_id: int
    arrival_s: float
    drop_s: float
    reason: str
    tenant: int = 0
    priority: int = 0

    @property
    def queued_s(self) -> float:
        """Time spent queued before the drop (0 for rejects)."""
        return self.drop_s - self.arrival_s


@dataclass
class BatchRecord:
    """One dispatched micro-batch."""

    batch_id: int
    size: int
    close_s: float
    start_s: float
    completion_s: float
    worker: int
    model_version: int


@dataclass(frozen=True)
class DispatchResult:
    """What a backend reports for one batch it executed."""

    start_s: float
    completion_s: float
    worker: int
    model_version: int
    scores: np.ndarray


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution and throughput of a finished run."""

    count: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    mean_queue_s: float
    throughput_rps: float
    makespan_s: float
    #: requests dropped by the overload policy (0 with an unbounded queue)
    dropped: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests dropped by the overload policy."""
        offered = self.count + self.dropped
        return self.dropped / offered if offered else 0.0

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord],
                     dropped: int = 0) -> "LatencyStats":
        if not records:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                       dropped=dropped)
        lat = np.array([r.latency_s for r in records])
        queue = np.array([r.queue_s for r in records])
        summary = percentile_summary(lat)
        makespan = max(r.completion_s for r in records)
        return cls(
            count=len(records),
            p50_s=summary["p50_s"], p95_s=summary["p95_s"],
            p99_s=summary["p99_s"],
            mean_s=summary["mean_s"], max_s=summary["max_s"],
            mean_queue_s=float(queue.mean()),
            throughput_rps=len(records) / makespan if makespan > 0
            else float("inf"),
            makespan_s=float(makespan),
            dropped=dropped,
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count, "p50_s": self.p50_s,
            "p95_s": self.p95_s, "p99_s": self.p99_s,
            "mean_s": self.mean_s, "max_s": self.max_s,
            "mean_queue_s": self.mean_queue_s,
            "throughput_rps": self.throughput_rps,
            "makespan_s": self.makespan_s,
            "dropped": self.dropped, "drop_rate": self.drop_rate,
        }


@dataclass
class ServingReport:
    """Full outcome of one :meth:`MicroBatcher.run`."""

    records: List[RequestRecord] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    #: requests dropped by the overload policy, in drop order
    dropped: List[DropRecord] = field(default_factory=list)
    #: per-request raw scores, ``(num_requests, gradient_dim)``;
    #: ``None`` unless the run collected them
    scores: Optional[np.ndarray] = None

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_records(self.records,
                                         dropped=len(self.dropped))

    def versions_served(self) -> List[int]:
        """Distinct model versions that served traffic, in first-use
        order — the hot-swap tests assert on this."""
        seen: List[int] = []
        for record in self.records:
            if record.model_version not in seen:
                seen.append(record.model_version)
        return seen

    def single_version_batches(self) -> bool:
        """No batch's requests were served by two model versions — the
        hot-swap atomicity audit, in one pass over the records."""
        version_of_batch: dict = {}
        for record in self.records:
            if version_of_batch.setdefault(
                    record.batch_id,
                    record.model_version) != record.model_version:
                return False
        return True


def billed_scores(score: Callable[[np.ndarray], np.ndarray],
                  features: np.ndarray,
                  service_model: Optional[Callable[[int], float]],
                  cache=None, version: int = 0) -> Tuple[np.ndarray, float]:
    """``(scores, service seconds)`` of one batch: ``score(features)``
    (through ``cache`` when given, which scores and bills only its
    misses), priced ``service_model(billable rows)`` or, without a
    service model, the scoring's wall clock.  Every serving backend
    bills here; it is the one place serving reads the wall clock."""
    began = time.perf_counter()
    if cache is None:
        scores, billable = score(features), features.shape[0]
    else:
        scores, billable = cache.serve(version, features, score)
    measured = time.perf_counter() - began
    if service_model is None:
        return scores, measured
    return scores, float(service_model(billable))


class ModelServer:
    """Single-worker serving backend.

    Wraps either a bare :class:`CompiledEnsemble` (version 0) or a
    :class:`~repro.serve.registry.ModelRegistry`, whose *active* version
    is resolved once per dispatched batch.  ``service_model`` maps a
    batch size to simulated service seconds; when omitted, the measured
    wall-clock of the compiled predictor is used (computation-is-real).

    ``cache`` (opt-in) is a :class:`~repro.serve.cache.PredictionCache`
    consulted per dispatched row; with a deterministic ``service_model``
    only the rows that *miss* are billed, so repeats get cheaper batches.
    """

    def __init__(self, model: Union[CompiledEnsemble, ModelRegistry],
                 service_model: Optional[Callable[[int], float]] = None,
                 cache=None) -> None:
        self._registry = model if isinstance(model, ModelRegistry) else None
        self._compiled = model if isinstance(model, CompiledEnsemble) \
            else None
        if self._registry is None and self._compiled is None:
            raise TypeError(
                "model must be a CompiledEnsemble or a ModelRegistry"
            )
        self.service_model = service_model
        self.cache = cache
        self._free_s = 0.0

    def resolve(self) -> Tuple[CompiledEnsemble, int]:
        """The (compiled model, version) serving right now."""
        if self._registry is not None:
            entry = self._registry.active
            return entry.compiled, entry.version
        return self._compiled, 0

    def next_free_s(self) -> float:
        """Earliest simulated time the next batch could start."""
        return self._free_s

    def dispatch(self, features: np.ndarray,
                 close_s: float) -> DispatchResult:
        compiled, version = self.resolve()
        scores, seconds = billed_scores(
            compiled.raw_scores, features, self.service_model,
            self.cache, version)
        start = max(close_s, self._free_s)
        self._free_s = start + seconds
        return DispatchResult(
            start_s=start, completion_s=self._free_s, worker=0,
            model_version=version, scores=scores,
        )


class MicroBatcher:
    """Replay a trace through a backend under a :class:`BatchPolicy`.

    The backend contract is two methods: ``next_free_s()`` (earliest
    simulated start for the next batch — used to keep collecting arrivals
    while all capacity is busy) and ``dispatch(features, close_s)``
    returning a :class:`DispatchResult`.  Both :class:`ModelServer` and
    :class:`~repro.serve.replica.ReplicaSet` satisfy it.  A backend that
    sets ``accepts_ids = True`` is additionally passed the request ids of
    each batch as ``dispatch(..., ids=...)`` — the deployment router uses
    them to join served scores with their delayed labels.
    """

    def __init__(self, backend, policy: Optional[BatchPolicy] = None
                 ) -> None:
        self.backend = backend
        self.policy = policy or BatchPolicy()
        self._pass_ids = bool(getattr(backend, "accepts_ids", False))

    def _dispatch(self, features: np.ndarray, close_s: float,
                  ids: np.ndarray) -> DispatchResult:
        if self._pass_ids:
            return self.backend.dispatch(features, close_s, ids=ids)
        return self.backend.dispatch(features, close_s)

    def run(self, trace: RequestTrace,
            swaps: Sequence[SwapEvent] = (),
            collect_scores: bool = False) -> ServingReport:
        """Serve every request of ``trace``; returns the full ledger.

        ``swaps`` schedules hot-swap actions on the simulated clock:
        each ``(time_s, action)`` fires once, just before the first batch
        that closes at or after ``time_s`` resolves its model — so a
        swap lands exactly on a batch boundary and no batch straddles
        two versions.

        With a bounded queue (``policy.max_queue > 0``) batches form on
        the admission-controlled path: overflowing requests are dropped
        per ``policy.overload`` and appear in ``report.dropped``.
        """
        arrivals = trace.arrivals
        pending_swaps = sorted(swaps, key=lambda s: s[0])
        report = ServingReport()
        scores: List[np.ndarray] = []
        swap_i = 0
        batches = (self._bounded_batches(trace, report)
                   if self.policy.bounded else self._batches(trace))
        for features, ids, close in batches:
            while swap_i < len(pending_swaps) \
                    and pending_swaps[swap_i][0] <= close:
                when, action = pending_swaps[swap_i]
                action(when)
                swap_i += 1
            result = self._dispatch(features, close, ids)
            served = dict(
                batch_id=len(report.batches), start_s=result.start_s,
                completion_s=result.completion_s, worker=result.worker,
                model_version=result.model_version,
            )
            report.batches.append(BatchRecord(
                size=ids.size, close_s=close, **served))
            report.records.extend(
                RequestRecord(request_id=request, arrival_s=arrival,
                              **served)
                for request, arrival in zip(ids.tolist(),
                                            arrivals[ids].tolist()))
            if collect_scores:
                scores.append(result.scores)
        # late swaps (after the last close) still fire so a scheduled
        # deploy is never silently skipped
        for when, action in pending_swaps[swap_i:]:
            action(when)
        if collect_scores:
            report.scores = (np.concatenate(scores, axis=0) if scores
                             else np.zeros((0, 0)))
        return report

    def _batches(self, trace: RequestTrace) -> Iterator[Batch]:
        """Unbounded queue: batches are consecutive runs of the trace."""
        policy = self.policy
        arrivals = trace.arrivals
        total = trace.num_requests
        i = 0
        while i < total:
            first = arrivals[i]
            # the batch closes when full, when the oldest request times
            # out, or when capacity frees up — whichever is latest of
            # (earliest of the first two) and the free time, so queues
            # keep absorbing arrivals while every worker is busy
            if i + policy.max_batch_size <= total:
                full_s = arrivals[i + policy.max_batch_size - 1]
            else:
                full_s = np.inf
            close = min(first + policy.max_delay_s, full_s)
            close = max(close, first, self.backend.next_free_s())
            size = min(
                int(np.searchsorted(arrivals, close, side="right")) - i,
                policy.max_batch_size,
            )
            yield (trace.features[i:i + size],
                   np.arange(i, i + size, dtype=np.int64), float(close))
            i += size

    def _bounded_batches(self, trace: RequestTrace,
                         report: ServingReport) -> Iterator[Batch]:
        """Admission-controlled batching: a queue of at most
        ``max_queue`` requests, overflow resolved by the overload policy
        and written to ``report.dropped``.

        Requests are admitted at their arrival instant.  A full queue
        either turns the newcomer away (``reject``) or evicts a queued
        victim (``shed-oldest``).  Shedding is class-aware: the victim
        is the *oldest request of the lowest priority class queued* — so
        a higher-priority request is never dropped while a
        lower-priority one sits in the queue — and a newcomer below
        every queued class is refused rather than admitted over
        anyone's head; an unprioritized trace is one class, which makes
        that plain drop-head.  Evicting the head restarts the delay
        budget from the new head, so a shedding queue under sustained
        overload keeps dispatching full, fresh batches.  Batches come in
        dispatch order (with shedding this is not request order);
        ``report.scores`` rows align with it.

        The queue is kept twice: ``backlog`` in arrival order (what a
        batch is cut from) and one arrival-ordered deque per priority
        class (whose lowest non-empty head is the victim, found without
        scanning the backlog).  A batch takes the oldest queued ids, so
        each of them is the head of its class deque when it leaves.
        """
        policy = self.policy
        total = trace.num_requests
        # read once as Python lists: the loop below touches single
        # elements, where numpy scalar indexing costs more than the work
        arrivals = trace.arrivals.tolist()
        tenants = ([0] * total if trace.tenants is None
                   else trace.tenants.tolist())
        priorities = ([0] * total if trace.priorities is None
                      else trace.priorities.tolist())
        # class -> its queued ids, oldest first; iterates lowest class first
        queue_of = {c: deque() for c in sorted(set(priorities))}
        shed = policy.overload == "shed-oldest"
        backlog: List[int] = []
        i = 0
        # asked once per batch, not per admission event: backend free
        # time (and a router's serve pool) only changes at a dispatch or
        # a swap, and both happen while this generator is suspended
        free = self.backend.next_free_s()
        while i < total or backlog:
            if not backlog:
                backlog.append(i)
                queue_of[priorities[i]].append(i)
                i += 1
            if len(backlog) >= policy.max_batch_size:
                # a full batch closes as soon as capacity frees (its
                # fill arrival is necessarily in the past)
                close = max(arrivals[backlog[policy.max_batch_size - 1]],
                            free)
            else:
                close = max(arrivals[backlog[0]] + policy.max_delay_s,
                            free)
            if i < total and arrivals[i] <= close:
                # the next arrival lands before this batch dispatches:
                # an admission event — the queue absorbs it while there
                # is room, otherwise the overload policy picks a victim
                now = arrivals[i]
                if len(backlog) < policy.max_queue:
                    backlog.append(i)
                    queue_of[priorities[i]].append(i)
                else:
                    # the lowest class queued (a full queue holds someone)
                    lowest, queued = next(
                        entry for entry in queue_of.items() if entry[1])
                    if shed and priorities[i] >= lowest:
                        victim = queued.popleft()
                        backlog.remove(victim)
                        report.dropped.append(DropRecord(
                            victim, arrivals[victim], now, "shed-oldest",
                            tenant=tenants[victim], priority=lowest))
                        backlog.append(i)
                        queue_of[priorities[i]].append(i)
                    else:
                        # drop-tail — by policy, or because the newcomer
                        # is strictly the lowest admission class present
                        # and is turned away instead of evicting anyone
                        # more important
                        report.dropped.append(DropRecord(
                            i, now, now, "reject", tenant=tenants[i],
                            priority=priorities[i]))
                i += 1
                continue
            size = min(len(backlog), policy.max_batch_size)
            batch_ids = backlog[:size]
            del backlog[:size]
            for request in batch_ids:
                queue_of[priorities[request]].popleft()
            yield (trace.features[batch_ids],
                   np.asarray(batch_ids, dtype=np.int64), float(close))
            free = self.backend.next_free_s()
