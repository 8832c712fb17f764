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

The run's ledger is a :class:`ServingReport` of columns: one row per
batch (close, dispatch start, completion, worker, model version), one
per served request (id, batch index, arrival) and one per drop, each
fact stored once; :class:`LatencyStats` summarizes it (p50/p95/p99/mean/
max latency plus throughput).
The model version of a batch is resolved exactly once at dispatch, and
swap actions (a fleet deploy) fire only between batches — that is what
makes a hot-swap atomic from the traffic's point of view: each request
is served by exactly one version, and the swap falls on a batch
boundary.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..ledger import percentile_summary

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
    default: a queue no trace fills, run by the same admission loop as
    any bound).  When offered load exceeds capacity a bounded queue fills
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


#: the per-batch columns of a :class:`ServingReport`; row ``b`` is batch ``b``
BATCH_COLUMNS = ("batch_size", "batch_close_s", "batch_start_s",
                 "batch_completion_s", "batch_worker", "batch_version")

#: the per-request columns of a :class:`ServingReport`, in dispatch order
REQUEST_COLUMNS = ("request_id", "request_batch", "request_arrival_s")

#: the per-drop columns of a :class:`ServingReport`, in drop order
DROP_COLUMNS = ("drop_id", "drop_s", "drop_reason", "drop_tenant",
                "drop_priority")


@dataclass
class ServingReport:
    """Full outcome of one :meth:`MicroBatcher.run`, as columns that
    store each fact once (all times simulated seconds):

    * **per batch**, the row index being the batch id: its size, the
      instant it closed, its start and completion, the worker that
      served it and the model version it was served by;
    * **per served request**, in dispatch order: its id, the index of
      its batch and its arrival — start, completion and version are
      read through the batch index;
    * **per drop**, in drop order: the request id, the drop instant,
      the reason (``"reject"``: turned away at arrival; ``"shed-oldest"``:
      evicted from the queue to admit a newer arrival), and the tenant
      and admission priority it belonged to (0 on single-tenant,
      unprioritized traces).

    ``offered`` counts the requests the trace offered.  Any sequence is
    accepted for a column and stored as a numpy array: float64 for the
    ``_s`` columns (seconds), ``str`` for ``drop_reason``, int64 for
    the rest.
    """

    batch_size: np.ndarray = ()
    batch_close_s: np.ndarray = ()
    batch_start_s: np.ndarray = ()
    batch_completion_s: np.ndarray = ()
    batch_worker: np.ndarray = ()
    batch_version: np.ndarray = ()
    request_id: np.ndarray = ()
    request_batch: np.ndarray = ()
    request_arrival_s: np.ndarray = ()
    drop_id: np.ndarray = ()
    drop_s: np.ndarray = ()
    drop_reason: np.ndarray = ()
    drop_tenant: np.ndarray = ()
    drop_priority: np.ndarray = ()
    offered: int = 0
    #: per-request raw scores, ``(served, gradient_dim)``, rows aligned
    #: with the request columns; ``None`` unless the run collected them
    scores: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in BATCH_COLUMNS + REQUEST_COLUMNS + DROP_COLUMNS:
            dtype = (np.float64 if name.endswith("_s")
                     else str if name == "drop_reason" else np.int64)
            setattr(self, name, np.asarray(getattr(self, name), dtype))

    @property
    def latency_s(self) -> np.ndarray:
        """Per served request: its batch's completion minus its
        arrival."""
        return self.batch_completion_s[self.request_batch] \
            - self.request_arrival_s

    @property
    def request_version(self) -> np.ndarray:
        """Per served request: the model version of its batch."""
        return self.batch_version[self.request_batch]

    def latency_stats(self) -> LatencyStats:
        dropped = self.drop_id.size
        count = self.request_id.size
        if not count:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                dropped=dropped)
        summary = percentile_summary(self.latency_s)
        queue = self.batch_start_s[self.request_batch] \
            - self.request_arrival_s
        makespan = float(self.batch_completion_s.max())
        return LatencyStats(
            count=count,
            p50_s=summary["p50_s"], p95_s=summary["p95_s"],
            p99_s=summary["p99_s"],
            mean_s=summary["mean_s"], max_s=summary["max_s"],
            mean_queue_s=float(queue.mean()),
            throughput_rps=count / makespan if makespan > 0
            else float("inf"),
            makespan_s=makespan,
            dropped=dropped,
        )

    def versions_served(self) -> List[int]:
        """Distinct model versions that served traffic, in first-use
        order — the hot-swap tests assert on this."""
        _, first = np.unique(self.batch_version, return_index=True)
        return self.batch_version[np.sort(first)].tolist()

    def single_version_batches(self) -> bool:
        """The request -> batch join is well formed: every served
        request names one existing batch and each batch holds exactly
        its size in requests.  The version is stored once per batch, so
        a well-formed join serves each batch by one version."""
        batch = self.request_batch
        if batch.size and not (0 <= batch.min()
                               and batch.max() < self.batch_size.size):
            return False
        return bool(np.array_equal(
            np.bincount(batch, minlength=self.batch_size.size),
            self.batch_size))

    def exactly_once(self) -> bool:
        """Conservation: every request id in ``0 .. offered - 1``
        appears exactly once across the served and dropped columns."""
        ids = np.concatenate((self.request_id, self.drop_id))
        if ids.size and not (0 <= ids.min()
                             and ids.max() < self.offered):
            return False
        return bool((np.bincount(ids, minlength=self.offered) == 1).all())


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


class MicroBatcher:
    """Replay a trace through a backend under a :class:`BatchPolicy`.

    The backend contract is two methods: ``next_free_s()`` (earliest
    simulated start for the next batch — used to keep collecting arrivals
    while all capacity is busy) and ``dispatch(features, close_s)``
    returning a :class:`DispatchResult`.  The serving fleet,
    :class:`~repro.serve.replica.ReplicaSet`, satisfies it; a one-worker
    fleet is the single-model server.  A backend that sets
    ``accepts_ids = True`` is additionally passed the request ids of each
    batch as ``dispatch(..., ids=...)`` — the deployment router uses them
    to join served scores with their delayed labels.
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

        Every policy forms its batches in one admission loop
        (:meth:`_batches`): requests that overflow a bounded queue are
        dropped per ``policy.overload`` and appear in the report's drop
        columns; an unbounded queue drops nobody.  The ledger is
        appended once per batch and joined into columns at the end, so
        ``report.scores`` rows line up with the request columns.
        """
        pending_swaps = sorted(swaps, key=lambda s: s[0])
        drops: Dict[str, list] = {name: [] for name in DROP_COLUMNS}
        batch_rows: List[tuple] = []
        id_chunks: List[np.ndarray] = []
        scores: List[np.ndarray] = []
        swap_i = 0
        for features, ids, close in self._batches(trace, drops):
            while swap_i < len(pending_swaps) \
                    and pending_swaps[swap_i][0] <= close:
                when, action = pending_swaps[swap_i]
                action(when)
                swap_i += 1
            result = self._dispatch(features, close, ids)
            batch_rows.append((ids.size, close, result.start_s,
                               result.completion_s, result.worker,
                               result.model_version))
            id_chunks.append(ids)
            if collect_scores:
                scores.append(result.scores)
        # late swaps (after the last close) still fire so a scheduled
        # deploy is never silently skipped
        for when, action in pending_swaps[swap_i:]:
            action(when)
        request_id = (np.concatenate(id_chunks) if id_chunks
                      else np.zeros(0, dtype=np.int64))
        columns = dict(zip(BATCH_COLUMNS, zip(*batch_rows)))
        report = ServingReport(
            **columns, **drops,
            request_id=request_id,
            request_batch=np.repeat(np.arange(len(batch_rows)),
                                    columns.get("batch_size", ())),
            request_arrival_s=trace.arrivals[request_id],
            offered=trace.num_requests)
        if collect_scores:
            report.scores = (np.concatenate(scores, axis=0) if scores
                             else np.zeros((0, 0)))
        return report

    def _batches(self, trace: RequestTrace,
                 drops: Dict[str, list]) -> Iterator[Batch]:
        """The one batch former: a queue of at most ``max_queue``
        requests, overflow resolved by the overload policy and appended
        to ``drops``, one list per name in :data:`DROP_COLUMNS`.  An
        unbounded policy (``max_queue = 0``) is a queue that holds the
        whole trace, so it never overflows and never drops.

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
        room = policy.max_queue or total
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
        drop_id, drop_s, drop_reason, drop_tenant, drop_priority = (
            drops[name] for name in DROP_COLUMNS)
        backlog: Deque[int] = deque()
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
                if len(backlog) < room:
                    backlog.append(i)
                    queue_of[priorities[i]].append(i)
                else:
                    # the lowest class queued (a full queue holds someone)
                    lowest, queued = next(
                        entry for entry in queue_of.items() if entry[1])
                    if shed and priorities[i] >= lowest:
                        dropped, reason = queued.popleft(), "shed-oldest"
                        backlog.remove(dropped)
                        backlog.append(i)
                        queue_of[priorities[i]].append(i)
                    else:
                        # drop-tail — by policy, or because the newcomer
                        # is strictly the lowest admission class present
                        # and is turned away instead of evicting anyone
                        # more important
                        dropped, reason = i, "reject"
                    drop_id.append(dropped)
                    drop_s.append(now)
                    drop_reason.append(reason)
                    drop_tenant.append(tenants[dropped])
                    drop_priority.append(priorities[dropped])
                i += 1
                continue
            size = min(len(backlog), policy.max_batch_size)
            batch_ids = [backlog.popleft() for _ in range(size)]
            for request in batch_ids:
                queue_of[priorities[request]].popleft()
            ids = np.asarray(batch_ids, dtype=np.int64)
            yield trace.features.take(ids, axis=0), ids, float(close)
            free = self.backend.next_free_s()
