"""Micro-batching request scheduler on the simulated clock.

Serving traffic arrives one request at a time; the compiled predictor is
fastest on large batches.  The :class:`MicroBatcher` bridges the two with
the classic policy pair: a batch dispatches when it reaches
``max_batch_size`` requests **or** when its oldest request has waited
``max_delay_s``, whichever comes first.  Following the repo's simulation
discipline (computation real, coordination simulated), time is a simulated
clock driven by the trace's arrival process.  A batch's *service* time
is a deterministic ``service_model(rows)``, so its scores never move the
schedule: each model version's rows collect in a :class:`ScoreBook`,
which scores them a walk block at a time.  A fleet without a service
model scores each batch as it dispatches and bills that call's wall
clock instead.

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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Integral
from typing import (Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.kernels import walk_block_rows
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
    :class:`LatencyStats`.  Sizes must be integers and ``max_delay_s``
    finite; anything else raises ``ValueError`` naming the field.
    """

    max_batch_size: int = 64
    max_delay_s: float = 0.002
    max_queue: int = 0
    overload: str = "reject"

    def __post_init__(self) -> None:
        for name in ("max_batch_size", "max_queue"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not (0.0 <= self.max_delay_s < float("inf")):
            raise ValueError("max_delay_s must be finite and >= 0")
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

    def csc(self, ids: Optional[np.ndarray] = None):
        """The trace rows (the requests ``ids``, in that order, when
        given) as a :class:`~repro.data.matrix.CSCMatrix`.

        Non-``NaN`` entries become stored entries — the format
        ``TreeEnsemble.raw_scores`` consumes, used by the bench's naive
        baseline and the exactness checks.  (A dense trace cannot carry a
        *stored* exact zero; synthetic Gaussian traces never hit one.)
        """
        from ..data.matrix import CSCMatrix

        features = self.features if ids is None else self.features[ids]
        # one contiguous copy per column: scanning a strided transpose
        # costs twice as much
        columns = np.ascontiguousarray(features.T)
        rows = [np.flatnonzero(~np.isnan(column)).astype(np.int32)
                for column in columns]
        values = [column[r] for column, r in zip(columns, rows)]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        # the leading empty pieces type a trace without columns
        return CSCMatrix(indptr,
                         np.concatenate([np.zeros(0, np.int32)] + rows),
                         np.concatenate([np.zeros(0)] + values),
                         features.shape[0])


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


class ScoreBook:
    """The served scores of one model version, scored a block at a time.

    :meth:`append` copies a batch's rows into the book's pending block
    and returns their positions in the book.  The book runs one
    ``compiled.raw_scores`` call over every pending row when one of
    them is :meth:`read`, or when they fill the block — one compiler
    walk block of rows (:func:`~repro.core.kernels.walk_block_rows`,
    about 2 MB) — so it holds at most one block of rows.  A row's score
    depends on that row alone, so a book reads bit for bit what one call
    per batch returns.  Scores stay in the book for its life.
    """

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self._block = np.empty((0, 0))     # pending rows, then room
        self._pending = 0
        self._scores = np.empty((0, compiled.gradient_dim))
        self._scored = 0

    def __len__(self) -> int:
        """Rows appended so far, scored or pending."""
        return self._scored + self._pending

    def append(self, rows: np.ndarray) -> np.ndarray:
        """Book a dense batch; returns its rows' positions."""
        first = len(self)
        width = rows.shape[1]
        if not self._block.shape[0] or self._block.shape[1] != width:
            self.flush()
            self._block = np.empty((walk_block_rows(width), width))
        done = 0
        while done < rows.shape[0]:
            take = min(rows.shape[0] - done,
                       self._block.shape[0] - self._pending)
            self._block[self._pending:self._pending + take] = \
                rows[done:done + take]
            self._pending += take
            done += take
            if self._pending == self._block.shape[0]:
                self.flush()
        return np.arange(first, first + rows.shape[0], dtype=np.int64)

    def flush(self) -> None:
        """Score every pending row in one predictor call."""
        if not self._pending:
            return
        scores = self.compiled.raw_scores(self._block[:self._pending])
        self._pending = 0
        end = self._scored + scores.shape[0]
        if end > self._scores.shape[0]:
            grown = np.empty((max(end, 2 * self._scores.shape[0]),
                              self._scores.shape[1]))
            grown[:self._scored] = self._scores[:self._scored]
            self._scores = grown
        self._scores[self._scored:end] = scores
        self._scored = end

    def read(self, positions: np.ndarray) -> np.ndarray:
        """Scores of the rows at ``positions`` (pending rows are scored
        first when one of them is asked for)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and positions.max() >= self._scored:
            self.flush()
        if positions.size and not (0 <= positions.min()
                                   and positions.max() < self._scored):
            raise IndexError(f"score book holds {self._scored} rows; "
                             "a position is out of range")
        return self._scores[positions]


def read_scores(books: Sequence[ScoreBook], owner: np.ndarray,
                positions: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``books[owner[i]]``'s score at ``positions[i]``;
    each distinct book is read once."""
    distinct = list(dict.fromkeys(books))
    if not distinct:
        return np.zeros((0, 0))
    slot = np.array([distinct.index(book) for book in books])[owner]
    scores = np.empty((positions.size, distinct[0].compiled.gradient_dim))
    for k, book in enumerate(distinct):
        mask = slot == k
        scores[mask] = book.read(positions[mask])
    return scores


@dataclass(frozen=True)
class DispatchResult:
    """What a backend reports for one batch it executed: its schedule,
    and where its scores are — ``positions`` in ``book``."""

    start_s: float
    completion_s: float
    worker: int
    model_version: int
    book: ScoreBook
    positions: np.ndarray

    @property
    def scores(self) -> np.ndarray:
        """The batch's raw scores, read from its book."""
        return self.book.read(self.positions)


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


def billed_scores(book: ScoreBook, features: np.ndarray,
                  service_model: Optional[Callable[[int], float]],
                  cache=None, version: int = 0) -> Tuple[np.ndarray, float]:
    """``(positions in book, service seconds)`` of one batch: its rows
    go into ``book`` (through ``cache`` when given, which books and
    bills only its misses), priced ``service_model(billable rows)``.
    Without a service model the book scores the batch here, inside the
    timed region, so the wall clock billed is that batch's own scoring.
    Every serving backend bills here; it is the one place serving reads
    the wall clock."""
    began = time.perf_counter()
    if cache is None:
        positions, billable = book.append(features), features.shape[0]
    else:
        positions, billable = cache.serve(version, features, book)
    if service_model is not None:
        return positions, float(service_model(billable))
    book.flush()
    return positions, time.perf_counter() - began


class MicroBatcher:
    """Replay a trace through a backend under a :class:`BatchPolicy`.

    The backend contract is two methods: ``next_free_s()`` (earliest
    simulated start for the next batch — used to keep collecting arrivals
    while all capacity is busy) and ``dispatch(features, close_s)``
    returning a :class:`DispatchResult` (the batch's schedule and its
    positions in a :class:`ScoreBook`).  The serving fleet,
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
        appended once per batch and joined into columns at the end;
        with ``collect_scores`` the batches' book positions are read
        then too, so ``report.scores`` rows line up with the request
        columns.
        """
        pending_swaps = sorted(swaps, key=lambda s: s[0])
        drops: Dict[str, list] = {name: [] for name in DROP_COLUMNS}
        batch_rows: List[tuple] = []
        id_chunks: List[np.ndarray] = []
        books: List[ScoreBook] = []
        positions: List[np.ndarray] = []
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
                books.append(result.book)
                positions.append(result.positions)
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
            report.scores = read_scores(
                books, report.request_batch,
                np.concatenate(positions) if positions
                else np.zeros(0, dtype=np.int64))
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

        The queue is one arrival-ordered deque per priority class: the
        lowest non-empty class's head is the shed victim, and a batch
        takes the ``size`` oldest ids across the class heads.  Each loop
        turn handles one event under one ``close``.  While the queue has
        room, every arrival up to ``close`` is admitted as one run (a
        bisect: arrivals are nondecreasing).  A run may carry past the
        arrival that fills the batch; the extras are newer than the
        batch, so its ids and close stay as they are, and each is within
        the delay budget of every later head, so admitting one arrival
        at a time would queue them all the same, before any later
        arrival, and cut the same batches.  With the queue full, every
        arrival up to ``close`` is an overload event and none moves
        ``close``: each queued arrival is at or before the newcomer,
        which is at or before ``close``, and an eviction only shifts
        such an arrival into position ``max_batch_size - 1``.
        """
        policy = self.policy
        full = policy.max_batch_size
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

        def oldest(k: int) -> List[int]:
            """The ``k`` oldest queued ids, oldest first."""
            heads = [list(islice(q, k)) for q in queue_of.values() if q]
            return heads[0] if len(heads) == 1 else \
                sorted(chain.from_iterable(heads))[:k]

        queued = i = 0
        # asked once per batch, not per admission event: backend free
        # time (and a router's serve pool) only changes at a dispatch or
        # a swap, and both happen while this generator is suspended
        free = self.backend.next_free_s()
        while i < total or queued:
            filling = queued < full
            if filling:     # the head's delay budget; i heads an empty queue
                head = oldest(1)[0] if queued else i
                close = max(arrivals[head] + policy.max_delay_s, free)
            else:           # a full batch closes as soon as capacity frees
                close = max(arrivals[oldest(full)[-1]], free)
            # the queue admits the arrivals up to close while it has room
            end = bisect_right(arrivals, close, i)
            stop = min(end, i + room - queued)
            for j in range(i, stop):
                queue_of[priorities[j]].append(j)
            queued += stop - i
            i = stop
            if filling and queued >= full:
                continue        # the batch filled: its close comes forward
            for j in range(i, end):
                # a full queue drops the newcomer, or sheds the oldest of
                # the lowest class queued if the newcomer is not below it
                dropped, reason = j, "reject"
                if shed:
                    for lowest, victims in queue_of.items():
                        if victims:
                            break
                    if priorities[j] >= lowest:
                        dropped, reason = victims.popleft(), "shed-oldest"
                        queue_of[priorities[j]].append(j)
                drop_id.append(dropped)
                drop_s.append(arrivals[j])
                drop_reason.append(reason)
                drop_tenant.append(tenants[dropped])
                drop_priority.append(priorities[dropped])
            i = end
            batch = oldest(min(queued, full))
            for request in batch:
                queue_of[priorities[request]].popleft()
            queued -= len(batch)
            ids = np.asarray(batch, dtype=np.int64)
            yield trace.features.take(ids, axis=0), ids, float(close)
            free = self.backend.next_free_s()
