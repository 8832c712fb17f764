"""Micro-batcher tests: policy triggers, simulated schedules, ledgers.

All scheduling tests use a deterministic service function so every
simulated timestamp is computable by hand.  They run on
:class:`~tests.serve.reference_batcher.FixedServiceServer`, a worker that
is free at t=0; the hot-swap and measured-billing tests run on a
one-worker :class:`~repro.serve.replica.ReplicaSet`, the single-model
server.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                         ReplicaSet, RequestTrace, compile_ensemble,
                         synthetic_trace)
from repro.serve.batcher import (BATCH_COLUMNS, DROP_COLUMNS,
                                 REQUEST_COLUMNS, ServingReport)

from .reference_batcher import (FixedServiceServer, SimulatedWorker,
                                reference_bounded_batches,
                                reference_ledger)


def trace_at(times, num_features=3):
    """A trace with hand-placed arrival times and arange features."""
    times = np.asarray(times, dtype=np.float64)
    features = np.arange(
        times.size * num_features, dtype=np.float64
    ).reshape(times.size, num_features)
    return RequestTrace(features=features, arrivals=times)


@pytest.fixture(scope="module")
def model(small_binary):
    cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    return GBDT(cfg).fit(small_binary).ensemble


@pytest.fixture(scope="module")
def compiled(model):
    return compile_ensemble(model)


def drops(report, *columns):
    """The named drop columns of ``report``, zipped into rows."""
    return list(zip(*(getattr(report, name).tolist()
                      for name in columns)))


def server(compiled, per_batch=0.001, per_row=0.0):
    return FixedServiceServer(compiled, lambda k: per_batch + per_row * k)


def one_worker(registry, service_model=None):
    """The single-model server: a one-worker fleet, deployed at t=0."""
    fleet = ReplicaSet(registry, ClusterConfig(num_workers=1),
                       service_model=service_model)
    fleet.deploy()
    return fleet


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="max_delay"):
            BatchPolicy(max_delay_s=-1.0)
        with pytest.raises(ValueError, match="max_delay"):
            BatchPolicy(max_delay_s=float("nan"))

    def test_integral_batch_size(self):
        # a float size used to crash deep in the admission loop
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=4.0)
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=True)

    def test_integral_queue_bound(self):
        # 8.5 used to act as a 9-slot queue
        with pytest.raises(ValueError, match="max_queue"):
            BatchPolicy(max_batch_size=4, max_queue=8.5)
        with pytest.raises(ValueError, match="max_queue"):
            BatchPolicy(max_batch_size=1, max_queue=True)

    def test_finite_delay(self):
        # an infinite budget closed the last batch at inf
        with pytest.raises(ValueError, match="max_delay_s"):
            BatchPolicy(max_delay_s=float("inf"))

    def test_numpy_integers_accepted(self):
        policy = BatchPolicy(max_batch_size=np.int64(4),
                             max_queue=np.int32(8), max_delay_s=0)
        assert (policy.max_batch_size, policy.max_queue) == (4, 8)


class TestTrace:
    def test_synthetic_trace_seeded(self):
        a = synthetic_trace(50, 8, rate_rps=100.0, seed=4)
        b = synthetic_trace(50, 8, rate_rps=100.0, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        assert np.isnan(a.features).any()
        assert np.all(np.diff(a.arrivals) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            RequestTrace(features=np.zeros((2, 1)),
                         arrivals=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="one arrival"):
            RequestTrace(features=np.zeros((2, 1)),
                         arrivals=np.zeros(3))
        with pytest.raises(ValueError, match="rate_rps"):
            synthetic_trace(5, 2, rate_rps=0.0)

    def test_csc_round_trip(self):
        trace = synthetic_trace(40, 6, rate_rps=10.0, seed=9,
                                missing_rate=0.5)
        csc = trace.csc()
        dense = np.full(trace.features.shape, np.nan)
        for j in range(csc.num_cols):
            rows, vals = csc.col(j)
            dense[rows, j] = vals
        np.testing.assert_array_equal(dense, trace.features)


class TestBatchFormation:
    def test_full_batch_dispatches_at_capacity(self, compiled):
        # four arrivals in a burst, max_batch=2 -> two batches of 2
        trace = trace_at([0.0, 0.0, 0.0, 0.0])
        report = MicroBatcher(
            server(compiled), BatchPolicy(2, max_delay_s=10.0)
        ).run(trace)
        assert report.batch_size.tolist() == [2, 2]
        # first closes immediately; second waits for the server
        assert report.batch_start_s[0] == 0.0
        assert report.batch_start_s[1] == pytest.approx(0.001)

    def test_delay_timeout_flushes_partial_batch(self, compiled):
        trace = trace_at([0.0, 0.004])
        report = MicroBatcher(
            server(compiled), BatchPolicy(64, max_delay_s=0.002)
        ).run(trace)
        assert report.batch_size.tolist() == [1, 1]
        assert report.batch_close_s[0] == pytest.approx(0.002)
        assert report.batch_close_s[1] == pytest.approx(0.006)

    def test_queue_absorbs_arrivals_while_busy(self, compiled):
        # server busy 10ms; everything arriving meanwhile joins batch 2
        trace = trace_at([0.0, 0.001, 0.002, 0.009])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(64, max_delay_s=0.0005),
        ).run(trace)
        assert report.batch_size.tolist() == [1, 3]
        # batch 1 closed at 0.5ms and ran 10ms; batch 2 starts then
        assert report.batch_start_s[1] == pytest.approx(0.0105)

    def test_zero_delay_still_serves_simultaneous_arrivals(self,
                                                           compiled):
        trace = trace_at([0.0, 0.0, 0.5])
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, max_delay_s=0.0)
        ).run(trace)
        assert report.batch_size.tolist() == [2, 1]

    def test_empty_trace(self, compiled):
        trace = trace_at([])
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, 0.001)
        ).run(trace, collect_scores=True)
        assert report.request_id.size == report.batch_size.size == 0
        assert report.scores.size == 0
        assert report.versions_served() == []
        assert report.single_version_batches() and report.exactly_once()

    def test_every_request_served_once(self, compiled):
        trace = synthetic_trace(300, compiled.num_features,
                                rate_rps=5000.0, seed=3)
        report = MicroBatcher(
            server(compiled, per_row=1e-6), BatchPolicy(32, 0.002)
        ).run(trace)
        assert sorted(report.request_id.tolist()) == list(range(300))
        assert report.batch_size.sum() == 300
        assert report.exactly_once()


class TestLedger:
    def test_latency_decomposition(self, compiled):
        trace = trace_at([0.0, 0.004])
        report = MicroBatcher(
            server(compiled), BatchPolicy(64, max_delay_s=0.002)
        ).run(trace)
        assert report.batch_start_s[report.request_batch[0]] \
            - report.request_arrival_s[0] == pytest.approx(0.002)
        assert report.latency_s[0] == pytest.approx(0.003)
        stats = report.latency_stats()
        assert stats.count == 2
        assert stats.p50_s <= stats.p95_s <= stats.p99_s <= stats.max_s
        assert stats.throughput_rps > 0
        assert set(stats.to_dict()) >= {"p50_s", "p99_s",
                                        "throughput_rps"}

    def test_empty_stats(self):
        stats = ServingReport().latency_stats()
        assert stats.count == 0 and stats.p99_s == 0.0

    def test_collected_scores_match_direct_prediction(self, model,
                                                      compiled):
        trace = synthetic_trace(100, compiled.num_features,
                                rate_rps=2000.0, seed=5)
        report = MicroBatcher(
            server(compiled), BatchPolicy(16, 0.001)
        ).run(trace, collect_scores=True)
        np.testing.assert_array_equal(
            report.scores, model.raw_scores(trace.csc())
        )


class TestHotSwap:
    def test_swap_lands_on_batch_boundary(self, small_binary, model):
        registry = ModelRegistry()
        registry.publish(model)
        half = GBDT(TrainConfig(num_trees=1, num_layers=4,
                                num_candidates=8))
        registry.publish(half.fit(small_binary).ensemble)
        trace = synthetic_trace(
            200, registry.active.compiled.num_features,
            rate_rps=5000.0, seed=6,
        )
        swap_at = float(trace.arrivals[100])
        backend = one_worker(registry, service_model=lambda k: 1e-4)
        report = MicroBatcher(backend, BatchPolicy(16, 0.001)).run(
            trace, swaps=[(swap_at, backend.deployer(2))]
        )
        assert report.versions_served() == [1, 2]
        assert report.single_version_batches()
        # the swap splits traffic in two contiguous version runs
        versions = report.request_version.tolist()
        flip = versions.index(2)
        assert all(v == 1 for v in versions[:flip])
        assert all(v == 2 for v in versions[flip:])

    def test_late_swap_still_fires(self, compiled):
        fired = []
        trace = trace_at([0.0])
        MicroBatcher(
            server(compiled, per_batch=1e-4), BatchPolicy(4, 0.001),
        ).run(trace, swaps=[(99.0, fired.append)])
        assert fired == [99.0]


class TestBoundedQueue:
    """Admission control: a bounded backlog with reject/shed policies."""

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            BatchPolicy(8, 0.001, max_queue=-1)
        with pytest.raises(ValueError, match="at least one full batch"):
            BatchPolicy(8, 0.001, max_queue=4)
        with pytest.raises(ValueError, match="overload"):
            BatchPolicy(8, 0.001, max_queue=8, overload="panic")

    def test_reject_drops_newcomers(self, compiled):
        # batch [0] dispatches at 0.5ms and serves for 10ms; 1 and 2
        # fill the 2-slot queue; 3 and 4 arrive against a full queue
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="reject"),
        ).run(trace)
        assert sorted(report.request_id.tolist()) == [0, 1, 2]
        assert drops(report, "drop_id", "drop_reason") == \
            [(3, "reject"), (4, "reject")]
        # a rejected request never waits: dropped on arrival
        assert (report.drop_s == trace.arrivals[report.drop_id]).all()

    def test_shed_oldest_keeps_freshest(self, compiled):
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        # 3 evicts 1, 4 evicts 2: the freshest requests get served
        assert sorted(report.request_id.tolist()) == [0, 3, 4]
        assert drops(report, "drop_id", "drop_reason") == \
            [(1, "shed-oldest"), (2, "shed-oldest")]
        # request 1 queued from 1ms until evicted at 3ms
        assert report.drop_s[0] - trace.arrivals[1] == pytest.approx(0.002)

    def test_drop_rate_in_ledger(self, compiled):
        trace = synthetic_trace(300, compiled.num_features,
                                rate_rps=50_000.0, seed=3)
        report = MicroBatcher(
            server(compiled, per_batch=0.005),
            BatchPolicy(16, 0.001, max_queue=32, overload="reject"),
        ).run(trace, collect_scores=True)
        stats = report.latency_stats()
        assert stats.dropped == report.drop_id.size > 0
        assert stats.count + stats.dropped == 300
        assert stats.drop_rate == pytest.approx(stats.dropped / 300)
        assert stats.to_dict()["drop_rate"] == stats.drop_rate
        # scores align with what was actually served
        assert report.scores.shape[0] == stats.count
        assert sorted(report.request_id.tolist()
                      + report.drop_id.tolist()) == list(range(300))
        assert report.exactly_once()

    def test_roomy_queue_matches_unbounded_schedule(self, compiled):
        trace = synthetic_trace(200, compiled.num_features,
                                rate_rps=2000.0, seed=5)
        policy = BatchPolicy(16, 0.002)
        bounded = BatchPolicy(16, 0.002, max_queue=10_000)
        a = MicroBatcher(server(compiled, per_batch=0.001),
                         policy).run(trace)
        b = MicroBatcher(server(compiled, per_batch=0.001),
                         bounded).run(trace)
        assert b.drop_id.size == 0
        np.testing.assert_array_equal(a.batch_size, b.batch_size)
        np.testing.assert_array_equal(a.batch_close_s, b.batch_close_s)
        np.testing.assert_array_equal(a.request_id, b.request_id)

    def test_light_load_never_drops(self, compiled):
        trace = synthetic_trace(60, compiled.num_features,
                                rate_rps=100.0, seed=1)
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, 0.001, max_queue=8,
                                          overload="shed-oldest"),
        ).run(trace)
        assert report.drop_id.size == 0
        assert report.latency_stats().drop_rate == 0.0

    def test_nan_arrival_rejected_up_front(self):
        # regression: NaN compares false against everything, so the
        # diff-based monotonicity check alone let a NaN arrival
        # through — it then walked straight into the admission loop and
        # produced nonsense (negative queue delays, a batcher that
        # never dispatches).  The trace must refuse it at construction.
        arrivals = np.array([0.0, np.nan, 0.002])
        with pytest.raises(ValueError, match="finite"):
            RequestTrace(features=np.zeros((3, 2)), arrivals=arrivals)
        with pytest.raises(ValueError, match="finite"):
            RequestTrace(features=np.zeros((2, 2)),
                         arrivals=np.array([0.0, np.inf]))

    def test_priority_shed_evicts_lowest_class_first(self, compiled):
        # request 0 dispatches alone at 0.5ms and serves for 50ms;
        # the queue then holds [1(pri 0), 2(pri 2)] when newcomer 3
        # (pri 1) arrives — it must evict 1, the oldest of the lowest
        # class, never the more important 2
        trace = RequestTrace(
            features=np.arange(8.0).reshape(4, 2),
            arrivals=np.array([0.0, 0.001, 0.002, 0.003]),
            priorities=np.array([0, 0, 2, 1], dtype=np.int32),
        )
        report = MicroBatcher(
            server(compiled, per_batch=0.050),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        assert drops(report, "drop_id", "drop_reason",
                     "drop_priority") == [(1, "shed-oldest", 0)]
        assert sorted(report.request_id.tolist()) == [0, 2, 3]

    def test_priority_shed_refuses_lowly_newcomer(self, compiled):
        # after 0 dispatches, the queue holds priorities [2, 1];
        # newcomer 3 at priority 0 is below every queued class — it is
        # rejected, nobody is evicted
        trace = RequestTrace(
            features=np.arange(8.0).reshape(4, 2),
            arrivals=np.array([0.0, 0.001, 0.002, 0.003]),
            priorities=np.array([0, 2, 1, 0], dtype=np.int32),
        )
        report = MicroBatcher(
            server(compiled, per_batch=0.050),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        assert drops(report, "drop_id", "drop_reason") == [(3, "reject")]
        assert sorted(report.request_id.tolist()) == [0, 1, 2]

    def test_unprioritized_shed_unchanged(self, compiled):
        # without a priorities array the shed policy is plain
        # drop-head — identical schedule to the pre-priority behavior
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        assert drops(report, "drop_id", "drop_tenant",
                     "drop_priority") == [(1, 0, 0), (2, 0, 0)]

    def test_tenant_attribution_on_drops(self, compiled):
        trace = RequestTrace(
            features=np.arange(8.0).reshape(4, 2),
            arrivals=np.array([0.0, 0.001, 0.002, 0.003]),
            tenants=np.array([3, 1, 4, 1], dtype=np.int32),
            priorities=np.zeros(4, dtype=np.int32),
        )
        report = MicroBatcher(
            server(compiled, per_batch=0.050),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="reject"),
        ).run(trace)
        # request 0 dispatches alone; 1 and 2 fill the queue; 3 is the
        # only arrival refused — attributed to its tenant
        assert drops(report, "drop_id", "drop_tenant") == [(3, 1)]

    def test_annotation_validation(self):
        with pytest.raises(ValueError, match="one tenant entry"):
            RequestTrace(features=np.zeros((2, 1)),
                         arrivals=np.array([0.0, 1.0]),
                         tenants=np.zeros(3, dtype=np.int32))
        with pytest.raises(ValueError, match="integer"):
            RequestTrace(features=np.zeros((2, 1)),
                         arrivals=np.array([0.0, 1.0]),
                         priorities=np.zeros(2))


def overloaded_trace(seed, classes, tied):
    """~3x the worker's capacity; ``tied`` snaps arrivals to a coarse
    clock so simultaneous arrivals (and arrivals landing exactly on a
    close instant) occur; ``classes`` are the priority values in play,
    ``None`` for an unprioritized trace."""
    rng = np.random.default_rng(seed)
    num = 700
    arrivals = np.cumsum(rng.exponential(1.0 / 18_000.0, num))
    if tied:
        arrivals = np.round(arrivals, 4)
    annotations = {}
    if classes is not None:
        annotations = dict(
            priorities=rng.choice(np.asarray(classes, dtype=np.int32),
                                  num),
            tenants=rng.integers(0, 5, num).astype(np.int32))
    return RequestTrace(
        features=rng.standard_normal((num, 2)), arrivals=arrivals,
        **annotations)


def formed(batches, backend):
    """Drain a batch generator against ``backend``: the ``(ids, close,
    feature bytes)`` sequence it formed."""
    out = []
    for features, ids, close in batches:
        assert ids.dtype == np.int64 and type(close) is float
        out.append((ids.tolist(), close, features.tobytes()))
        backend.serve(ids.size, close)
    return out


class TestBoundedQueueAgainstReference:
    """The class-deque queue forms the batches, and writes the drops,
    of the backlog-scanning queue it replaced."""

    @pytest.mark.parametrize("stall_every", [0, 4])
    @pytest.mark.parametrize("queue_x", [1.0, 1.5, 4.0])
    @pytest.mark.parametrize("overload", ["reject", "shed-oldest"])
    @pytest.mark.parametrize("classes", [None, (0,), (0, 1), (5, 0, 2),
                                         (0, 1, 3, 7)])
    def test_same_batches_and_drops(self, classes, overload, queue_x,
                                    stall_every):
        policy = BatchPolicy(16, max_delay_s=0.002,
                             max_queue=int(16 * queue_x),
                             overload=overload)
        dropped = 0
        for seed in range(4):
            trace = overloaded_trace(seed, classes, tied=seed % 2 == 1)
            got_backend = SimulatedWorker(stall_every)
            got_drops = {name: [] for name in DROP_COLUMNS}
            got = formed(
                MicroBatcher(got_backend, policy)._batches(
                    trace, got_drops), got_backend)
            want_backend = SimulatedWorker(stall_every)
            want_drops = {name: [] for name in DROP_COLUMNS}
            want = formed(
                reference_bounded_batches(want_backend, policy, trace,
                                          want_drops), want_backend)
            assert got == want
            assert got_drops == want_drops
            assert all(type(t) is float for t in got_drops["drop_s"])
            assert all(type(v) is int for v in got_drops["drop_tenant"]
                       + got_drops["drop_priority"])
            dropped += len(got_drops["drop_id"])
            served = sum(len(ids) for ids, _, _ in got)
            assert served + len(got_drops["drop_id"]) == trace.num_requests
        assert dropped > 200    # the sweep is about overload

    def test_victim_is_the_oldest_of_its_class(self, compiled):
        # 0 dispatches alone and holds the worker; the queue fills with
        # [1(pri 0), 2(pri 0), 3(pri 1)]; newcomers 4 and 5 evict the
        # lowest class oldest-first: 1, then 2 — never the newer first
        trace = RequestTrace(
            features=np.arange(12.0).reshape(6, 2),
            arrivals=np.array([0.0, 0.001, 0.002, 0.003, 0.004, 0.005]),
            priorities=np.array([0, 0, 0, 1, 1, 1], dtype=np.int32),
        )
        report = MicroBatcher(
            server(compiled, per_batch=0.050),
            BatchPolicy(3, max_delay_s=0.0005, max_queue=3,
                        overload="shed-oldest"),
        ).run(trace)
        assert drops(report, "drop_id", "drop_reason", "drop_s") == [
            (1, "shed-oldest", 0.004), (2, "shed-oldest", 0.005)]
        assert report.request_id.tolist() == [0, 3, 4, 5]


def swept_trace(rng, batch, rate_x, classes, tied):
    """~150 Poisson arrivals at ``rate_x`` times the full-batch capacity
    of :class:`SimulatedWorker`; ``tied`` snaps them to a clock of two
    mean gaps, so many arrive together; ``classes`` distinct priority
    values (0: an unprioritized trace)."""
    rate = rate_x * batch / (0.002 + 0.0001 * batch)
    num = 150
    arrivals = np.cumsum(rng.exponential(1.0 / rate, num))
    if tied:
        tick = 2.0 / rate
        arrivals = np.round(arrivals / tick) * tick
    annotations = {}
    if classes:
        values = rng.choice(8, classes, replace=False).astype(np.int32)
        annotations = dict(priorities=rng.choice(values, num),
                           tenants=rng.integers(0, 3, num).astype(np.int32))
    return RequestTrace(features=rng.standard_normal((num, 2)),
                        arrivals=arrivals, **annotations)


class TestAdmissionSweepAgainstReference:
    """Event-run admission forms the reference's batches, closes and
    drop columns over the regimes the runs change: in-capacity to
    overloaded, batch sizes down to one, zero and long delay budgets,
    queues from one batch to three (and unbounded), ties, stalls and up
    to three priority classes.  Eight seeded draws per cell."""

    @pytest.mark.parametrize("delay", [0.0, 0.0005, 0.002, 0.01])
    @pytest.mark.parametrize("queue", ["unbounded", "B", "B+1", "2B",
                                       "3B"])
    @pytest.mark.parametrize("batch", [1, 2, 5, 16])
    def test_same_batches_closes_and_drops(self, batch, queue, delay):
        max_queue = {"unbounded": 0, "B": batch, "B+1": batch + 1,
                     "2B": 2 * batch, "3B": 3 * batch}[queue]
        rng = np.random.default_rng(
            [batch, max_queue, int(delay * 1e4)])
        dropped = 0
        for draw in range(8):
            policy = BatchPolicy(
                batch, max_delay_s=delay, max_queue=max_queue,
                overload=("reject", "shed-oldest")[draw % 2])
            stall_every = (0, 3)[draw // 2 % 2]
            trace = swept_trace(rng, batch,
                                rate_x=(0.3, 0.8, 1.3, 3.0)[draw % 4],
                                classes=int(rng.integers(0, 4)),
                                tied=draw // 4 == 1)
            # the reference reads max_queue literally: 0 admits nobody
            bounded = policy if max_queue else BatchPolicy(
                batch, max_delay_s=delay,
                max_queue=max(trace.num_requests, batch))
            got_backend = SimulatedWorker(stall_every)
            got_drops = {name: [] for name in DROP_COLUMNS}
            got = formed(MicroBatcher(got_backend, policy)._batches(
                trace, got_drops), got_backend)
            want_backend = SimulatedWorker(stall_every)
            want_drops = {name: [] for name in DROP_COLUMNS}
            want = formed(reference_bounded_batches(
                want_backend, bounded, trace, want_drops), want_backend)
            assert got == want
            assert got_drops == want_drops
            dropped += len(got_drops["drop_id"])
        # the 3x-overloaded draws fill any bounded queue
        assert (dropped > 0) == (max_queue > 0)


class TestLedgerAgainstReference:
    """``MicroBatcher.run`` appends once per batch and joins the columns
    at the end; the oracle writes the same ledger one request at a
    time.  They must agree column for column, dtype included."""

    @pytest.mark.parametrize("stall_every", [0, 4])
    @pytest.mark.parametrize("max_queue", [0, 16, 24])
    @pytest.mark.parametrize("overload", ["reject", "shed-oldest"])
    @pytest.mark.parametrize("classes", [None, (0,), (5, 0, 2)])
    def test_same_columns(self, classes, overload, max_queue,
                          stall_every):
        policy = BatchPolicy(16, max_delay_s=0.002, max_queue=max_queue,
                             overload=overload)
        for seed in range(4):
            trace = overloaded_trace(seed, classes, tied=seed % 2 == 1)
            got = MicroBatcher(SimulatedWorker(stall_every),
                               policy).run(trace)
            want = reference_ledger(SimulatedWorker(stall_every), policy,
                                    trace)
            for name in BATCH_COLUMNS + REQUEST_COLUMNS + DROP_COLUMNS:
                column = getattr(got, name)
                assert column.dtype == getattr(want, name).dtype, name
                np.testing.assert_array_equal(column, getattr(want, name),
                                              err_msg=name)
            assert got.offered == want.offered == trace.num_requests
            assert got.exactly_once() and got.single_version_batches()
            assert (got.drop_id.size > 0) == (policy.max_queue > 0)


class TestOneWorkerFleet:
    def test_measured_service_time_used_without_model(self, model):
        registry = ModelRegistry()
        registry.publish(model)
        report = MicroBatcher(
            one_worker(registry), BatchPolicy(8, 0.0)
        ).run(trace_at([0.0, 0.0]))
        # the deploy holds the worker first; the batch itself is billed
        # the scoring's real wall clock, which is nonzero
        (start,), (completion,) = report.batch_start_s, \
            report.batch_completion_s
        assert completion > start > 0.0
