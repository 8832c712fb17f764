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
from repro.serve.batcher import ServingReport

from .reference_batcher import (FixedServiceServer, SimulatedWorker,
                                reference_bounded_batches)


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
        assert [b.size for b in report.batches] == [2, 2]
        # first closes immediately; second waits for the server
        assert report.batches[0].start_s == 0.0
        assert report.batches[1].start_s == pytest.approx(0.001)

    def test_delay_timeout_flushes_partial_batch(self, compiled):
        trace = trace_at([0.0, 0.004])
        report = MicroBatcher(
            server(compiled), BatchPolicy(64, max_delay_s=0.002)
        ).run(trace)
        assert [b.size for b in report.batches] == [1, 1]
        assert report.batches[0].close_s == pytest.approx(0.002)
        assert report.batches[1].close_s == pytest.approx(0.006)

    def test_queue_absorbs_arrivals_while_busy(self, compiled):
        # server busy 10ms; everything arriving meanwhile joins batch 2
        trace = trace_at([0.0, 0.001, 0.002, 0.009])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(64, max_delay_s=0.0005),
        ).run(trace)
        assert [b.size for b in report.batches] == [1, 3]
        # batch 1 closed at 0.5ms and ran 10ms; batch 2 starts then
        assert report.batches[1].start_s == pytest.approx(0.0105)

    def test_zero_delay_still_serves_simultaneous_arrivals(self,
                                                           compiled):
        trace = trace_at([0.0, 0.0, 0.5])
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, max_delay_s=0.0)
        ).run(trace)
        assert [b.size for b in report.batches] == [2, 1]

    def test_empty_trace(self, compiled):
        trace = trace_at([])
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, 0.001)
        ).run(trace, collect_scores=True)
        assert report.records == [] and report.batches == []
        assert report.scores.size == 0
        assert report.versions_served() == []

    def test_every_request_served_once(self, compiled):
        trace = synthetic_trace(300, compiled.num_features,
                                rate_rps=5000.0, seed=3)
        report = MicroBatcher(
            server(compiled, per_row=1e-6), BatchPolicy(32, 0.002)
        ).run(trace)
        ids = sorted(r.request_id for r in report.records)
        assert ids == list(range(300))
        assert sum(b.size for b in report.batches) == 300


class TestLedger:
    def test_latency_decomposition(self, compiled):
        trace = trace_at([0.0, 0.004])
        report = MicroBatcher(
            server(compiled), BatchPolicy(64, max_delay_s=0.002)
        ).run(trace)
        first = report.records[0]
        assert first.queue_s == pytest.approx(0.002)
        assert first.latency_s == pytest.approx(0.003)
        stats = report.latency_stats()
        assert stats.count == 2
        assert stats.p50_s <= stats.p95_s <= stats.p99_s <= stats.max_s
        assert stats.throughput_rps > 0
        assert set(stats.to_dict()) >= {"p50_s", "p99_s",
                                        "throughput_rps"}

    def test_empty_stats(self):
        from repro.serve import LatencyStats

        stats = LatencyStats.from_records([])
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
        for batch in report.batches:
            versions = {r.model_version for r in report.records
                        if r.batch_id == batch.batch_id}
            assert versions == {batch.model_version}
        # the swap splits traffic in two contiguous version runs
        versions = [r.model_version for r in report.records]
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
        assert not BatchPolicy(8, 0.001).bounded
        assert BatchPolicy(8, 0.001, max_queue=8).bounded

    def test_reject_drops_newcomers(self, compiled):
        # batch [0] dispatches at 0.5ms and serves for 10ms; 1 and 2
        # fill the 2-slot queue; 3 and 4 arrive against a full queue
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="reject"),
        ).run(trace)
        assert sorted(r.request_id for r in report.records) == [0, 1, 2]
        assert [(d.request_id, d.reason) for d in report.dropped] == \
            [(3, "reject"), (4, "reject")]
        # a rejected request never waits: dropped on arrival
        assert all(d.queued_s == 0.0 for d in report.dropped)

    def test_shed_oldest_keeps_freshest(self, compiled):
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        # 3 evicts 1, 4 evicts 2: the freshest requests get served
        assert sorted(r.request_id for r in report.records) == [0, 3, 4]
        assert [(d.request_id, d.reason) for d in report.dropped] == \
            [(1, "shed-oldest"), (2, "shed-oldest")]
        # request 1 queued from 1ms until evicted at 3ms
        assert report.dropped[0].queued_s == pytest.approx(0.002)

    def test_drop_rate_in_ledger(self, compiled):
        trace = synthetic_trace(300, compiled.num_features,
                                rate_rps=50_000.0, seed=3)
        report = MicroBatcher(
            server(compiled, per_batch=0.005),
            BatchPolicy(16, 0.001, max_queue=32, overload="reject"),
        ).run(trace, collect_scores=True)
        stats = report.latency_stats()
        assert stats.dropped == len(report.dropped) > 0
        assert stats.count + stats.dropped == 300
        assert stats.drop_rate == pytest.approx(stats.dropped / 300)
        assert stats.to_dict()["drop_rate"] == stats.drop_rate
        # scores align with what was actually served
        assert report.scores.shape[0] == stats.count
        served = sorted(r.request_id for r in report.records)
        dropped = sorted(d.request_id for d in report.dropped)
        assert sorted(served + dropped) == list(range(300))

    def test_roomy_queue_matches_unbounded_schedule(self, compiled):
        trace = synthetic_trace(200, compiled.num_features,
                                rate_rps=2000.0, seed=5)
        policy = BatchPolicy(16, 0.002)
        bounded = BatchPolicy(16, 0.002, max_queue=10_000)
        a = MicroBatcher(server(compiled, per_batch=0.001),
                         policy).run(trace)
        b = MicroBatcher(server(compiled, per_batch=0.001),
                         bounded).run(trace)
        assert b.dropped == []
        assert [x.size for x in a.batches] == [x.size for x in b.batches]
        assert [x.close_s for x in a.batches] == \
            [x.close_s for x in b.batches]
        assert [r.request_id for r in a.records] == \
            [r.request_id for r in b.records]

    def test_light_load_never_drops(self, compiled):
        trace = synthetic_trace(60, compiled.num_features,
                                rate_rps=100.0, seed=1)
        report = MicroBatcher(
            server(compiled), BatchPolicy(8, 0.001, max_queue=8,
                                          overload="shed-oldest"),
        ).run(trace)
        assert report.dropped == []
        assert report.latency_stats().drop_rate == 0.0

    def test_nan_arrival_rejected_up_front(self):
        # regression: NaN compares false against everything, so the
        # diff-based monotonicity check alone let a NaN arrival
        # through — it then walked straight into _run_bounded and
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
        dropped = [(d.request_id, d.reason, d.priority)
                   for d in report.dropped]
        assert dropped == [(1, "shed-oldest", 0)]
        assert sorted(r.request_id for r in report.records) == [0, 2, 3]

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
        assert [(d.request_id, d.reason) for d in report.dropped] == \
            [(3, "reject")]
        assert sorted(r.request_id for r in report.records) == [0, 1, 2]

    def test_unprioritized_shed_unchanged(self, compiled):
        # without a priorities array the shed policy is plain
        # drop-head — identical schedule to the pre-priority behavior
        trace = trace_at([0.0, 0.001, 0.002, 0.003, 0.004])
        report = MicroBatcher(
            server(compiled, per_batch=0.010),
            BatchPolicy(2, max_delay_s=0.0005, max_queue=2,
                        overload="shed-oldest"),
        ).run(trace)
        assert [(d.request_id, d.tenant, d.priority)
                for d in report.dropped] == [(1, 0, 0), (2, 0, 0)]

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
        assert [(d.request_id, d.tenant) for d in report.dropped] == \
            [(3, 1)]

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
            got_report = ServingReport()
            got = formed(
                MicroBatcher(got_backend, policy)._bounded_batches(
                    trace, got_report), got_backend)
            want_backend = SimulatedWorker(stall_every)
            want_report = ServingReport()
            want = formed(
                reference_bounded_batches(want_backend, policy, trace,
                                          want_report), want_backend)
            assert got == want
            assert got_report.dropped == want_report.dropped
            for drop in got_report.dropped:
                assert type(drop.arrival_s) is float \
                    and type(drop.drop_s) is float
                assert type(drop.tenant) is int \
                    and type(drop.priority) is int
            dropped += len(got_report.dropped)
            served = sum(len(ids) for ids, _, _ in got)
            assert served + len(got_report.dropped) == trace.num_requests
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
        assert [(d.request_id, d.reason, d.drop_s)
                for d in report.dropped] == [
            (1, "shed-oldest", 0.004), (2, "shed-oldest", 0.005)]
        assert [r.request_id for r in report.records] == [0, 3, 4, 5]


class TestOneWorkerFleet:
    def test_measured_service_time_used_without_model(self, model):
        registry = ModelRegistry()
        registry.publish(model)
        report = MicroBatcher(
            one_worker(registry), BatchPolicy(8, 0.0)
        ).run(trace_at([0.0, 0.0]))
        # the deploy holds the worker first; the batch itself is billed
        # the scoring's real wall clock, which is nonzero
        (batch,) = report.batches
        assert batch.completion_s > batch.start_s > 0.0
