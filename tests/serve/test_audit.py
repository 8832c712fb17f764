"""The sort-and-count admission audit against its per-shed-scan oracle.

``audit_priority_admission`` answers "was any request shed while a
strictly lower class sat queued?" from two sorted arrays per priority
class; ``reference_audit_priority_admission`` (the implementation it
replaced) answers it with one boolean pass over the ledger per shed.
They must give the same verdict everywhere — on the ledgers the shipped
scenarios produce, on ledgers a deliberately broken shed policy
produces, on hand-placed exact time ties, and on arbitrary hand-made
ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchPolicy, RequestTrace
from repro.serve.batcher import (BatchRecord, DropRecord, RequestRecord,
                                 ServingReport)
from repro.serve.scenarios import (SCENARIOS, ScenarioRunner,
                                   audit_priority_admission, get_scenario)

from .reference_audit import reference_audit_priority_admission
from .reference_batcher import (SimulatedWorker,
                                reference_bounded_batches,
                                reference_shed_victim)


def verdict(trace, report):
    """The audit's verdict, having checked the oracle agrees."""
    got = audit_priority_admission(trace, report)
    assert got == reference_audit_priority_admission(trace, report)
    return got


def ledger(arrivals, priorities, served=(), rejected=(), shed=()):
    """A hand-made ledger.  ``served``: ``(request, close_s)``, one
    batch each; ``rejected``: requests turned away at arrival;
    ``shed``: ``(request, drop_s)``."""
    trace = RequestTrace(
        features=np.zeros((len(arrivals), 1)),
        arrivals=np.asarray(arrivals, dtype=np.float64),
        priorities=np.asarray(priorities, dtype=np.int32))
    report = ServingReport()
    for batch_id, (request, close_s) in enumerate(served):
        report.batches.append(BatchRecord(
            batch_id, 1, close_s, close_s, close_s + 1.0, 0, 1))
        report.records.append(RequestRecord(
            request, arrivals[request], batch_id, close_s, close_s + 1.0,
            0, 1))
    for request in rejected:
        report.dropped.append(DropRecord(
            request, arrivals[request], arrivals[request], "reject",
            priority=priorities[request]))
    for request, drop_s in shed:
        report.dropped.append(DropRecord(
            request, arrivals[request], drop_s, "shed-oldest",
            priority=priorities[request]))
    return trace, report


class TestShippedScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_verdict_on_the_scenario_ledger(self, name):
        runner = ScenarioRunner(get_scenario(name, scale=0.3))
        runner.run()
        trace, report = runner.trace, runner.serving_report
        assert verdict(trace, report)
        sheds = [d for d in report.dropped if d.reason == "shed-oldest"]
        classes = np.unique(trace.priorities)
        if not sheds or classes.size < 2:
            # heavy-tail overloads a multi-class queue by design; if it
            # stopped shedding, every shipped ledger would pass the
            # audit vacuously and the half below would never run
            assert name != "heavy-tail", "the shed path went unexercised"
            return
        # the same ledger with one victim relabelled as the top class:
        # it was shed from a queue holding lower ones
        report.dropped = [
            d if d is not sheds[len(sheds) // 2] else DropRecord(
                d.request_id, d.arrival_s, d.drop_s, d.reason, d.tenant,
                int(classes[-1]) + 1)
            for d in report.dropped]
        assert not verdict(trace, report)


def replay(trace, policy, shed_victim):
    """The ledger of the oracle batcher running ``shed_victim``."""
    backend, report = SimulatedWorker(), ServingReport()
    batches = reference_bounded_batches(backend, policy, trace, report,
                                        shed_victim=shed_victim)
    for _, ids, close in batches:
        batch_id = len(report.batches)
        done = backend.serve(ids.size, close)
        report.batches.append(BatchRecord(
            batch_id, ids.size, close, close, done, 0, 1))
        report.records.extend(
            RequestRecord(int(r), float(trace.arrivals[r]), batch_id,
                          close, done, 0, 1) for r in ids)
    return report


def evict_highest_class(trace, backlog, newcomer):
    top = max(trace.priority_of(r) for r in backlog)
    return next(pos for pos, r in enumerate(backlog)
                if trace.priority_of(r) == top)


def never_refuse_the_newcomer(trace, backlog, newcomer):
    lowest = min(trace.priority_of(r) for r in backlog)
    return next(pos for pos, r in enumerate(backlog)
                if trace.priority_of(r) == lowest)


def evict_the_head(trace, backlog, newcomer):
    return 0


class TestBrokenShedPolicies:
    """Ledgers written by an overloaded queue under a given shed rule."""

    @pytest.fixture(scope="class")
    def overload(self):
        rng = np.random.default_rng(17)
        num = 3000
        trace = RequestTrace(
            features=np.zeros((num, 1)),
            arrivals=np.cumsum(rng.exponential(1.0 / 20_000.0, num)),
            priorities=rng.choice(np.array([0, 1, 4], dtype=np.int32),
                                  num))
        policy = BatchPolicy(max_batch_size=16, max_delay_s=0.002,
                             max_queue=40, overload="shed-oldest")
        return trace, policy

    def test_the_real_policy_passes(self, overload):
        trace, policy = overload
        report = replay(trace, policy, reference_shed_victim)
        assert sum(d.reason == "shed-oldest" for d in report.dropped) > 500
        assert verdict(trace, report)

    @pytest.mark.parametrize("policy_fn", [evict_highest_class,
                                           evict_the_head])
    def test_class_blind_eviction_is_caught(self, overload, policy_fn):
        trace, policy = overload
        assert not verdict(trace, replay(trace, policy, policy_fn))

    def test_unchecked_newcomer_same_verdict(self, overload):
        # admitting a newcomer below every queued class evicts a more
        # important request *at the newcomer's arrival instant* — the
        # audit's strict tie rule does not see the newcomer as queued
        # yet, under either formulation
        trace, policy = overload
        verdict(trace, replay(trace, policy, never_refuse_the_newcomer))


class TestExactTies:
    def test_arrival_at_the_shed_instant_is_not_yet_queued(self):
        assert verdict(*ledger(
            arrivals=[0.0, 1.0], priorities=[2, 0],
            served=[(1, 3.0)], shed=[(0, 1.0)]))

    def test_departure_at_the_shed_instant_is_already_gone(self):
        assert verdict(*ledger(
            arrivals=[0.0, 0.5], priorities=[2, 0],
            served=[(1, 1.0)], shed=[(0, 1.0)]))
        # ... and one instant later it would still have been queued
        assert not verdict(*ledger(
            arrivals=[0.0, 0.5], priorities=[2, 0],
            served=[(1, np.nextafter(1.0, 2.0))], shed=[(0, 1.0)]))

    def test_reject_at_the_shed_instant_hides_nobody(self):
        # request 1 (class 0) is genuinely queued across t=1.0; the
        # class-0 reject at exactly 1.0 never waited and must not
        # cancel it out of the count
        assert not verdict(*ledger(
            arrivals=[0.0, 0.5, 1.0], priorities=[2, 0, 0],
            served=[(1, 3.0)], rejected=[2], shed=[(0, 1.0)]))
        assert verdict(*ledger(
            arrivals=[0.0, 1.0], priorities=[2, 0],
            rejected=[1], shed=[(0, 1.0)]))

    def test_admission_at_the_close_instant_never_waited(self):
        assert not verdict(*ledger(
            arrivals=[0.0, 0.5, 1.0], priorities=[2, 0, 0],
            served=[(1, 3.0), (2, 1.0)], shed=[(0, 1.0)]))

    def test_two_sheds_at_one_instant(self):
        # same class, same instant: neither victim outranks the other
        assert verdict(*ledger(
            arrivals=[0.0, 0.1, 1.0, 1.0], priorities=[1, 1, 1, 1],
            served=[(2, 2.0), (3, 2.0)], shed=[(0, 1.0), (1, 1.0)]))
        # a victim shed at t is gone at t — it does not count as queued
        # under the higher-class victim shed at the same instant
        assert verdict(*ledger(
            arrivals=[0.0, 0.1], priorities=[0, 3],
            shed=[(0, 1.0), (1, 1.0)]))
        assert not verdict(*ledger(
            arrivals=[0.0, 0.1, 0.2], priorities=[0, 3, 3],
            served=[(0, 2.0)], shed=[(1, 1.0), (2, 1.0)]))

    def test_non_contiguous_and_negative_classes(self):
        assert not verdict(*ledger(
            arrivals=[0.0, 0.5], priorities=[7, -2],
            served=[(1, 3.0)], shed=[(0, 1.0)]))
        assert verdict(*ledger(
            arrivals=[0.0, 0.5], priorities=[-2, 7],
            served=[(1, 3.0)], shed=[(0, 1.0)]))


#: a coarse clock, so every kind of exact tie is drawn routinely
_TICKS = st.integers(0, 6).map(lambda tick: tick / 4.0)


@st.composite
def ledgers(draw):
    classes = draw(st.lists(st.sampled_from([-2, 0, 1, 3, 7]),
                            min_size=1, max_size=4, unique=True))
    num = draw(st.integers(1, 14))
    arrivals = sorted(draw(st.lists(_TICKS, min_size=num, max_size=num)))
    priorities = [draw(st.sampled_from(classes)) for _ in range(num)]
    served, rejected, shed = [], [], []
    for request in range(num):
        fate = draw(st.sampled_from(["served", "rejected", "shed"]))
        # a stay of zero or more ticks: 0 is an admission at the close
        # (or shed) instant
        leaves = arrivals[request] + draw(st.integers(0, 4)) / 4.0
        if fate == "served":
            served.append((request, leaves))
        elif fate == "rejected":
            rejected.append(request)
        else:
            shed.append((request, leaves))
    return arrivals, priorities, served, rejected, shed


@settings(max_examples=400, deadline=None)
@given(case=ledgers())
def test_same_verdict_on_hand_made_ledgers(case):
    verdict(*ledger(*case))
