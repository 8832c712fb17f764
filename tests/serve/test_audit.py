"""The ledger audits: the sort-and-count admission audit against its
per-shed-scan oracle, and the two structural checks of the columns —
exactly-once conservation and the request -> batch join.

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

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchPolicy, RequestTrace
from repro.serve.batcher import ServingReport
from repro.serve.deploy import audit_deploy
from repro.serve.scenarios import (SCENARIOS, ScenarioRunner,
                                   audit_priority_admission, get_scenario)

from .reference_audit import reference_audit_priority_admission
from .reference_batcher import (SimulatedWorker, entry_of,
                                reference_ledger, reference_shed_victim)


def verdict(trace, report):
    """The audit's verdict, having checked the oracle agrees."""
    got = audit_priority_admission(trace, report)
    assert got == reference_audit_priority_admission(trace, report)
    return got


def ledger(arrivals, priorities, served=(), rejected=(), shed=()):
    """A hand-made ledger.  ``served``: ``(request, close_s)``, one
    batch each, which starts a little after it closes (a busy worker)
    so a queue stay read up to the start instead of the close shows;
    ``rejected``: requests turned away at arrival; ``shed``:
    ``(request, drop_s)``."""
    trace = RequestTrace(
        features=np.zeros((len(arrivals), 1)),
        arrivals=np.asarray(arrivals, dtype=np.float64),
        priorities=np.asarray(priorities, dtype=np.int32))
    served_ids = [request for request, _ in served]
    closes = [close_s for _, close_s in served]
    drops = [(request, arrivals[request], "reject") for request in rejected] \
        + [(request, drop_s, "shed-oldest") for request, drop_s in shed]
    drop_ids = [request for request, _, _ in drops]
    report = ServingReport(
        batch_size=[1] * len(served), batch_close_s=closes,
        batch_start_s=[close_s + 0.125 for close_s in closes],
        batch_completion_s=[close_s + 1.0 for close_s in closes],
        batch_worker=[0] * len(served), batch_version=[1] * len(served),
        request_id=served_ids, request_batch=range(len(served)),
        request_arrival_s=[arrivals[request] for request in served_ids],
        drop_id=drop_ids, drop_s=[drop_s for _, drop_s, _ in drops],
        drop_reason=[reason for _, _, reason in drops],
        drop_tenant=[0] * len(drops),
        drop_priority=[priorities[request] for request in drop_ids],
        offered=len(arrivals))
    return trace, report


class TestShippedScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_verdict_on_the_scenario_ledger(self, name):
        runner = ScenarioRunner(get_scenario(name, scale=0.3))
        runner.run()
        trace, report = runner.trace, runner.serving_report
        assert verdict(trace, report)
        sheds = np.flatnonzero(report.drop_reason == "shed-oldest")
        classes = np.unique(trace.priorities)
        if not sheds.size or classes.size < 2:
            # heavy-tail overloads a multi-class queue by design; if it
            # stopped shedding, every shipped ledger would pass the
            # audit vacuously and the half below would never run
            assert name != "heavy-tail", "the shed path went unexercised"
            return
        # the same ledger with one victim relabelled as the top class:
        # it was shed from a queue holding lower ones
        priority = report.drop_priority.copy()
        priority[sheds[sheds.size // 2]] = classes[-1] + 1
        assert not verdict(trace, dataclasses.replace(
            report, drop_priority=priority))


def replay(trace, policy, shed_victim):
    """The ledger of the oracle batcher running ``shed_victim``."""
    return reference_ledger(SimulatedWorker(), policy, trace, shed_victim)


def evict_highest_class(trace, backlog, newcomer):
    top = max(entry_of(trace.priorities, r) for r in backlog)
    return next(pos for pos, r in enumerate(backlog)
                if entry_of(trace.priorities, r) == top)


def never_refuse_the_newcomer(trace, backlog, newcomer):
    lowest = min(entry_of(trace.priorities, r) for r in backlog)
    return next(pos for pos, r in enumerate(backlog)
                if entry_of(trace.priorities, r) == lowest)


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
        assert (report.drop_reason == "shed-oldest").sum() > 500
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


def served_ledger(request_ids, drop_ids=(), offered=None, sizes=None):
    """A ledger serving ``request_ids`` in batches of ``sizes`` (one
    batch by default) and dropping ``drop_ids``."""
    sizes = [len(request_ids)] if sizes is None else sizes
    batches = len(sizes)
    return ServingReport(
        batch_size=sizes, batch_close_s=[1.0] * batches,
        batch_start_s=[1.0] * batches,
        batch_completion_s=[2.0] * batches, batch_worker=[0] * batches,
        batch_version=[1] * batches, request_id=request_ids,
        request_batch=np.repeat(np.arange(batches), sizes),
        request_arrival_s=[0.0] * len(request_ids),
        drop_id=drop_ids, drop_s=[1.0] * len(drop_ids),
        drop_reason=["reject"] * len(drop_ids),
        drop_tenant=[0] * len(drop_ids),
        drop_priority=[0] * len(drop_ids),
        offered=(len(request_ids) + len(drop_ids) if offered is None
                 else offered))


class TestExactlyOnce:
    """Conservation is a per-id check, not a count: a ledger that
    serves request 3 twice and never serves request 4 has the right
    number of rows and must still fail."""

    def test_a_permutation_passes(self):
        assert served_ledger([4, 0, 2], drop_ids=[3, 1]).exactly_once()
        assert served_ledger([], offered=0).exactly_once()

    @pytest.mark.parametrize("served,dropped", [
        ([0, 1, 2, 3, 3], []),          # 3 served twice, 4 never
        ([0, 1, 2, 3], [3]),            # 3 served and dropped
        ([0, 1, 2], [3, 3]),            # 3 dropped twice
        ([0, 1, 2, 3], [5]),            # an id past the trace
        ([0, 1, 2, 3], [-1]),           # a negative id
    ])
    def test_a_miscounted_id_fails_at_the_right_count(self, served,
                                                       dropped):
        report = served_ledger(served, drop_ids=dropped, offered=5)
        assert report.request_id.size + report.drop_id.size \
            == report.offered
        assert not report.exactly_once()

    def test_a_short_or_long_ledger_fails(self):
        assert not served_ledger([0, 1, 2], offered=4).exactly_once()
        assert not served_ledger([0, 1, 2], offered=2).exactly_once()

    def test_both_reports_read_the_one_check(self):
        runner = ScenarioRunner(get_scenario("heavy-tail", scale=0.2))
        report = runner.run()
        ledger = runner.serving_report
        assert report["invariants"]["conservation_ok"]
        ids = ledger.request_id.copy()
        ids[ids == ids.max()] = ids.min()     # one id twice, one never
        forged = dataclasses.replace(ledger, request_id=ids)
        rebuilt = runner._build_report(runner.trace, forged,
                                       runner.replicas, runner.cache)
        assert not rebuilt["invariants"]["conservation_ok"]
        assert rebuilt["totals"]["served"] + rebuilt["totals"]["dropped"] \
            == rebuilt["totals"]["arrivals"]
        assert audit_deploy(ledger, [], 1, 2, shadow=False)[
            "single_version_per_request"]
        assert not audit_deploy(forged, [], 1, 2, shadow=False)[
            "single_version_per_request"]


class TestRequestBatchJoin:
    """``single_version_batches``: the version is stored once per batch,
    so what is left to check is that every request names one existing
    batch and every batch holds exactly its size in requests."""

    def test_a_well_formed_join_passes(self):
        assert served_ledger([0, 1, 2, 3], sizes=[3, 1]) \
            .single_version_batches()
        assert ServingReport().single_version_batches()

    def test_a_request_naming_a_missing_batch_fails(self):
        report = served_ledger([0, 1, 2], sizes=[2, 1])
        for batch in ([0, 0, 2], [0, 0, -1]):
            assert not dataclasses.replace(
                report, request_batch=batch).single_version_batches()

    def test_a_batch_holding_the_wrong_count_fails(self):
        report = served_ledger([0, 1, 2], sizes=[2, 1])
        assert not dataclasses.replace(
            report, request_batch=[0, 1, 1]).single_version_batches()
        assert not dataclasses.replace(
            report, batch_size=[2, 2]).single_version_batches()
