"""Unit tests for the seeded fault-injection primitives.

The end-to-end invariants (bit-identical recovery, exact ledger
accounting) live in ``tests/systems/test_chaos.py``; this file pins the
building blocks: ``FaultPlan`` parsing/validation, the injector's
determinism, and the retry cost arithmetic.
"""

from __future__ import annotations

import pytest

from repro.cluster.faults import (FAULT_PREFIXES, FaultInjector, FaultPlan,
                                  TransportFault, UnrecoverableFaultError)
from repro.cluster.network import SimulatedNetwork
from repro.config import NetworkModel


class TestFaultPlanParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "42:crash=2,drop=0.05,timeout=0.01,backoff=0.02,"
            "timeout-s=0.3,retries=5"
        )
        assert plan.seed == 42
        assert plan.crashes == 2
        assert plan.drop_rate == 0.05
        assert plan.timeout_rate == 0.01
        assert plan.backoff_s == 0.02
        assert plan.timeout_s == 0.3
        assert plan.max_retries == 5
        assert plan.active

    def test_spec_tolerates_whitespace(self):
        plan = FaultPlan.parse("7: crash=1 , drop=0.1 ")
        assert plan.seed == 7
        assert plan.crashes == 1
        assert plan.drop_rate == 0.1

    @pytest.mark.parametrize("bad", [
        "no-colon",              # missing SEED: prefix
        ":crash=1",              # empty seed
        "x:crash=1",             # non-integer seed
        "42:",                   # names no fault
        "42:bogus=1",            # unknown key
        "42:crash",              # no '=value'
        "42:crash=abc",          # non-numeric value
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("entry, why", [
        ("crash=1.9", "whole count"),
        ("crash=inf", "whole count"),
        ("crash=nan", "whole count"),
        ("retries=2.5", "whole count"),
        ("crash=1,crash=2", "repeats"),
        ("drop=0.1,drop=0.2", "repeats"),
    ])
    def test_counts_are_whole_and_keys_single(self, entry, why):
        last = entry.split(",")[-1]
        with pytest.raises(ValueError, match=f"{last!r}.*{why}"):
            FaultPlan.parse(f"42:{entry}")

    @pytest.mark.parametrize("spec", [
        "42:drop=0.5,backoff=inf",
        "42:timeout=0.3,timeout-s=nan",
        "42:drop=0.5,backoff=nan",
        "42:timeout=0.3,timeout-s=inf",
    ])
    def test_delays_must_be_finite(self, spec):
        """A retry commits its delay unchecked, so a non-finite one would
        turn the run's simulated seconds into ``inf`` or ``nan``."""
        with pytest.raises(ValueError, match="must be finite"):
            FaultPlan.parse(spec)

    def test_validation(self):
        with pytest.raises(ValueError, match="crashes"):
            FaultPlan(seed=0, crashes=-1)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(seed=0, drop_rate=1.0)
        with pytest.raises(ValueError, match="timeout_rate"):
            FaultPlan(seed=0, timeout_rate=-0.1)
        with pytest.raises(ValueError, match="eventually succeed"):
            FaultPlan(seed=0, drop_rate=0.6, timeout_rate=0.5)
        with pytest.raises(ValueError, match="backoff_s"):
            FaultPlan(seed=0, backoff_s=-1.0)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPlan(seed=0, max_retries=0)
        with pytest.raises(ValueError, match="max_crashes_per_tree"):
            FaultPlan(seed=0, max_crashes_per_tree=0)

    def test_inactive_plan(self):
        assert not FaultPlan(seed=3).active

    def test_describe_names_only_active_faults(self):
        text = FaultPlan.parse("9:crash=1,drop=0.25").describe()
        assert "seed=9" in text
        assert "crashes=1" in text
        assert "drop=0.25" in text
        assert "timeout" not in text


class TestFaultInjector:
    def test_crash_schedule_is_deterministic(self):
        plan = FaultPlan(seed=13, crashes=3)
        first = FaultInjector(plan, 4, 10, 5).scheduled_crashes()
        second = FaultInjector(plan, 4, 10, 5).scheduled_crashes()
        assert first == second
        assert len(first) == 3
        for event in first:
            assert 0 <= event.tree < 10
            assert 0 <= event.layer < 4
            assert 0 <= event.worker < 4

    def test_each_crash_fires_exactly_once(self):
        plan = FaultPlan(seed=13, crashes=3)
        injector = FaultInjector(plan, 4, 10, 5)
        events = injector.scheduled_crashes()
        fired = []
        for _ in range(2):  # the replay pass must not re-fire
            for tree in range(10):
                for layer in range(4):
                    event = injector.maybe_crash(tree, layer)
                    if event is not None:
                        fired.append(event)
        assert sorted(fired, key=lambda e: (e.tree, e.layer)) == events
        assert injector.counters.crashes == 3
        assert injector.scheduled_crashes() == []

    def test_crash_pileup_beyond_budget_rejected(self):
        plan = FaultPlan(seed=0, crashes=5, max_crashes_per_tree=2)
        with pytest.raises(UnrecoverableFaultError, match="budget"):
            FaultInjector(plan, num_workers=4, num_trees=1, num_layers=4)

    def test_invalid_cluster_shape_rejected(self):
        plan = FaultPlan(seed=0, crashes=1)
        with pytest.raises(ValueError):
            FaultInjector(plan, num_workers=0, num_trees=1, num_layers=3)
        with pytest.raises(ValueError):
            FaultInjector(plan, num_workers=2, num_trees=1, num_layers=1)

    def test_transport_faults_deterministic_and_counted(self):
        plan = FaultPlan(seed=5, drop_rate=0.3, timeout_rate=0.2)
        a = FaultInjector(plan, 2, 1, 3)
        b = FaultInjector(plan, 2, 1, 3)
        seq_a = [a.transport_faults("hist") for _ in range(50)]
        seq_b = [b.transport_faults("hist") for _ in range(50)]
        assert seq_a == seq_b
        fired = [f for faults in seq_a for f in faults]
        assert a.counters.drops == \
            sum(1 for f in fired if f.kind == "drop")
        assert a.counters.timeouts == \
            sum(1 for f in fired if f.kind == "timeout")
        assert a.counters.drops + a.counters.timeouts == len(fired)
        # drops are detected instantly; timeouts wait out timeout_s
        for fault in fired:
            expected = 0.0 if fault.kind == "drop" else plan.timeout_s
            assert fault.penalty_s == expected

    @pytest.mark.parametrize("prefix", FAULT_PREFIXES)
    def test_fault_traffic_is_never_faulted(self, prefix):
        plan = FaultPlan(seed=5, drop_rate=0.9)
        injector = FaultInjector(plan, 2, 1, 3)
        for _ in range(20):
            assert injector.transport_faults(prefix + "hist") == []
        assert injector.counters.drops == injector.counters.timeouts == 0

    def test_inactive_transport_is_free(self):
        plan = FaultPlan(seed=5, crashes=1)
        injector = FaultInjector(plan, 2, 1, 3)
        assert injector.transport_faults("hist") == []

    def test_hopeless_drop_rate_raises(self):
        plan = FaultPlan(seed=1, drop_rate=0.95, max_retries=3)
        injector = FaultInjector(plan, 2, 1, 3)
        with pytest.raises(UnrecoverableFaultError, match="consecutive"):
            for _ in range(100):
                injector.transport_faults("hist")

    def test_retry_seconds_backoff_doubles(self):
        plan = FaultPlan(seed=0, drop_rate=0.1, backoff_s=0.01,
                         timeout_s=0.5)
        injector = FaultInjector(plan, 2, 1, 3)
        drop = TransportFault("drop", 0.0)
        timeout = TransportFault("timeout", plan.timeout_s)
        assert injector.retry_seconds(0, 1.0, drop) == \
            pytest.approx(1.0 + 0.01)
        assert injector.retry_seconds(2, 1.0, drop) == \
            pytest.approx(1.0 + 0.04)
        assert injector.retry_seconds(0, 1.0, timeout) == \
            pytest.approx(1.0 + 0.01 + 0.5)


class TestNetworkFaultIntegration:
    def test_injected_retries_land_under_retry_kind(self):
        plan = FaultPlan(seed=2, drop_rate=0.4)
        injector = FaultInjector(plan, 2, 1, 3)
        net = SimulatedNetwork(NetworkModel(), injector=injector)
        for _ in range(60):
            net.record("hist", 100, 0.001)
        stats = net.snapshot()
        assert stats.bytes_by_kind["hist"] == 6000
        fired = injector.counters.drops + injector.counters.timeouts
        assert fired > 0
        assert stats.bytes_by_kind["retry:hist"] == 100 * fired
        # every retry costs at least the re-send plus one backoff step
        assert stats.seconds_by_kind["retry:hist"] >= \
            fired * (0.001 + plan.backoff_s)

    def test_retry_records_not_reinjected(self):
        plan = FaultPlan(seed=2, drop_rate=0.9, max_retries=2)
        injector = FaultInjector(plan, 2, 1, 3)
        net = SimulatedNetwork(NetworkModel(), injector=injector)
        # direct recording under a fault prefix must never draw the RNG
        for _ in range(50):
            net.record("retry:hist", 10, 0.001)
        assert injector.counters.drops == injector.counters.timeouts == 0
