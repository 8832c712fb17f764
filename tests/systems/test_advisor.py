"""Advisor tests: predictions agree with the Section 3 analysis and with
the simulator's measured outcomes on representative regimes."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, NetworkModel, TrainConfig, \
    make_classification
from repro.data.dataset import bin_dataset
from repro.systems import TrainingSession, get_plan
from repro.systems.advisor import (DEFAULT_SCAN_RATE, PLAN_OF_QUADRANT,
                                   AdaptivePolicy, price_plans, recommend)
from repro.systems.costmodel import WorkloadShape, workload_of
from repro.systems.plans import PLANS


def shape(n, d, w=8, layers=8, q=20, c=1):
    return WorkloadShape(n, d, w, layers, q, c)


def prices(s, nnz, **kwargs):
    return price_plans(s, nnz, NetworkModel(), **kwargs)


class TestPricePlans:
    def test_every_plan_priced(self):
        out = prices(shape(100_000, 1000), 50)
        assert set(out) == set(PLANS)
        for key, cost in out.items():
            assert cost.plan_key == key
            assert cost.comp_seconds > 0
            assert cost.comm_seconds > 0
            assert cost.histogram_memory_bytes > 0
            assert cost.recovery_seconds == 0.0

    def test_vertical_memory_is_w_times_smaller(self):
        out = prices(shape(100_000, 1000, w=8), 50)
        assert out["qd2"].histogram_memory_bytes == pytest.approx(
            8 * out["vero"].histogram_memory_bytes
        )

    def test_colstore_hybrid_costs_more_compute(self):
        out = prices(shape(1_000_000, 100), 50)
        assert out["qd3"].comp_seconds > out["vero"].comp_seconds

    def test_no_subtraction_costs_more(self):
        out = prices(shape(1_000_000, 100), 50)
        assert out["qd1"].comp_seconds > out["qd2"].comp_seconds

    def test_total_adds_recovery_after_comp_and_comm(self):
        for cost in prices(shape(1_000_000, 100), 50,
                           crash_rate=0.5).values():
            assert cost.recovery_seconds > 0
            assert cost.total_seconds == (
                cost.comp_seconds + cost.comm_seconds
                + cost.recovery_seconds)

    def test_quadrant_plans_name_their_quadrant(self):
        out = prices(shape(100_000, 1000), 50)
        for quadrant, key in PLAN_OF_QUADRANT.items():
            assert out[key].quadrant == quadrant
            assert out[key].plan.key == key
        assert out["qd2-fp"].description == PLANS["qd2-fp"].description

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend(shape(10, 10), 0.0)
        with pytest.raises(ValueError):
            recommend(shape(10, 10), 5, scan_rate=0)
        with pytest.raises(ValueError):
            prices(shape(10, 10), 5, crash_rate=-1.0)


class TestCodecSpelling:
    """``TrainConfig().codec`` is ``""``; the advisor takes it as-is."""

    def test_empty_codec_prices_as_none(self):
        s = shape(1_000_000, 10_000)
        assert prices(s, 100, codec="") == prices(s, 100, codec="none")

    def test_empty_codec_recommends_as_none(self):
        s = shape(1_000_000, 10_000)
        assert recommend(s, 100, codec="") == recommend(s, 100,
                                                        codec="none")

    def test_policy_built_from_config_codec_consults(self, small_sparse):
        config = TrainConfig(num_trees=2, num_layers=3, num_candidates=8)
        cluster = ClusterConfig(2)
        binned = bin_dataset(small_sparse, config.num_candidates)
        session = TrainingSession(get_plan("qd2").build(config, cluster),
                                  binned)
        session.policy = AdaptivePolicy(
            *workload_of(binned, config, cluster), cluster.network,
            every=1, codec=config.codec)
        (decision,) = session.run().decisions
        assert decision.current_plan == "qd2"


class TestRecommend:
    def test_high_dim_prefers_vero(self):
        rec = recommend(shape(1_000_000, 100_000), 200)
        assert rec.best.quadrant == "QD4"

    def test_multiclass_prefers_vero(self):
        rec = recommend(shape(5_000_000, 5_000, c=10), 100)
        assert rec.best.quadrant == "QD4"

    def test_low_dim_many_instances_prefers_horizontal(self):
        rec = recommend(shape(100_000_000, 30, q=10, layers=6), 30)
        assert rec.best.quadrant == "QD2"

    def test_fast_network_shifts_toward_horizontal(self):
        """Section 6's Gender finding: the 10 Gbps production network
        relieves horizontal partitioning's aggregation bottleneck, so
        QD2's cost relative to QD4 shrinks."""
        slow = recommend(shape(10_000_000, 50_000, layers=7), 30,
                         network=NetworkModel.laboratory())
        fast = recommend(shape(10_000_000, 50_000, layers=7), 30,
                         network=NetworkModel.production())
        gap = lambda rec: (  # noqa: E731 — QD2 cost relative to QD4
            next(e for e in rec.ranking if e.quadrant == "QD2")
            .total_seconds
            / next(e for e in rec.ranking if e.quadrant == "QD4")
            .total_seconds
        )
        assert gap(fast) < gap(slow)

    def test_memory_budget_excludes_horizontal(self):
        # Section 3.1.4 Age example: horizontal histograms need 56.6 GiB
        rec = recommend(
            shape(48_000_000, 330_000, c=9), 50,
            memory_budget_bytes=30 * 2**30,
        )
        assert rec.best.quadrant in ("QD3", "QD4")
        assert any("excluded" in r for r in rec.reasons)

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError, match="no quadrant"):
            recommend(shape(48_000_000, 330_000, c=9), 50,
                      memory_budget_bytes=1024)

    def test_reasons_name_the_winner(self):
        rec = recommend(shape(1_000_000, 100_000), 200)
        assert any(rec.best.quadrant in r for r in rec.reasons)

    def test_ranking_sorted(self):
        rec = recommend(shape(1_000_000, 10_000), 100)
        totals = [e.total_seconds for e in rec.ranking]
        assert totals == sorted(totals)


class TestCalibration:
    def test_default_rate_order_of_magnitude(self):
        assert 1e6 <= DEFAULT_SCAN_RATE <= 1e10


class TestAgainstSimulator:
    """The advisor's winner matches the simulated winner on the two
    regimes the paper contrasts (validated end-to-end)."""

    def run(self, name, dataset, cfg, cluster):
        binned = bin_dataset(dataset, cfg.num_candidates)
        result = get_plan(name).build(cfg, cluster).fit(binned, num_trees=2)
        return result.mean_tree_seconds()

    def test_high_dim_regime(self):
        dataset = make_classification(5_000, 5_000, density=0.01,
                                      seed=91)
        cfg = TrainConfig(num_trees=2, num_layers=6, num_candidates=20)
        cluster = ClusterConfig(num_workers=8)
        measured = {
            q: self.run(name, dataset, cfg, cluster)
            for q, name in (("QD2", "qd2"), ("QD4", "qd4"))
        }
        avg_nnz = dataset.features.nnz / dataset.num_instances
        rec = recommend(
            WorkloadShape(5_000, 5_000, 8, 6, 20), avg_nnz,
        )
        simulated_winner = min(measured, key=measured.get)
        assert rec.best.quadrant == simulated_winner == "QD4"
