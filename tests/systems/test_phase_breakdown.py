"""Phase-breakdown tests: the Section 3.2.4 cost ordering.

The paper argues split finding (``O(qD/W)``) and node splitting
(``O(N)``/``O(N/W)``) are both dominated by histogram construction
(``O(Nd/W)``) — here validated on the simulator's measured phase times.
"""

from __future__ import annotations

import gc

import pytest

from repro import ClusterConfig, TrainConfig, get_plan, \
    make_classification
from repro.data.dataset import bin_dataset
from repro.systems.base import PHASES, WorkerClock

#: interleaved fits per plan; phase times are judged on their best
REPEATS = 5


@pytest.fixture(scope="module")
def phase_run():
    # dense-ish workload where d (nnz per row) is large relative to q
    ds = make_classification(8_000, 400, density=0.5, seed=55)
    cfg = TrainConfig(num_trees=3, num_layers=6, num_candidates=16)
    binned = bin_dataset(ds, cfg.num_candidates)
    cluster = ClusterConfig(num_workers=4)
    # the garbage collector is off while fits are timed, as in ``timeit``
    runs = {name: [] for name in ("qd2", "qd4")}
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, results in runs.items():
                results.append(
                    get_plan(name).build(cfg, cluster).fit(binned))
    finally:
        gc.enable()
    return runs


def best_phase_totals(results):
    """Per phase, the sum over trees of each tree's best time across the
    repeated fits: a scheduler stall must slow the same tree's phase in
    every fit to move the total."""
    return {
        phase: sum(
            min(result.tree_reports[t].phase_seconds[phase]
                for result in results)
            for t in range(len(results[0].tree_reports)))
        for phase in PHASES
    }


class TestPhaseBreakdown:
    def test_every_tree_reports_all_phases(self, phase_run):
        for results in phase_run.values():
            for result in results:
                for report in result.tree_reports:
                    assert set(report.phase_seconds) == set(PHASES)
                    assert all(v >= 0
                               for v in report.phase_seconds.values())

    def test_histogram_construction_dominates(self, phase_run):
        """Section 3.2.4: histogram construction is the most expensive
        computation phase."""
        for name, results in phase_run.items():
            totals = best_phase_totals(results)
            assert totals["histogram"] == max(totals.values()), (name,
                                                                 totals)
            assert totals["histogram"] > totals["split-find"]
            assert totals["histogram"] > totals["node-split"]

    def test_phases_account_for_most_of_comp(self, phase_run):
        for results in phase_run.values():
            for report in (r for result in results
                           for r in result.tree_reports):
                phase_sum = sum(report.phase_seconds.values())
                # per-phase maxima may exceed or trail the max-of-totals
                # slightly, but must be the same order of magnitude
                assert 0.5 * report.comp_seconds <= phase_sum <= \
                    2.0 * report.comp_seconds


class SpyClock(WorkerClock):
    """A worker clock that records the ``(worker, phase)`` of every timed
    block opened on it."""

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self.blocks = []

    def timed(self, worker=None, phase="histogram"):
        self.blocks.append((worker, phase))
        return super().timed(worker, phase)


class TestNodeStatisticsAreTimed:
    """Node totals are split-find work on every partition: a horizontal
    plan charges each worker its own local gather, a vertical one charges
    every worker the one gather they all repeat."""

    @pytest.mark.parametrize("key,charged", [
        ("qd1", [0, 1, 2]), ("qd2", [0, 1, 2]), ("qd2-ps", [0, 1, 2]),
        ("vero", [None]), ("qd2-fp", [None]),
    ])
    def test_compute_stats_charges_split_find(self, key, charged):
        binned = bin_dataset(make_classification(300, 8, seed=5), 8)
        system = get_plan(key).build(
            TrainConfig(num_trees=1, num_layers=3, num_candidates=8),
            ClusterConfig(num_workers=3))
        system.setup(binned)
        grad, hess = system.loss.gradients(
            binned.labels, system.loss.init_scores(binned.num_instances))
        clock = SpyClock(3)
        system.partition.compute_stats(system, [0], grad, hess, clock)
        assert clock.blocks == [(w, "split-find") for w in charged]
        assert (clock.phase_seconds["split-find"] > 0).all()
        assert clock.seconds.tolist() == \
            clock.phase_seconds["split-find"].tolist()
