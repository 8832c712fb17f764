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
from repro.systems.base import PHASES

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
