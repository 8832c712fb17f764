"""Tests of the benchmark harness and report formatting."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, TrainConfig, make_classification
from repro.bench.harness import BinnedCache, ExperimentPoint, run_point, \
    sweep
from repro.bench.report import (convergence_series, figure10_table,
                                memory_table, scaled_runtime_table,
                                simple_table)
from repro.systems.base import DistEvalRecord


@pytest.fixture(scope="module")
def small_point():
    ds = make_classification(800, 30, density=0.5, seed=71)
    cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
    cache = BinnedCache()
    binned = cache.get(ds, cfg.num_candidates)
    return run_point("qd4", binned, cfg, ClusterConfig(3), num_trees=2,
                     label="tiny"), ds, cfg, cache


class TestHarness:
    def test_run_point_fields(self, small_point):
        point, *_ = small_point
        assert point.system == "qd4"
        assert point.label == "tiny"
        assert point.comp_seconds > 0
        assert point.comm_seconds > 0
        assert point.total_seconds == pytest.approx(
            point.comp_seconds + point.comm_seconds
        )
        assert point.comm_bytes_per_tree > 0
        assert point.histogram_bytes > 0

    def test_binned_cache_reuses(self, small_point):
        _, ds, cfg, cache = small_point
        a = cache.get(ds, cfg.num_candidates)
        b = cache.get(ds, cfg.num_candidates)
        assert a is b
        c = cache.get(ds, cfg.num_candidates + 1)
        assert c is not a

    def test_sweep_labels(self, small_point):
        _, ds, cfg, cache = small_point
        binned = cache.get(ds, cfg.num_candidates)
        points = sweep("qd2", {"w1": binned, "w2": binned}, cfg,
                       ClusterConfig(2), num_trees=1)
        assert [p.label for p in points] == ["w1", "w2"]


def make_point(label="x", comp=0.5, comm=0.25):
    return ExperimentPoint(
        system="qd4", label=label, comp_seconds=comp, comm_seconds=comm,
        comp_std=0.01, comm_std=0.02, comm_bytes_per_tree=1024.0,
        data_bytes=2048, histogram_bytes=4096,
    )


class TestReport:
    def test_figure10_table_contains_rows(self):
        text = figure10_table("T", {"qd4": [make_point("N=1"),
                                            make_point("N=2")]})
        assert "T" in text
        assert text.count("qd4") == 2
        assert "N=2" in text
        assert "1.0KB" in text

    def test_memory_table(self):
        text = memory_table("M", {"qd2": [make_point()]})
        assert "2.0KB" in text and "4.0KB" in text

    def test_scaled_runtime_table(self):
        rows = {"rcv1": {"vero": 1.0, "xgboost": 17.3}}
        text = scaled_runtime_table("Table 3", rows, baseline="vero")
        assert "17.3x" in text
        assert "1.0x" in text
        # baseline column comes last
        header = text.splitlines()[2]
        assert header.strip().endswith("vero")

    def test_scaled_runtime_missing_cell(self):
        rows = {"mc": {"vero": 1.0}}
        text = scaled_runtime_table("T", rows, baseline="vero")
        assert "-" in text

    def test_convergence_series(self):
        evals = [DistEvalRecord(i, "auc", 0.5 + i / 100, i * 1.0)
                 for i in range(20)]
        text = convergence_series("C", {"vero": evals})
        assert "auc" in text
        assert "0.69" in text  # last point always included

    def test_convergence_empty_system_skipped(self):
        text = convergence_series("C", {"vero": []})
        assert "vero" not in text

    def test_simple_table_alignment(self):
        text = simple_table("S", ["a", "bbbb"], [["1", "2"],
                                                 ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines[2:]}) == 1  # aligned widths


class TestBinnedCacheIdentity:
    def test_id_reuse_cannot_poison_cache(self):
        """id() keys are only unique among live objects; the cache must
        pin its key datasets so a recycled id never returns another
        dataset's binned data."""
        from repro import make_classification
        from repro.bench.harness import BinnedCache

        cache = BinnedCache()
        first = make_classification(50, 5, density=1.0, seed=1)
        binned_first = cache.get(first, 4)
        stale_key = (id(first), 4)
        del first  # without pinning, this id could be reused
        second = make_classification(80, 7, density=1.0, seed=2)
        binned_second = cache.get(second, 4)
        assert binned_second.num_instances == 80
        assert binned_second.num_features == 7
        # the original entry still maps to the original data
        kept_dataset, kept_binned = cache._cache[stale_key]
        assert kept_binned is binned_first
        assert kept_dataset.num_instances == 50


class TestComponentBenchHarness:
    """``bench/_harness.py``: where a report lands follows the mode."""

    @pytest.mark.parametrize("flags, expected", [
        ([], "BENCH_comm.json"),
        (["--quick"], "bench/out/comm-quick.json"),
    ])
    def test_quick_never_targets_the_committed_snapshot(
            self, flags, expected, monkeypatch, capsys):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "_harness", root / "bench" / "_harness.py")
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        monkeypatch.setattr("sys.argv", ["comm_bench.py", *flags])
        bench = harness.Bench("comm", "doc")
        capsys.readouterr()
        assert bench.mode == ("quick" if flags else "full")
        assert bench.out == root / expected
