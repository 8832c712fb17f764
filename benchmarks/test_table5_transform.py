"""Table 5 (Appendix A): horizontal-to-vertical transformation costs.

Per dataset: data loading, candidate-split computation, the repartition
under three encodings (naive 12-byte pairs / compressed pairs /
compressed + blockified = Vero), and the label broadcast.  Paper's shape:
compression and blockify each shave a substantial slice off repartition,
and the whole transformation is a small fraction of data loading +
sketching.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, load_catalog
from repro.bench.report import simple_table
from repro.cluster.transform import horizontal_to_vertical

DATASETS = ("rcv1", "rcv1-multi", "synthesis")
SCALE = 0.25
CLUSTER = ClusterConfig(num_workers=8)


@pytest.fixture(scope="module")
def transform_reports():
    reports = {}
    for name in DATASETS:
        dataset = load_catalog(name, scale=SCALE)
        result = horizontal_to_vertical(dataset, CLUSTER,
                                        num_candidates=20)
        reports[name] = result.report
    return reports


def test_table5_transformation_cost(benchmark, transform_reports,
                                    record_table):
    reports = benchmark.pedantic(lambda: transform_reports, rounds=1,
                                 iterations=1)
    rows = []
    for name, report in reports.items():
        rows.append([
            name,
            f"{report.load_data_seconds:.3f}s",
            f"{report.get_splits_seconds:.3f}s",
            f"{report.repartition_seconds['naive']:.4f}s",
            f"{report.repartition_seconds['compressed']:.4f}s",
            f"{report.repartition_seconds['blockified']:.4f}s",
            f"{report.broadcast_label_seconds:.4f}s",
        ])
    record_table(
        "table5",
        simple_table(
            "Table 5 — transformation cost "
            f"(W=8, surrogates at {SCALE:.0%} scale)",
            ["dataset", "load", "get-splits", "repart-naive",
             "repart-compress", "repart-vero", "bcast-label"],
            rows,
        ),
    )
    for name, report in reports.items():
        seconds = report.repartition_seconds
        # each optimization helps: naive > compressed > blockified
        assert seconds["naive"] > seconds["compressed"], name
        assert seconds["compressed"] > seconds["blockified"], name
        # the compression is ~4x (Section 4.2.1)
        assert report.compression_ratio >= 4.0, name
        # the extra steps of vertical partitioning stay a modest share of
        # load + sketch time (Appendix A: 10-24% on the real datasets).
        # Simulated terms only — disk load and sketch transfer — so the
        # host-timed part of get-splits cannot decide the assertion.
        extra = seconds["blockified"] + report.broadcast_label_seconds
        base = (report.load_data_seconds
                + CLUSTER.network.transfer_time(report.sketch_bytes))
        assert extra < 0.5 * base, name
