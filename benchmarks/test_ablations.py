"""Ablation benches for the design choices DESIGN.md calls out:

* histogram subtraction on/off (Section 2.1.2) — identical models, less
  computation;
* column grouping strategy (Section 4.2.3) — greedy LPT vs round-robin vs
  hash: balance of per-worker key-value pairs;
* bitmap vs 4-byte-id placement encoding (Section 4.2.2) — 32x traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, get_plan, \
    make_classification
from repro.bench.report import simple_table

CLUSTER = ClusterConfig(num_workers=8)


@pytest.fixture(scope="module")
def ablation_binned(binned_cache):
    dataset = make_classification(
        20_000, 4_000, density=0.01, seed=81, name="ablation",
        num_informative=40, informative_density=0.25,
    )
    return binned_cache.get(dataset, 20)


def test_ablation_subtraction(benchmark, ablation_binned, record_table):
    """Subtraction halves+ the entries scanned below the root; the model
    is bit-identical with and without it."""
    cfg = TrainConfig(num_trees=2, num_layers=7, num_candidates=20)

    def run():
        out = {}
        for enabled in (True, False):
            system = get_plan("vero").build(cfg, CLUSTER)
            system.use_subtraction = enabled
            out[enabled] = system.fit(ablation_binned, num_trees=2)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    on, off = results[True], results[False]
    record_table(
        "ablation_subtraction",
        simple_table(
            "Ablation — histogram subtraction (Vero, N=20K, D=4K, L=7)",
            ["variant", "comp/tree", "comm/tree"],
            [
                ["subtraction on", f"{on.mean_comp_seconds() * 1e3:.1f}ms",
                 f"{on.mean_comm_seconds() * 1e3:.1f}ms"],
                ["subtraction off",
                 f"{off.mean_comp_seconds() * 1e3:.1f}ms",
                 f"{off.mean_comm_seconds() * 1e3:.1f}ms"],
            ],
        ),
    )
    # identical models
    for t_on, t_off in zip(on.ensemble.trees, off.ensemble.trees):
        assert set(t_on.nodes) == set(t_off.nodes)
    # identical traffic (subtraction is computation-only)
    assert on.comm.total_bytes == off.comm.total_bytes
    # strictly less computation with subtraction
    assert on.mean_comp_seconds() < off.mean_comp_seconds()


def test_ablation_grouping(benchmark, ablation_binned, record_table):
    """Greedy grouping balances key-value pairs across workers at least
    as well as round-robin and hash (the straggler-avoidance argument of
    Section 4.2.3)."""
    cfg = TrainConfig(num_trees=1, num_layers=5, num_candidates=20)

    def run():
        out = {}
        for strategy in ("greedy", "round-robin", "hash"):
            system = get_plan("vero").build(cfg, CLUSTER)
            system.grouping = strategy
            system.setup(ablation_binned)
            loads = np.array(
                [shard.binned.nnz for shard in system.shards],
                dtype=np.float64,
            )
            out[strategy] = float(loads.max() / loads.mean())
        return out

    imbalance = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_grouping",
        simple_table(
            "Ablation — column grouping strategy (max/mean key-value "
            "pairs per worker; 1.0 = perfect balance)",
            ["strategy", "imbalance"],
            [[s, f"{v:.4f}"] for s, v in imbalance.items()],
        ),
    )
    assert imbalance["greedy"] <= imbalance["round-robin"] + 1e-9
    assert imbalance["greedy"] <= imbalance["hash"] + 1e-9
    assert imbalance["greedy"] < 1.05  # near-perfect balance


def test_ablation_bitmap_encoding(benchmark, ablation_binned,
                                  record_table):
    """Placement bitmaps vs shipping 4-byte instance ids: the recorded
    bitmap traffic, scaled by 32, is what the naive encoding would cost
    (Section 4.2.2's 32x claim)."""
    cfg = TrainConfig(num_trees=2, num_layers=7, num_candidates=20)

    def run():
        system = get_plan("vero").build(cfg, CLUSTER)
        return system.fit(ablation_binned, num_trees=2)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    bitmap_bytes = result.comm.bytes_by_kind["placement-bitmap"]
    naive_bytes = bitmap_bytes * 32
    total_with_naive = (result.comm.total_bytes - bitmap_bytes
                        + naive_bytes)
    record_table(
        "ablation_bitmap",
        simple_table(
            "Ablation — placement encoding (Vero, 2 trees)",
            ["encoding", "placement bytes", "total bytes"],
            [
                ["bitmap (1 bit/instance)", f"{bitmap_bytes:,}",
                 f"{result.comm.total_bytes:,}"],
                ["instance ids (4 B/instance)", f"{naive_bytes:,}",
                 f"{total_with_naive:,}"],
            ],
        ),
    )
    assert bitmap_bytes > 0
    # with bitmaps, placement traffic dominates but stays small; the
    # naive encoding would multiply total vertical traffic several-fold
    assert total_with_naive > 5 * result.comm.total_bytes
