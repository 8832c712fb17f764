"""Ablation: number of candidate splits ``q`` vs the exact greedy ceiling.

The paper fixes ``q = 20`` (Section 5.1).  This bench sweeps ``q`` and
compares model quality and per-tree cost against the exact greedy
algorithm, showing the tradeoff that makes a small ``q`` the right
choice: quality saturates quickly while histogram size — and with it the
horizontal quadrants' communication (``Sizehist ∝ q``) — keeps growing.
"""

from __future__ import annotations

import time

import pytest

from repro import ClusterConfig, GBDT, TrainConfig, get_plan, \
    make_classification
from repro.bench.report import simple_table
from repro.core.exact import ExactGBDT
from repro.data.dataset import bin_dataset

TREES = 5
Q_SWEEP = (2, 4, 8, 20, 64)


def test_ablation_candidate_splits(benchmark, record_table):
    dataset = make_classification(6_000, 150, density=0.4, seed=83)
    train, valid = dataset.split(0.8, seed=84)

    def run():
        out = {}
        for q in Q_SWEEP:
            cfg = TrainConfig(num_trees=TREES, num_layers=6,
                              num_candidates=q, learning_rate=0.3)
            binned = bin_dataset(train, q)
            start = time.perf_counter()
            result = GBDT(cfg).fit(train, valid, binned=binned)
            seconds = time.perf_counter() - start
            comm = get_plan("qd2").build(cfg, ClusterConfig(4)).fit(
                binned, num_trees=1).comm.total_bytes
            out[f"q={q}"] = (result.evals[-1].metric_value, seconds,
                             comm)
        cfg = TrainConfig(num_trees=TREES, num_layers=6,
                          learning_rate=0.3)
        start = time.perf_counter()
        result = ExactGBDT(cfg).fit(train, valid)
        out["exact"] = (result.evals[-1].metric_value,
                        time.perf_counter() - start, None)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (auc_value, seconds, comm) in results.items():
        rows.append([
            label, f"{auc_value:.4f}", f"{seconds:.2f}s",
            "-" if comm is None else f"{comm / 1e6:.2f}MB",
        ])
    record_table(
        "ablation_candidates",
        simple_table(
            "Ablation — candidate splits q vs exact greedy "
            f"(N=6K, D=150, {TREES} trees; comm = QD2 wire for 1 tree)",
            ["method", "valid AUC", "train time", "QD2 wire/tree"],
            rows,
        ),
    )
    aucs = {label: v[0] for label, v in results.items()}
    # quality saturates: q=20 sits within a point of exact greedy
    assert aucs["q=20"] >= aucs["exact"] - 0.01
    # but a starved q costs real accuracy
    assert aucs["q=2"] < aucs["q=20"]
    # while communication keeps growing linearly with q
    comms = {label: v[2] for label, v in results.items()
             if v[2] is not None}
    assert comms["q=64"] > 2.5 * comms["q=20"]
