"""Tour of the data-management advisor (the paper's future work).

Section 6 leaves open how to pick a data-management strategy from the
dataset's shape (N, D, C) and the environment (bandwidth, workers,
memory).  `repro.recommend` answers with the Section 3 cost model; this
example walks the paper's own scenarios through it and then cross-checks
one recommendation against the simulator.

Usage::

    python examples/advisor_tour.py
"""

from __future__ import annotations

from repro import (ClusterConfig, NetworkModel, TrainConfig,
                   WorkloadShape, get_plan, make_classification,
                   recommend)
from repro.data.dataset import bin_dataset

SCENARIOS = {
    # name: (shape, avg nnz/instance, network, memory budget GiB)
    "SUSY (low-dim, many instances)": (
        WorkloadShape(5_000_000, 18, 5, 8, 20), 18,
        NetworkModel.laboratory(), None,
    ),
    "RCV1 (high-dim sparse)": (
        WorkloadShape(697_000, 47_000, 5, 8, 20), 74,
        NetworkModel.laboratory(), None,
    ),
    "Age (multi-class industrial, 30 GiB/worker)": (
        WorkloadShape(48_000_000, 330_000, 8, 8, 20, 9), 50,
        NetworkModel.production(), 30.0,
    ),
}


def main() -> None:
    for name, (shape, nnz, network, budget_gb) in SCENARIOS.items():
        budget = budget_gb * 2**30 if budget_gb else None
        rec = recommend(shape, nnz, network=network,
                        memory_budget_bytes=budget)
        print(f"\n{name}")
        print(f"  N={shape.num_instances:,} D={shape.num_features:,} "
              f"C={shape.num_classes} W={shape.num_workers} "
              f"{network.bandwidth_gbps:g} Gbps")
        print(f"  -> {rec.best.quadrant} ({rec.best.description})")
        for reason in rec.reasons:
            print(f"     {reason}")

    # Cross-check the high-dimensional recommendation on the simulator.
    print("\ncross-check on the simulator (scaled RCV1 shape):")
    dataset = make_classification(5_000, 4_700, density=0.015, seed=17,
                                  num_informative=40,
                                  informative_density=0.25)
    cfg = TrainConfig(num_trees=3, num_layers=6, num_candidates=20)
    cluster = ClusterConfig(num_workers=5)
    binned = bin_dataset(dataset, cfg.num_candidates)
    measured = {}
    for quadrant, system in (("QD2", "qd2"), ("QD4", "vero")):
        result = get_plan(system).build(cfg, cluster).fit(binned)
        measured[quadrant] = result.mean_tree_seconds()
        print(f"  {quadrant}: {measured[quadrant] * 1e3:7.1f} ms/tree "
              f"(simulated)")
    rec = recommend(
        WorkloadShape(5_000, 4_700, 5, 6, 20),
        dataset.features.nnz / dataset.num_instances,
    )
    winner = min(measured, key=measured.get)
    verdict = "agrees" if rec.best.quadrant == winner else "disagrees"
    print(f"  advisor says {rec.best.quadrant}; simulator says {winner} "
          f"-> {verdict}")


if __name__ == "__main__":
    main()
