"""Industrial scenario: multi-class user-persona modelling (Section 6).

The paper's production workloads at Tencent classify users into age
bands / taste tags — large, sparse, multi-class problems on a 10 Gbps
cluster.  This example trains the scaled "age" surrogate (9 age classes)
with Vero and an XGBoost-style baseline under the production network
profile, and prints the convergence race of Figure 12.

Usage::

    python examples/user_persona.py
"""

from __future__ import annotations

from repro import (ClusterConfig, NetworkModel, TrainConfig, get_plan,
                   load_catalog)
from repro.data.dataset import bin_dataset


def main() -> None:
    dataset = load_catalog("age", scale=0.35)
    train, valid = dataset.split(train_fraction=0.85, seed=0)
    print(f"dataset: {dataset}  (scaled surrogate of the Tencent Age "
          f"workload: 48M x 330K x 9 in the paper)")

    config = TrainConfig(
        num_trees=8,
        num_layers=6,
        num_candidates=20,
        learning_rate=0.3,
        objective="multiclass",
        num_classes=dataset.num_classes,
    )
    # Section 6 environment: 10 Gbps production Ethernet.
    cluster = ClusterConfig(num_workers=8,
                            network=NetworkModel.production())
    binned = bin_dataset(train, config.num_candidates)

    results = {}
    for name in ("xgboost", "vero"):
        system = get_plan(name).build(config, cluster)
        results[name] = system.fit(binned, valid=valid)

    print(f"\n{'system':<10} {'time/tree':>12} {'final acc':>10} "
          f"{'wire/tree':>12}")
    for name, result in results.items():
        wire_mb = result.comm.total_bytes / len(result.ensemble) / 1e6
        print(f"{name:<10} {result.mean_tree_seconds() * 1e3:>10.1f}ms "
              f"{result.evals[-1].metric_value:>10.4f} "
              f"{wire_mb:>10.2f}MB")

    print("\nconvergence race (accuracy vs simulated seconds):")
    for name, result in results.items():
        series = "  ".join(
            f"({e.elapsed_seconds:6.2f}s {e.metric_value:.3f})"
            for e in result.evals[::2]
        )
        print(f"  {name:<10} {series}")

    speedup = (results["xgboost"].mean_tree_seconds()
               / results["vero"].mean_tree_seconds())
    print(f"\nVero per-tree speedup over the XGBoost-style baseline: "
          f"{speedup:.1f}x (the paper reports 8.3x on the full-size Age "
          f"dataset)")


if __name__ == "__main__":
    main()
