"""Quickstart: train distributed GBDT with Vero on a surrogate dataset.

Runs the full pipeline a user of the library would: generate (or load) a
dataset, split it, train Vero on a simulated 8-worker cluster, and inspect
quality, per-tree cost breakdown, and traffic — the quantities the paper's
evaluation revolves around.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ClusterConfig, TrainConfig, get_plan, load_catalog


def main() -> None:
    # The "rcv1" surrogate: high-dimensional sparse binary classification,
    # the regime where the paper shows vertical partitioning shines.
    dataset = load_catalog("rcv1", scale=0.5)
    train, valid = dataset.split(train_fraction=0.8, seed=0)
    print(f"dataset: {dataset}")

    config = TrainConfig(
        num_trees=10,
        num_layers=6,
        num_candidates=20,
        learning_rate=0.3,
    )
    cluster = ClusterConfig(num_workers=8)

    vero = get_plan("vero").build(config, cluster)
    # fit_from_raw runs the horizontal-to-vertical transformation
    # (Section 4.2.1) before training and reports its cost.
    result, transform = vero.fit_from_raw(train, valid=valid)

    print("\ntransformation (Section 4.2.1):")
    report = transform.report
    print(f"  compression ratio : {report.compression_ratio:.1f}x")
    print(f"  repartition       : "
          f"{report.repartition_seconds['blockified'] * 1e3:.1f} ms "
          f"({report.repartition_bytes['blockified'] / 1e6:.2f} MB on "
          f"the wire)")
    print(f"  label broadcast   : "
          f"{report.broadcast_label_seconds * 1e3:.1f} ms")

    print("\nconvergence (valid AUC vs simulated time):")
    for record in result.evals:
        print(f"  tree {record.tree_index:2d}  "
              f"t={record.elapsed_seconds:6.2f}s  "
              f"auc={record.metric_value:.4f}")

    print("\nper-tree cost:")
    print(f"  computation   : {result.mean_comp_seconds() * 1e3:8.1f} ms")
    print(f"  communication : {result.mean_comm_seconds() * 1e3:8.1f} ms")
    print(f"  traffic       : "
          f"{result.comm.total_bytes / len(result.ensemble) / 1e6:8.3f} "
          f"MB/tree")
    print(f"  peak worker memory: "
          f"data {result.memory.data_bytes / 1e6:.2f} MB, "
          f"histograms {result.memory.histogram_bytes / 1e6:.2f} MB")

    # Predictions on new data use the raw (un-binned) feature values.
    preds = vero.predict(result.ensemble, valid)
    print(f"\nfirst five validation probabilities: "
          f"{[round(float(p), 3) for p in preds[:5]]}")


if __name__ == "__main__":
    main()
