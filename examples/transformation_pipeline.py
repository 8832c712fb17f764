"""Walk through the horizontal-to-vertical transformation (Section 4.2.1).

Shows each of the five steps on a sparse dataset and the effect of the two
optimizations (pair compression, blockify) on the repartition cost —
Appendix A / Table 5 in miniature — and the column groups' balance.

Usage::

    python examples/transformation_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import ClusterConfig, load_catalog
from repro.cluster.transform import horizontal_to_vertical


def main() -> None:
    dataset = load_catalog("rcv1", scale=0.4)
    cluster = ClusterConfig(num_workers=8)
    print(f"dataset: {dataset}")
    print(f"cluster: {cluster.num_workers} workers, "
          f"{cluster.network.bandwidth_gbps:g} Gbps")

    result = horizontal_to_vertical(dataset, cluster, num_candidates=20)
    report = result.report

    print("\nstep costs (simulated + measured):")
    print(f"  load data          : {report.load_data_seconds:8.3f}s")
    print(f"  get splits         : {report.get_splits_seconds:8.3f}s "
          f"(sketch traffic {report.sketch_bytes / 1e3:.1f} KB)")
    for encoding in ("naive", "compressed", "blockified"):
        print(f"  repartition [{encoding:<11}]: "
              f"{report.repartition_seconds[encoding]:8.3f}s  "
              f"{report.repartition_bytes[encoding] / 1e6:6.2f} MB")
    print(f"  broadcast labels   : "
          f"{report.broadcast_label_seconds:8.3f}s "
          f"({report.broadcast_label_bytes / 1e6:.2f} MB)")
    print(f"\npair compression: {report.compression_ratio:.1f}x "
          f"(12-byte raw pairs -> encoded feature id + bin index)")

    print("\ncolumn groups (greedy load balancing, Section 4.2.3):")
    binned = result.global_binned
    pairs = np.bincount(binned.binned.indices, minlength=binned.num_features)
    loads = [int(pairs[group].sum()) for group in result.groups]
    for worker, (group, load) in enumerate(zip(result.groups, loads)):
        print(f"  worker {worker}: {group.size:5d} features, "
              f"{load:8d} key-value pairs")
    imbalance = max(loads) / (sum(loads) / len(loads))
    print(f"  imbalance (max/mean): {imbalance:.3f}")


if __name__ == "__main__":
    main()
