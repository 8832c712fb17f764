"""Wire-codec benchmark: raw vs encoded bytes and codec throughput.

Trains every registry plan on an RCV1-like sparse synthetic workload
under the ``sparse`` codec stack and records, per plan, the raw and
encoded bytes of each ledger kind.  Separately measures encode/decode
throughput of each codec kernel so the compute-for-bytes trade is
quantified, and writes everything to ``BENCH_comm.json``.

Usage::

    PYTHONPATH=src python bench/comm_bench.py            # full workload
    PYTHONPATH=src python bench/comm_bench.py --quick    # CI-sized

No gates: both former ones are exact, so tier-1 asserts them — a model
bit-identical to the dense baseline on every plan
(``tests/systems/test_chaos.py::TestChaosWithCodec``) and the >= 3x
histogram-aggregation byte reduction on this shape
(``tests/cluster/test_wire_aggregate.py::TestLedgerAndModelUnchanged``).
"""

from __future__ import annotations

import numpy as np

from _harness import Bench, time_ops
from repro.cluster.codecs import (AdaptivePlacementCodec, DeltaIndexCodec,
                                  SparseHistogramCodec, varint_decode,
                                  varint_encode)
from repro.config import ClusterConfig, TrainConfig
from repro.core.histogram import Histogram
from repro.data.dataset import bin_dataset
from repro.data.synthetic import make_classification
from repro.systems import make_system
from repro.systems.plans import plan_keys

HIST_KIND = "hist-aggregation"


def time_mbps(fn, nbytes: int, min_seconds: float) -> float:
    """Best-of-windows MB/s of ``fn`` over a ``nbytes`` payload."""
    return time_ops(fn, min_seconds) * nbytes / 1e6


def bench_throughput(quick: bool) -> dict:
    """Encode/decode MB/s of each codec kernel (rates are per byte of
    the *dense* payload, so they compare against shipping it raw)."""
    min_s = 0.1 if quick else 0.5
    rng = np.random.default_rng(0)
    results = {}

    # sparse histogram codec at RCV1-like 1% density
    hist = Histogram(2000, 16, 1)
    occupied = rng.choice(hist.grad.shape[0],
                          size=hist.grad.shape[0] // 100, replace=False)
    hist.grad[occupied] = rng.standard_normal((occupied.size, 1))
    hist.hess[occupied] = rng.random((occupied.size, 1))
    codec = SparseHistogramCodec()
    enc = codec.encode(hist)
    results["sparse_hist_encode"] = time_mbps(
        lambda: codec.encode(hist), hist.nbytes, min_s)
    results["sparse_hist_decode"] = time_mbps(
        lambda: codec.decode(enc), hist.nbytes, min_s)

    # adaptive placement on a skewed split
    n = 100_000 if quick else 1_000_000
    go_left = np.zeros(n, dtype=bool)
    go_left[rng.choice(n, size=n // 50, replace=False)] = True
    pcodec = AdaptivePlacementCodec()
    penc = pcodec.encode(go_left)
    results["adaptive_placement_encode"] = time_mbps(
        lambda: pcodec.encode(go_left), penc.raw_nbytes, min_s)
    results["adaptive_placement_decode"] = time_mbps(
        lambda: pcodec.decode(penc, n), penc.raw_nbytes, min_s)

    # delta index on spatially correlated node ids
    ids = np.sort(rng.integers(0, 15, size=n)).astype(np.int32)
    icodec = DeltaIndexCodec()
    ienc = icodec.encode(ids)
    results["delta_index_encode"] = time_mbps(
        lambda: icodec.encode(ids), ids.nbytes, min_s)
    results["delta_index_decode"] = time_mbps(
        lambda: icodec.decode(ienc), ids.nbytes, min_s)

    # raw varint kernels
    values = rng.integers(0, 1 << 20, size=n).astype(np.uint64)
    packed = varint_encode(values)
    results["varint_encode"] = time_mbps(
        lambda: varint_encode(values), values.nbytes, min_s)
    results["varint_decode"] = time_mbps(
        lambda: varint_decode(packed, values.size), values.nbytes, min_s)

    for name, mbps in results.items():
        print(f"  {name:28s} {mbps:10.1f} MB/s")
    return {k: round(v, 2) for k, v in results.items()}


def bench_plans(quick: bool) -> dict:
    """Raw (what the dense wire format ships) vs sparse-codec bytes of
    every plan, per ledger kind."""
    if quick:
        rows, cols, trees, layers = 600, 800, 2, 4
    else:
        rows, cols, trees, layers = 1000, 2000, 2, 5
    dataset = make_classification(rows, cols, density=0.01, seed=7)
    binned = bin_dataset(dataset, 16)
    cluster = ClusterConfig(num_workers=4)
    config = TrainConfig(num_trees=trees, num_layers=layers,
                         num_candidates=16, codec="sparse")
    results = {}
    for plan_key in plan_keys():
        comm = make_system(plan_key, config, cluster).fit(binned).comm
        kinds = {}
        for kind, wire in sorted(comm.bytes_by_kind.items()):
            raw = comm.raw_bytes_by_kind[kind]
            kinds[kind] = {
                "raw_bytes": int(raw),
                "wire_bytes": int(wire),
                "reduction": round(raw / wire, 3) if wire else None,
            }
        results[plan_key] = {
            "dense_total_bytes": int(comm.total_raw_bytes),
            "encoded_total_bytes": int(comm.total_bytes),
            "kinds": kinds,
        }
        hist = kinds.get(HIST_KIND)
        print(f"  {plan_key:12s} total {comm.total_raw_bytes:>12,} -> "
              f"{comm.total_bytes:>12,}"
              + (f"  hist {hist['reduction']:.2f}x" if hist else ""))
    return results


def main() -> int:
    bench = Bench("comm", __doc__)
    print("plan sweep (RCV1-like sparse synthetic, dense vs sparse codec):")
    plans = bench_plans(bench.quick)
    print("codec kernel throughput:")
    throughput = bench_throughput(bench.quick)
    return bench.finish({"plans": plans, "throughput_mbps": throughput})


if __name__ == "__main__":
    raise SystemExit(main())
