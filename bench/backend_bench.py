"""Kernel-backend benchmark: histogram and predictor hot paths.

Measures, for every timed :mod:`repro.core.kernels` backend, ops/sec of
the histogram scatter grid (the construction-kernel entry points)
relative to the numpy baseline, plus the serving ablation: the uint8
bin-quantized predictor against the float compiled predictor at batch
10k on a wide model.  Writes ``BENCH_backends.json``.

Usage::

    PYTHONPATH=src python bench/backend_bench.py            # full workload
    PYTHONPATH=src python bench/backend_bench.py --quick    # CI-sized
    PYTHONPATH=src python bench/backend_bench.py --check    # enforce gates

Gates (live-vs-live ratios that pin constants in ``src``): numba
histogram >= 2x numpy on the grid (``NumbaBackend.compute_factor``;
needs numba — the CI ``backends`` job asserts it is importable first,
the numpy-only job proves the degradation); quantized predictor >= 1.5x
the float compiled predictor at batch 10k, full mode only (the CI-sized
batch is too small for the cache effect to show).  ``pyloop`` is a
correctness oracle, never timed.  Bit-identity across backends is
tier-1's job (``tests/core/test_kernels.py``,
``tests/serve/test_quantized.py``).
"""

from __future__ import annotations

import numpy as np

from _harness import Bench, time_ops
from repro.config import TrainConfig
from repro.core.gbdt import GBDT
from repro.core.histogram import HistogramBuilder
from repro.data.dataset import bin_dataset
from repro.data.synthetic import make_classification
from repro.serve.compiler import compile_ensemble, quantize_ensemble

NUM_BINS = 20
NUMBA_HIST_TARGET = 2.0
QUANTIZED_TARGET = 1.5
#: backends gated on speed when available (pyloop is a correctness
#: oracle and would dominate the runtime if timed on the full grid)
TIMED_BACKENDS = ("numpy", "numba")


def bench_histogram_grid(backends, quick: bool) -> dict:
    """Ops/sec of the four construction kernels per timed backend."""
    if quick:
        num_rows, num_features = 4_000, 120
    else:
        num_rows, num_features = 20_000, 500
    dataset = make_classification(num_rows, num_features, density=0.1,
                                  seed=99)
    binned = bin_dataset(dataset, NUM_BINS)
    csr = binned.binned
    csc = binned.csc()
    rng = np.random.default_rng(0)
    grad = rng.standard_normal((num_rows, 1))
    hess = rng.random((num_rows, 1))
    node_of = rng.integers(0, 2, size=num_rows).astype(np.int64)
    rows = np.flatnonzero(node_of == 1)
    all_rows = np.arange(num_rows, dtype=np.int64)
    min_s = 0.2 if quick else 0.6

    grid = {}
    baseline = {}
    for backend in backends:
        builder = HistogramBuilder(backend=backend)
        cases = {
            "rowstore_root": lambda: builder.build_rowstore(
                csr, all_rows, grad, hess, NUM_BINS),
            "rowstore_node": lambda: builder.build_rowstore(
                csr, rows, grad, hess, NUM_BINS),
            "colstore_hybrid": lambda: builder.build_colstore_hybrid(
                csc, rows, node_of, 1, grad, hess, NUM_BINS),
            "colstore_layer": lambda: builder.build_colstore_layer(
                csc, node_of, 2, grad, hess, NUM_BINS),
        }
        entry = {}
        for name, fn in cases.items():
            ops = time_ops(fn, min_s)
            record = {"ops": round(ops, 3)}
            if backend == "numpy":
                baseline[name] = ops
            else:
                record["speedup_vs_numpy"] = round(ops / baseline[name], 3)
            entry[name] = record
            rel = "" if backend == "numpy" else \
                f" ({ops / baseline[name]:5.2f}x vs numpy)"
            print(f"  {backend:8s} {name:20s} {ops:10.2f} ops/s{rel}")
        ratios = [entry[n]["speedup_vs_numpy"] for n in entry
                  if "speedup_vs_numpy" in entry[n]]
        if ratios:
            entry["grid_speedup"] = round(min(ratios), 3)
        grid[backend] = entry
    return grid


def bench_predictors(quick: bool) -> dict:
    """Float compiled predictor vs uint8 quantized at batch 10k."""
    if quick:
        batch_rows, num_features, trees, layers = 2_000, 60, 10, 6
    else:
        batch_rows, num_features, trees, layers = 10_000, 400, 40, 7
    train = make_classification(3_000, num_features, density=0.3, seed=11)
    binned = bin_dataset(train, 32)
    cfg = TrainConfig(num_trees=trees, num_layers=layers,
                      num_candidates=32, learning_rate=0.3)
    ensemble = GBDT(cfg).fit(train, binned=binned).ensemble
    compiled = compile_ensemble(ensemble)
    quant = quantize_ensemble(compiled, binned.cuts)

    batch = make_classification(batch_rows, num_features, density=0.3,
                                seed=12)
    dense = compiled.densify(batch.csc())
    binned_batch = quant.bin_batch(batch.csc())
    # a ratio between two predictors only means something if they agree
    assert np.array_equal(compiled.raw_scores(dense),
                          quant.raw_scores_binned(binned_batch)), \
        "quantized predictor diverged from the float path"

    min_s = 0.3 if quick else 1.0
    float_ops = time_ops(lambda: compiled.raw_scores(dense), min_s)
    quant_ops = time_ops(lambda: quant.raw_scores_binned(binned_batch),
                         min_s)
    speedup = quant_ops / float_ops
    print(f"  float compiled   {float_ops:10.2f} batches/s")
    print(f"  uint8 quantized  {quant_ops:10.2f} batches/s "
          f"({speedup:5.2f}x)")
    return {
        "batch_rows": batch_rows,
        "model": {"trees": trees, "layers": layers,
                  "features": num_features},
        "float_ops": round(float_ops, 3),
        "quantized_ops": round(quant_ops, 3),
        "quantized_speedup": round(speedup, 3),
    }


def main() -> int:
    bench = Bench("backends", __doc__)
    available = bench.host["available_backends"]
    print("histogram grid:")
    grid = bench_histogram_grid(
        [b for b in TIMED_BACKENDS if b in available], bench.quick)
    print("predictor ablation:")
    predictor = bench_predictors(bench.quick)

    numba_speedup = grid.get("numba", {}).get("grid_speedup")
    if "numba" in available:
        bench.gate(numba_speedup >= NUMBA_HIST_TARGET,
                   f"numba histogram grid {numba_speedup}x < "
                   f"{NUMBA_HIST_TARGET}x over numpy")
    else:
        print("numba absent: histogram gate not measurable here "
              "(numpy fallback active)")
    if not bench.quick:
        bench.gate(predictor["quantized_speedup"] >= QUANTIZED_TARGET,
                   f"quantized predictor {predictor['quantized_speedup']}x "
                   f"< {QUANTIZED_TARGET}x over the float compiled path")
    return bench.finish({
        "targets": {
            "numba_histogram_min": NUMBA_HIST_TARGET,
            "quantized_predictor_min": QUANTIZED_TARGET,
            "quantized_gate_mode": "full",
        },
        "histogram": grid,
        "numba_histogram_speedup": numba_speedup,
        "predictor": predictor,
    })


if __name__ == "__main__":
    raise SystemExit(main())
