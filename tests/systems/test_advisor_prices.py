"""Golden price list: every advisor price and verdict on a fixed grid.

``tests/data/golden/advisor_prices_v1.json`` pins, with exact float
equality (``float.hex``), what :func:`price_plans` charges every
registry plan and what :func:`recommend` concludes — pick, ranking,
totals, histogram memory, recovery, reasons and codec projections — on
the paper shapes of the catalog entries the advisor-regret grid spans
plus the Section 3.1.4 *Age* shape, crossed with W {2, 4, 8} and
bandwidth {0.1, 1, 10} Gbps.  Codec, backend, crash-rate, depth and
memory-budget variations reach every ``reasons`` line.

The fixture is written by ``tests/data/golden/make_advisor_prices.py``;
a change that moves any price or verdict fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import NetworkModel
from repro.data.catalog import CATALOG
from repro.systems.advisor import (DEFAULT_SCAN_RATE, backend_constants,
                                   price_plans, recommend)
from repro.systems.costmodel import WorkloadShape

GOLDEN = (Path(__file__).resolve().parents[1] / "data" / "golden"
          / "advisor_prices_v1.json")

#: catalog entries on the advisor-regret grid (paper shapes)
CATALOG_NAMES = ("susy", "higgs", "epsilon", "rcv1", "synthesis",
                 "rcv1-multi")
WORKERS = (2, 4, 8)
BANDWIDTHS_GBPS = (0.1, 1.0, 10.0)
GIB = 2**30

#: option sets layered on the default (8 layers, 20 candidates, no
#: codec, portable backend, fault-free, unbounded memory) at W=8, 1 Gbps
VARIATIONS = {
    "codec-sparse": {"codec": "sparse"},
    "codec-delta": {"codec": "delta"},
    "codec-f32": {"codec": "f32"},
    "codec-f16": {"codec": "f16"},
    "backend-numpy": {"backend": "numpy"},
    "backend-numba": {"backend": "numba"},
    "backend-pyloop": {"backend": "pyloop"},
    "crash-0.1": {"crash_rate": 0.1},
    "crash-2": {"crash_rate": 2.0},
    "layers-6": {"layers": 6},
    "layers-14": {"layers": 14},
    "budget-30gib": {"memory_budget_bytes": 30 * GIB},
    "budget-1kib": {"memory_budget_bytes": 1024},
    "age-cli": {"memory_budget_bytes": 30 * GIB, "crash_rate": 0.1,
                "codec": "sparse", "backend": "numba"},
}


def workloads():
    """``name -> (N, D, C, nnz per instance)``: paper shapes, with the
    catalog density times D as the nnz per instance, plus *Age* at the
    ``repro advise`` example's 50 nnz per instance."""
    out = {}
    for name in CATALOG_NAMES:
        entry = CATALOG[name]
        n, d, c = entry.paper_shape
        out[name] = (n, d, c, entry.density * d)
    out["age"] = (48_000_000, 330_000, 9, 50.0)
    return out


def cases():
    """``case id -> options`` of the whole grid."""
    out = {}
    for name in workloads():
        for workers in WORKERS:
            for gbps in BANDWIDTHS_GBPS:
                out[f"{name}/w{workers}/{gbps:g}gbps"] = {
                    "workload": name, "workers": workers, "gbps": gbps}
        for label, extra in VARIATIONS.items():
            out[f"{name}/w8/1gbps/{label}"] = {
                "workload": name, "workers": 8, "gbps": 1.0, **extra}
    return out


def _hex(value: float) -> str:
    return float(value).hex()


def record(options: dict) -> dict:
    """Every plan's price and the advisor's verdict for one case."""
    n, d, c, nnz = workloads()[options["workload"]]
    shape = WorkloadShape(n, d, options["workers"],
                          options.get("layers", 8), 20,
                          c if c > 2 else 1)
    network = NetworkModel(bandwidth_gbps=options["gbps"])
    codec = options.get("codec", "none")
    backend = options.get("backend", "")
    prices = price_plans(shape, nnz, network,
                         backend_constants(DEFAULT_SCAN_RATE, backend),
                         codec=codec)
    out = {"plans": {
        key: {"comp": _hex(cost.comp_seconds),
              "comm": _hex(cost.comm_seconds)}
        for key, cost in sorted(prices.items())
    }}
    try:
        rec = recommend(
            shape, nnz, network=network,
            memory_budget_bytes=options.get("memory_budget_bytes"),
            crash_rate=options.get("crash_rate", 0.0),
            codec=codec, backend=backend,
        )
    except ValueError as exc:
        out["error"] = str(exc)
        return out
    out["recommend"] = {
        "pick": rec.best.quadrant,
        "plan_key": rec.plan_key,
        "description": rec.best.description,
        "ranking": [{
            "quadrant": est.quadrant,
            "plan_key": est.plan_key,
            "comp": _hex(est.comp_seconds),
            "comm": _hex(est.comm_seconds),
            "recovery": _hex(est.recovery_seconds),
            "total": _hex(est.total_seconds),
            "memory": _hex(est.histogram_memory_bytes),
        } for est in rec.ranking],
        "reasons": list(rec.reasons),
        "codec_projections": {
            name: _hex(ratio)
            for name, ratio in sorted(rec.codec_projections.items())
        },
    }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["cases"]


def test_grid_matches_fixture(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_prices_match_golden(case, golden):
    assert record(cases()[case]) == golden[case]


def test_grid_reaches_every_reason(golden):
    reasons = [r for entry in golden.values()
               for r in entry.get("recommend", {}).get("reasons", [])]
    for needle in ("excluded", "predicted cheapest", "expected recovery",
                   "runner-up", "lossless sparse", "priced with the",
                   "kernel backend"):
        assert any(needle in r for r in reasons), needle
    assert any("error" in entry for entry in golden.values())
