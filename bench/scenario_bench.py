"""Traffic-scenario benchmark: the million-user conformance grid.

Replays every shipped scenario (steady, diurnal, flash-crowd,
heavy-tail multi-tenant, hot-swap-under-fire) through the full serving
stack and writes the grid to ``BENCH_scenarios.json``: per-tenant p99
and drop rate, SLO violation rate, cache hit rate, and wire bytes for
each scenario, plus the conformance results the ``--check`` gate
enforces:

* **determinism** — each scenario is run twice from its pinned seed and
  the two ``scenario-report/v1`` encodings must be byte-identical;
* **cache exactness** — scenarios that enable the prediction cache are
  re-run with the cache off and every request's score must be
  bit-identical either way (compared per request id: the cache changes
  the billing schedule, never a score);
* **ledger invariants** — conservation (served + dropped == arrivals),
  priority admission (no ``shed-oldest`` drop of a request while a
  strictly lower-priority request sat queued), single-version batches,
  and per-run score exactness, straight from the report's
  ``invariants`` block.

A second section, ``model_grid``, sweeps the database-perspective
inference axes of Guan et al. — batch size x trees x depth — over the
steady scenario (every cell trains its own model shape in process and
replays the same seeded traffic), pinning how serving latency and
throughput move with model shape.

Usage::

    PYTHONPATH=src python bench/scenario_bench.py            # full grid
    PYTHONPATH=src python bench/scenario_bench.py --quick    # CI-sized
    PYTHONPATH=src python bench/scenario_bench.py --check    # enforce
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.ledger import report_bytes
from repro.serve.scenarios import SCENARIOS, ScenarioRunner, get_scenario

#: --quick shrinks every scenario window to this factor (rates and the
#: fleet stay untouched, so overload scenarios still overload)
QUICK_SCALE = 0.3


def scores_by_request(runner: ScenarioRunner) -> dict:
    """request id -> served score row, from the finished ledger."""
    report = runner.serving_report
    return {
        record.request_id: report.scores[pos]
        for pos, record in enumerate(report.records)
    }


def run_scenario_entry(name: str, scale: float) -> dict:
    """Both conformance runs plus the grid row for one scenario."""
    scenario = get_scenario(name, scale=scale)

    first = ScenarioRunner(scenario)
    report = first.run()
    # reuse the trained models for the repeat runs: determinism of the
    # replay is what is under test, and training is itself covered by
    # the repeat run of the no-cache variant below
    registry, cuts = first.registry, first.cuts
    second = ScenarioRunner(scenario, registry=registry, cuts=cuts)
    replay = second.run()
    deterministic = (report_bytes(report)
                     == report_bytes(replay))

    cache_exact = True
    if scenario.cache_capacity > 0:
        bare = dataclasses.replace(scenario, cache_capacity=0)
        third = ScenarioRunner(bare, registry=registry, cuts=cuts)
        third.run()
        with_cache = scores_by_request(first)
        without = scores_by_request(third)
        cache_exact = set(with_cache) == set(without) and all(
            np.array_equal(with_cache[rid], without[rid])
            for rid in with_cache
        )

    totals = report["totals"]
    tenants = {
        tenant: {
            "priority": stats["priority"],
            "p99_s": stats["p99_s"],
            "drop_rate": stats["drop_rate"],
            "slo_violation_rate": stats["slo_violation_rate"],
        }
        for tenant, stats in report["tenants"].items()
    }
    cache = report["cache"]
    hit = "-" if cache is None else f"{cache['hit_rate']:.1%}"
    print(f"  {name:22s} arrivals={totals['arrivals']:6,} "
          f"drop={totals['drop_rate']:6.1%} "
          f"p99={totals['p99_s'] * 1e3:7.2f}ms "
          f"slo-viol={totals['slo_violation_rate']:6.1%} "
          f"cache={hit} det={deterministic} "
          f"cache_exact={cache_exact}")
    return {
        "seed": scenario.seed,
        "arrivals": totals["arrivals"],
        "served": totals["served"],
        "dropped": totals["dropped"],
        "drop_rate": totals["drop_rate"],
        "p50_s": totals["p50_s"],
        "p99_s": totals["p99_s"],
        "slo_violation_rate": totals["slo_violation_rate"],
        "throughput_rps": totals["throughput_rps"],
        "tenants": tenants,
        "cache": cache,
        "wire": report["wire"],
        "versions_served": report["versions_served"],
        "invariants": report["invariants"],
        "deterministic": deterministic,
        "cache_exact": cache_exact,
    }


def run_model_grid(quick: bool) -> list:
    """Batch x trees x depth cells over the steady scenario.

    Models are trained once per (trees, depth) shape and reused across
    the batch-size axis (only the batching policy changes there), so
    the grid isolates each axis the way the paper's inference
    comparison does.  The deterministic service model scales its
    per-row cost with ``trees * depth`` (the predictor walks every tree
    level per row) and the batching window stretches to ``batch /
    offered_rate`` so the batch-size axis actually binds — otherwise
    every cell would replay the identical schedule.
    """
    base = get_scenario("steady", scale=0.15 if quick else 0.4)
    offered_rate = sum(t.rate_rps for t in base.tenants)
    base_shape_cost = 4 * 4
    batches = (32, 128) if quick else (32, 64, 128)
    trees_grid = (4, 8) if quick else (4, 8, 16)
    layers_grid = (4,) if quick else (3, 5)
    cells = []
    for trees in trees_grid:
        for layers in layers_grid:
            registry, cuts = None, None
            for batch in batches:
                scenario = dataclasses.replace(
                    base, name=f"grid-t{trees}-l{layers}-b{batch}",
                    model_trees=trees, model_layers=layers,
                    max_batch_size=batch,
                    max_delay_s=batch / offered_rate,
                    service_per_row_s=base.service_per_row_s
                    * (trees * layers) / base_shape_cost)
                runner = ScenarioRunner(scenario, registry=registry,
                                        cuts=cuts)
                report = runner.run()
                registry, cuts = runner.registry, runner.cuts
                totals = report["totals"]
                cells.append({
                    "trees": trees,
                    "layers": layers,
                    "batch": batch,
                    "arrivals": totals["arrivals"],
                    "batches": totals["batches"],
                    "p50_s": totals["p50_s"],
                    "p99_s": totals["p99_s"],
                    "throughput_rps": totals["throughput_rps"],
                    "invariants_ok": all(
                        report["invariants"].values()),
                })
                print(f"  grid t={trees:2d} l={layers} b={batch:3d}: "
                      f"p50={totals['p50_s'] * 1e3:6.2f}ms "
                      f"p99={totals['p99_s'] * 1e3:6.2f}ms "
                      f"throughput={totals['throughput_rps']:8.0f}rps")
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload (scaled-down windows)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on any conformance failure")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_scenarios.json")
    args = parser.parse_args()

    mode = "quick" if args.quick else "full"
    scale = QUICK_SCALE if args.quick else 1.0
    print(f"scenario bench ({mode} workload, scale={scale})")
    grid = {name: run_scenario_entry(name, scale) for name in SCENARIOS}
    model_grid = run_model_grid(args.quick)

    report = {
        "generated_by": "bench/scenario_bench.py",
        "mode": mode,
        "scale": scale,
        "numpy": np.__version__,
        "scenarios": grid,
        "model_grid": model_grid,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")

    ok = True
    for name, entry in grid.items():
        if not entry["deterministic"]:
            ok = False
            print(f"MISSED: {name} replay is not byte-identical")
        if not entry["cache_exact"]:
            ok = False
            print(f"MISSED: {name} cache-on scores differ from "
                  "cache-off")
        for invariant, held in entry["invariants"].items():
            if not held:
                ok = False
                print(f"MISSED: {name} violated {invariant}")
    sheds = sum(
        entry["dropped"] for name, entry in grid.items()
        if get_scenario(name).overload == "shed-oldest"
    )
    if sheds == 0:
        ok = False
        print("MISSED: no scenario exercised the shed path — the "
              "priority-admission invariant was checked vacuously")
    for cell in model_grid:
        if not cell["invariants_ok"]:
            ok = False
            print(f"MISSED: model-grid cell t={cell['trees']} "
                  f"l={cell['layers']} b={cell['batch']} violated a "
                  "ledger invariant")
    if ok:
        print("all scenario conformance targets met")
    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":
    raise SystemExit(main())
