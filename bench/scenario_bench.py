"""Traffic-scenario benchmark: the million-user grid.

Replays every shipped scenario (steady, diurnal, flash-crowd,
heavy-tail multi-tenant, hot-swap-under-fire, ...) through the full
serving stack and writes the grid to ``BENCH_scenarios.json``:
per-tenant p99 and drop rate, SLO violation rate, cache hit rate, and
wire bytes for each scenario.

A second section, ``model_grid``, sweeps the database-perspective
inference axes of Guan et al. — batch size x trees x depth — over the
steady scenario (every cell trains its own model shape in process and
replays the same seeded traffic), pinning how serving latency and
throughput move with model shape.

Usage::

    PYTHONPATH=src python bench/scenario_bench.py            # full grid
    PYTHONPATH=src python bench/scenario_bench.py --quick    # CI-sized

No gates: every number here is simulated, so the conformance this
script once re-checked is exact and tier-1 asserts it —
``tests/serve/test_scenarios.py`` (byte-identical double replay of every
scenario and of the model-grid corner shapes, cache-on == cache-off
scores, every ledger invariant) and ``tests/serve/test_audit.py`` (the
shed path is exercised, so priority admission is never checked
vacuously).
"""

from __future__ import annotations

import dataclasses

from _harness import Bench
from repro.serve.scenarios import SCENARIOS, ScenarioRunner, get_scenario

#: --quick shrinks every scenario window to this factor (rates and the
#: fleet stay untouched, so overload scenarios still overload)
QUICK_SCALE = 0.3


def run_scenario_entry(name: str, scale: float) -> dict:
    """The grid row for one scenario."""
    scenario = get_scenario(name, scale=scale)
    report = ScenarioRunner(scenario).run()

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
          f"cache={hit}")
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
                })
                print(f"  grid t={trees:2d} l={layers} b={batch:3d}: "
                      f"p50={totals['p50_s'] * 1e3:6.2f}ms "
                      f"p99={totals['p99_s'] * 1e3:6.2f}ms "
                      f"throughput={totals['throughput_rps']:8.0f}rps")
    return cells


def main() -> int:
    bench = Bench("scenarios", __doc__)
    scale = QUICK_SCALE if bench.quick else 1.0
    return bench.finish({
        "scale": scale,
        "scenarios": {name: run_scenario_entry(name, scale)
                      for name in SCENARIOS},
        "model_grid": run_model_grid(bench.quick),
    })


if __name__ == "__main__":
    raise SystemExit(main())
