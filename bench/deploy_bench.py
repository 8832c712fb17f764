"""Closed-loop deployment benchmark: the canary/rollback grid.

Runs the full deployment controller over the {healthy, degraded} x
{serve, shadow} grid under the ``canary-under-fire`` scenario (flash
crowd plus transport faults) and writes ``BENCH_deploy.json``: the
verdict, the decision log, per-version drift-monitor windows, the
observed canary split, and the deploy-plane wire bill for every cell.

Usage::

    PYTHONPATH=src python bench/deploy_bench.py            # full grid
    PYTHONPATH=src python bench/deploy_bench.py --quick    # CI-sized
    PYTHONPATH=src python bench/deploy_bench.py --check    # enforce gates

Gates — **calibration headroom**, which pins ``RollbackPolicy``'s
margins and needs the bench-scale window: the healthy canary's window
logloss gap must sit inside half the rollback margin while the degraded
one exceeds it by a quarter, so the thresholds separate the two cases
with real headroom rather than riding the edge.  The exact conformance
of every cell — verdict, byte-identical double run, split bounds, ledger
invariants — is tier-1's (``tests/serve/test_deploy.py``).
"""

from __future__ import annotations

from _harness import Bench
from repro.serve.deploy import CanaryPolicy, RollbackPolicy, run_deploy
from repro.serve.scenarios import get_scenario

SCENARIO = "canary-under-fire"
QUICK_SCALE = 0.25

#: the grid: candidate quality x routing mode
CELLS = [
    ("healthy", False),
    ("healthy", True),
    ("degraded", False),
    ("degraded", True),
]


def run_cell(canary_model: str, shadow: bool, scale: float) -> dict:
    report = run_deploy(get_scenario(SCENARIO, scale=scale),
                        canary=CanaryPolicy(shadow=shadow),
                        canary_model=canary_model)
    monitor, split = report["monitor"], report["split"]
    mode = "shadow" if shadow else "serve"
    print(f"  {canary_model:9s} {mode:6s} verdict={report['verdict']:9s}"
          f" canary_ll={monitor['2']['logloss']:.4f}"
          f" incumbent_ll={monitor['1']['logloss']:.4f}"
          f" split={split['observed_fraction']:5.1%}")
    return {
        "scenario": SCENARIO,
        "seed": report["seed"],
        "canary_model": canary_model,
        "mode": mode,
        "verdict": report["verdict"],
        "decisions": report["decisions"],
        "monitor": monitor,
        "split": split,
        "serving": report["serving"],
        "wire": report["wire"],
        "invariants": report["invariants"],
    }


def main() -> int:
    bench = Bench("deploy", __doc__)
    scale = QUICK_SCALE if bench.quick else 1.0
    grid = {
        f"{model}-{'shadow' if shadow else 'serve'}":
            run_cell(model, shadow, scale)
        for model, shadow in CELLS
    }
    margin = RollbackPolicy().logloss_margin
    for mode in ("serve", "shadow"):
        good = grid[f"healthy-{mode}"]["monitor"]
        bad = grid[f"degraded-{mode}"]["monitor"]
        gap_good = good["2"]["logloss"] - good["1"]["logloss"]
        gap_bad = bad["2"]["logloss"] - bad["1"]["logloss"]
        bench.gate(gap_good <= margin / 2,
                   f"healthy-{mode} logloss gap {gap_good:.3f} rides the "
                   "rollback margin")
        bench.gate(gap_bad >= margin * 1.25,
                   f"degraded-{mode} logloss gap {gap_bad:.3f} barely "
                   "clears the rollback margin")
    return bench.finish({"scale": scale, "cells": grid})


if __name__ == "__main__":
    raise SystemExit(main())
