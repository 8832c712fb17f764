"""The one harness every component bench runs on.

A script under ``bench/`` builds a report body and declares its gates;
everything else is here, once: the ``--quick`` / ``--check`` / ``--out``
parser, the host fingerprint, the best-of-windows timer, the JSON writer
and the gate collector that prints ``MISSED: ...`` and yields the exit
status.

Where the report lands follows the mode.  Full mode writes the committed
repo-root snapshot ``BENCH_<name>.json``; quick mode writes
``bench/out/<name>-quick.json`` (git-ignored), so a CI-sized run can
never replace a committed full-mode record.

Gate rule (DESIGN.md §17): an exact property is a tier-1 test, not a
gate.  ``Bench.gate`` is for what only bench scale or a second backend
can show — the live-vs-live ratios that pin constants in ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.kernels import available_backends

ROOT = Path(__file__).resolve().parent.parent


def time_ops(fn, min_seconds: float) -> float:
    """Best-of-three-windows ops/sec of ``fn``.

    Each window runs for at least ``min_seconds`` (or 2000 calls); the
    fastest window wins, so a scheduler hiccup during one window cannot
    tank either side of a ratio.
    """
    fn()  # warmup: lazy caches, one-off JIT compilation
    best = 0.0
    for _ in range(3):
        reps = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < min_seconds and reps < 2000:
            fn()
            reps += 1
            elapsed = time.perf_counter() - start
        best = max(best, reps / elapsed)
    return best


def fingerprint() -> dict:
    """What a reader needs to place a host-time number."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "available_backends": available_backends(),
    }


class Bench:
    """One run of one component bench: parsed mode, gates, report."""

    def __init__(self, name: str, doc: str):
        parser = argparse.ArgumentParser(description=doc)
        parser.add_argument("--quick", action="store_true",
                            help="CI-sized workload")
        parser.add_argument("--check", action="store_true",
                            help="exit non-zero if a gate is missed")
        parser.add_argument("--out", type=Path, default=None,
                            help="report path (default: BENCH_<name>.json "
                                 "in full mode, bench/out/<name>-quick.json "
                                 "in quick mode)")
        args = parser.parse_args()
        self.name = name
        self.quick = args.quick
        self.check = args.check
        self.mode = "quick" if args.quick else "full"
        self.out = args.out or (
            ROOT / "bench" / "out" / f"{name}-quick.json" if args.quick
            else ROOT / f"BENCH_{name}.json")
        self.host = fingerprint()
        self.gates = 0
        self.missed = []
        print(f"{name} bench ({self.mode} workload)")

    def gate(self, ok: bool, message: str) -> None:
        """Declare one gate; ``message`` says what was missed."""
        self.gates += 1
        if not ok:
            self.missed.append(message)

    def finish(self, body: dict) -> int:
        """Write the report, print the misses, return the exit status."""
        report = {
            "generated_by": f"bench/{Path(sys.argv[0]).name}",
            "mode": self.mode,
            "host": self.host,
            **body,
        }
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {self.out}")
        for message in self.missed:
            print(f"MISSED: {message}")
        print(f"{self.gates} gate(s) declared, {len(self.missed)} missed")
        return 1 if (self.missed and self.check) else 0
