"""Self-test of the benchmark harness, at a tiny size (about 20 s).

    python bench/e2e/selftest.py

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Asserts
that what the harness emits is what ``BENCHMARK.json`` declares, that the
span arithmetic holds, and that the traced pass leaves the program as it
found it.
"""

import re
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 3


def check_declaration(spec):
    groups = {"workloads": 8, "end_to_end": 16, "per_layer": 128}
    for group, limit in groups.items():
        names = [entry["name"] for entry in spec[group]]
        assert 1 <= len(names) <= limit, (group, len(names))
        assert len(set(names)) == len(names), f"duplicate name in {group}"
        for name in names:
            assert NAME.match(name), f"bad {group} name {name!r}"


def check_emitted(spec):
    """Each run emits exactly the declared metrics, with no failure."""
    for workload in spec["workloads"]:
        name = workload["name"]
        digests = set()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            record = run.measure(name, SEED, 0.05, trace, tiny=True)
            declared = {entry["name"] for entry in spec[group]}
            assert set(record["metrics"]) == declared, (
                name, group, set(record["metrics"]) ^ declared)
            assert record["attempted"] >= 1 and record["failed"] == 0, \
                (name, record["failures"])
            assert record["failures"] == [], (name, record["failures"])
            digests.add(record["sim_digest"])
            if trace:
                assert record["missing_spans"] == [], record["missing_spans"]
                coverage = record["metrics"]["bench.span_coverage_share"]
                assert 0.0 < coverage <= 1.0, (name, coverage)
        assert len(digests) == 1, f"{name}: runs disagree on sim_digest"
        print(f"ok  {name}: declared metrics emitted, one sim_digest")


def check_tracer():
    """Span arithmetic, and a clean uninstall."""
    import repro.core.split
    import repro.systems.base
    from repro.core.histogram import HistogramBuilder

    original = repro.core.split.find_best_split
    build = HistogramBuilder.build_rowstore
    workload = workloads.build("train-vero-sparse", tiny=True)
    workload.generate(SEED)
    untraced = workload.operate()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert repro.systems.base.find_best_split is not original
        begun = time.perf_counter()
        traced = workload.operate(tracer)
        wall = time.perf_counter() - begun
    finally:
        tracer.uninstall()
    assert repro.core.split.find_best_split is original
    assert repro.systems.base.find_best_split is original
    assert HistogramBuilder.build_rowstore is build
    assert tracer.missing == [], tracer.missing
    assert traced.sim_digest == untraced.sim_digest

    own = tracing.self_seconds(tracer.spans)
    assert min(own) > -1e-6, min(own)
    assert sum(own) <= wall, (sum(own), wall)
    summary = tracing.summarise(tracer.spans, 1)
    assert abs(sum(cell["busy_s"] for cell in summary["layers"].values())
               - summary["covered_s"]) < 1e-9
    assert sum(summary["phases"].values()) <= summary["covered_s"] + 1e-9
    print(f"ok  tracer: {len(tracer.spans)} spans, self times >= 0 and "
          "within the wall; every rebinding removed")


def check_yardstick():
    """Samples arrive during an interval, correct it by the slowdown they
    found, and stop when told to."""
    probe = hostspeed.SpeedProbe()
    probe.start()
    begun = time.perf_counter()
    while time.perf_counter() - begun < 0.3:
        hostspeed.loop_unit()
    ended = time.perf_counter()
    probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    found = probe.corrected(begun, ended)
    assert len(probe.samples) >= 5, len(probe.samples)
    for key in ("slowdown", "loop_slowdown", "array_slowdown"):
        assert 0.5 < found[key] < 20.0, found
    assert 0.0 < found["seconds"] * found["slowdown"] < ended - begun, found
    taken = len(probe.samples)
    assert probe.corrected(ended, ended + 0.001)["seconds"] > 0.0
    assert len(probe.samples) == taken
    print(f"ok  yardstick: {len(probe.samples)} samples in 0.3 s, host "
          f"{found['slowdown']:.2f}x slower than nominal")


def main():
    spec = run.declaration()
    check_declaration(spec)
    check_yardstick()
    check_tracer()
    check_emitted(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
