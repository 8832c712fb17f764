"""One workload in one fresh process: the measurement protocol.

    imports -> input generation -> provisioning -> 1 warm-up operation
        (all of that is ``setup_s``)
    -> timed operations, tracing off, for ``--seconds`` (to the nearest
        whole operation, at least one): the end-to-end numbers
    -> peak RSS
    -> with ``--trace 1``: a separate traced pass, 1 warm + 2 operations
        (the per-layer numbers, and a ``trace/v1`` file under ``out/``)
    -> untimed correctness post-checks on the last operation

Single process, single thread: ``run.py`` starts this file with the
thread and allocator environment of the protocol (``WORKER_ENV``); run it
through ``run.py``, not by hand.  An operation *fails* if it raises, if its
``sim_digest`` differs from the warm-up's, or if a post-check fails.
Host seconds are speed-corrected by the yardstick of ``hostspeed.py``,
which runs from the first statement to the last; the raw
seconds are reported beside them.
Prints one JSON object as the last line of stdout; ``run.py`` reads it.
"""

import time

START = time.perf_counter()

import hostspeed  # noqa: E402

PROBE = hostspeed.SpeedProbe()
PROBE.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACED_OPERATIONS = 2

#: layers reported as ``<layer>.busy_s`` (self seconds per operation)
BUSY_LAYERS = (
    "sketch", "data.dataset", "cluster.transform", "core.loss",
    "core.histogram", "core.split", "systems.strategies", "cluster.codecs",
    "cluster.comm", "systems.executor", "core.gbdt", "serve.batcher",
    "serve.replica", "serve.sharded", "serve.compiler", "serve.registry",
)
#: layers also reported as ``<layer>.calls`` (calls per operation)
CALL_LAYERS = ("sketch", "data.dataset", "core.loss", "core.histogram",
               "core.split", "cluster.codecs", "cluster.comm",
               "serve.compiler")
#: ``<layer>.<suffix>``: the work count tallied at the layer's boundary
TALLIES = {"core.histogram": "entries", "serve.compiler": "rows"}
#: single spans of ``serve.scenarios`` reported by name
SCENARIO_SPANS = {
    "serve.scenarios.trace_s": "build_trace",
    "serve.scenarios.report_s": "ScenarioRunner.run",
    "serve.scenarios.audit_s": "audit_priority_admission",
}
PHASES = ("sketch", "bin", "transform", "gradient", "stats", "histogram",
          "split-find", "node-split", "eval")
#: program-reported metrics (see ``Outcome.reported``); 0 on the workload
#: kind that has no such thing
REPORTED = (
    "systems.modeled_total_s", "systems.modeled_comp_s",
    "systems.hist_peak_bytes", "systems.data_bytes",
    "cluster.network.records", "cluster.network.sim_s",
    "cluster.codecs.wire_share", "serve.batcher.batches",
    "serve.batcher.shed", "serve.batcher.mean_batch_rows",
    "serve.batcher.sim_p50_ms", "serve.batcher.sim_p99_ms",
    "serve.batcher.sim_queue_mean_ms", "serve.batcher.drop_share",
    "serve.sharded.partial_bytes",
)


def iqr_share(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def timed(operate):
    """One operation under the yardstick: the outcome, and its timing —
    ``raw_s`` beside what ``SpeedProbe.corrected`` makes of it."""
    gc.collect()
    begun = time.perf_counter()
    outcome = operate()
    ended = time.perf_counter()
    return outcome, {"raw_s": ended - begun,
                     **PROBE.corrected(begun, ended)}


def layer_values(summary, reported, setup, timings, traced_timings):
    """Every per-layer metric of one traced pass, by name.  ``timings``
    are those of the untraced operations (see ``timed``)."""
    empty = {"busy_s": 0.0, "calls": 0, "tally": 0}
    layers, names = summary["layers"], summary["names"]
    values = {f"setup.{step}": setup[step]
              for step in ("import_s", "generate_s", "provision_s",
                           "warmup_s")}
    for layer in BUSY_LAYERS:
        values[f"{layer}.busy_s"] = layers.get(layer, empty)["busy_s"]
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = layers.get(layer, empty)["calls"]
    for layer, suffix in TALLIES.items():
        values[f"{layer}.{suffix}"] = layers.get(layer, empty)["tally"]
    for metric, span in SCENARIO_SPANS.items():
        values[metric] = names.get(span, empty)["busy_s"]
    for phase in PHASES:
        values[f"phase.{phase}_s"] = summary["phases"].get(phase, 0.0)
    for metric in REPORTED:
        values[metric] = reported.get(metric, 0)
    def median(key, of=timings):
        return statistics.median(timing[key] for timing in of)

    untraced, traced = median("seconds"), median("seconds", traced_timings)
    values["bench.wall_iqr_share"] = iqr_share(
        [timing["seconds"] for timing in timings])
    values["bench.raw_wall_s"] = median("raw_s")
    values["bench.host_slowdown"] = median("slowdown")
    values["bench.trace_overhead_share"] = (traced - untraced) / untraced
    values["bench.span_coverage_share"] = (
        summary["covered_s"] / median("raw_s", traced_timings))
    return values


def traced_pass(workload, name, expected_digest, failures):
    """1 warm + ``TRACED_OPERATIONS`` operations with spans recorded;
    every rebinding is removed before this returns."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    timings = []
    try:
        workload.operate(tracer)   # warm: the wrappers' first-call costs
        tracer.reset()
        for tracer.op in range(TRACED_OPERATIONS):
            outcome, timing = timed(lambda: workload.operate(tracer))
            timings.append(timing)
            if outcome.sim_digest != expected_digest:
                failures.append(f"traced operation {tracer.op}: sim_digest "
                                "differs from the warm-up's")
    finally:
        tracer.uninstall()
    spans = tracer.spans
    summary = tracing.summarise(spans, TRACED_OPERATIONS)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracing.write_chrome_trace(
        out / f"trace-{name}.json", spans, tracer.missing,
        {"workload": name, "operations": TRACED_OPERATIONS})
    return summary, timings, outcome, tracer.missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="selftest size: same code paths, seconds")
    args = parser.parse_args()
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"worker: no program to measure at {source}")
    sys.path.insert(0, str(source))
    import numpy
    import repro
    from repro.core.kernels import available_backends

    import workloads
    if Path(repro.__file__).resolve().parents[1] != source:
        sys.exit(f"worker: imported repro from {repro.__file__}, "
                 f"not from {source}")
    imported = time.perf_counter()

    workload = workloads.build(args.workload, tiny=args.tiny)
    workload.generate(args.seed)
    generated = time.perf_counter()
    workload.provision()
    provisioned = time.perf_counter()
    warm = outcome = workload.operate()
    ready = time.perf_counter()
    setup = {
        "import_s": imported - START, "generate_s": generated - imported,
        "provision_s": provisioned - generated,
        "warmup_s": ready - provisioned, "raw_s": ready - START,
        **PROBE.corrected(START, ready),
    }

    # operations until the next one would end further from ``--seconds``
    # than this one did; one that raises ends the worker, and the run
    failures, timings = [], []
    begun = time.perf_counter()
    while True:
        outcome, timing = timed(workload.operate)
        timings.append(timing)
        if outcome.sim_digest != warm.sim_digest:
            failures.append(f"operation {len(timings)}: sim_digest "
                            "differs from the warm-up's")
        elapsed = time.perf_counter() - begun
        if elapsed + elapsed / len(timings) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [timing["seconds"] for timing in timings]

    layers, missing, traced = None, [], 0
    if args.trace:
        summary, traced_timings, outcome, missing = traced_pass(
            workload, args.workload, warm.sim_digest, failures)
        traced = len(traced_timings)
        layers = layer_values(summary, outcome.reported, setup, timings,
                              traced_timings)
        if summary["min_self_s"] < -1e-6:
            failures.append("a span's children outlast it: "
                            f"{summary['min_self_s']} s of self time")
    failures += workload.check(outcome)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "setup": setup, "walls": walls, "wall_iqr_share": iqr_share(walls),
        "timings": timings,
        "yardstick": {"nominal_loop_s": hostspeed.NOMINAL_LOOP_S,
                      "nominal_array_s": hostspeed.NOMINAL_ARRAY_S,
                      "array_weight": hostspeed.ARRAY_WEIGHT,
                      "interval_s": hostspeed.INTERVAL_S,
                      "samples": len(PROBE.samples)},
        "peak_rss_mb": peak_rss_mb,
        "wire_bytes": warm.wire_bytes, "sim_s": warm.sim_s,
        "work": warm.work, "sim_digest": warm.sim_digest,
        "attempted": len(walls) + traced, "failures": failures,
        "layers": layers, "missing_spans": missing,
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "backends": available_backends()},
    }))


if __name__ == "__main__":
    try:
        main()
    finally:
        PROBE.stop()   # before the interpreter drops the handler
