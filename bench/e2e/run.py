"""The repo's end-to-end benchmark: five pinned train/serve workloads.

    python bench/e2e/run.py --seed 7
        every workload, every metric by name with its unit, outputs
        checked, one result JSON under bench/e2e/out/

    python bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is one JSON object with
        the end-to-end metrics (--trace 0) or the per-layer ones
        (--trace 1)

The program under test is this repo used as a library — a host-time-bound
simulator — so every number says whether it is host time or simulated
(README.md).  This file only orchestrates: each measurement runs in a
fresh ``worker.py`` process, one at a time.  ``BENCHMARK.json`` declares
the workloads, the metrics, their units and regression bounds; what is
printed is exactly what is declared there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: every worker runs single-threaded, with one hash seed, and with glibc
#: malloc told to keep freed memory (no mmap for large blocks, no trim).
#: Under the default allocator the kernel time one operation pays for
#: mmap/munmap/page-fault churn drifts from 0 to over a second *within a
#: process* in this sandbox; kept memory makes operations after the
#: warm-up repeatable.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(256 << 20),
}
#: a run must end within the driver's 180 s; leave it time to report
WORKER_TIMEOUT_S = 170


def declaration():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def worker(workload, seed, seconds, trace=0, tiny=False):
    """One fresh single-threaded process; returns its JSON record."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ, **WORKER_ENV)
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run: worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace, tiny=False):
    """One run of one workload, as the driver asks for it: one process.

    ``trace 0``: set-up, ``seconds`` of timed operations, the post-checks.
    ``trace 1``: the same, with the traced pass before the post-checks;
    the untraced operations are its reference.
    Host seconds are speed-corrected (``hostspeed.py``).
    """
    main = worker(workload, seed, seconds, trace, tiny)
    failures = list(main["failures"])
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "sim_digest": main["sim_digest"], "attempted": main["attempted"],
        "host": main["host"], "yardstick": main["yardstick"],
    }
    if trace:
        record["metrics"] = main["layers"]
        record["missing_spans"] = main["missing_spans"]
    else:
        wall_s = statistics.median(main["walls"])
        record["metrics"] = {
            "setup_s": main["setup"]["seconds"],
            "wall_s": wall_s,
            "throughput_per_s": main["work"] / wall_s,
            "peak_rss_mb": main["peak_rss_mb"],
            "wire_bytes": main["wire_bytes"],
            "sim_s": main["sim_s"],
        }
        record["work"] = main["work"]
        record["walls"] = main["walls"]
        record["wall_iqr_share"] = main["wall_iqr_share"]
        record["timings"] = main["timings"]
        record["setup"] = main["setup"]
    # several reasons can fail one operation; none fails more than ran
    record["failed"] = min(len(failures), main["attempted"])
    record["failures"] = failures
    return record


def contract_line(record, declared):
    """The driver's result object: exactly the declared metrics."""
    metrics = {
        entry["name"]: {"value": record["metrics"][entry["name"]],
                        "unit": entry["unit"]}
        for entry in declared
    }
    return json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": metrics,
    })


def fingerprint(seed, seconds, host, yardstick):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:   # no git on this host
        git_sha = None
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "platform": platform.platform(), **host,
        "worker_env": WORKER_ENV,
        "git_sha": git_sha,
        "seed": seed,
        "protocol": {
            "run_seconds": seconds, "warmup_operations": 1,
            "traced_operations": 2, "traced_warmup_operations": 1,
            "timed_statistic": "median of speed-corrected seconds",
            "yardstick": {key: yardstick[key] for key in (
                "nominal_loop_s", "nominal_array_s", "array_weight",
                "interval_s")},
        },
    }


def run_suite(seed, seconds, spec):
    """Every workload, untraced then traced; prints every metric."""
    results, failed = {}, False
    for entry in spec["workloads"]:
        name = entry["name"]
        untraced = measure(name, seed, seconds, 0)
        traced = measure(name, seed, seconds, 1)
        results[name] = {"why": entry["why"], "end_to_end": untraced,
                         "per_layer": traced}
        slowdown = statistics.median(
            timing["slowdown"] for timing in untraced["timings"])
        print(f"\n== {name}: {entry['why']}")
        print(f"   operations {untraced['attempted']} untraced "
              f"(wall IQR {untraced['wall_iqr_share']:.1%} of median, host "
              f"{slowdown:.2f}x slower than nominal), "
              f"{traced['attempted']} in the traced run; failed "
              f"{untraced['failed'] + traced['failed']}; input size "
              f"{untraced['work']}; sim_digest {untraced['sim_digest'][:16]}")
        for record, declared in ((untraced, spec["end_to_end"]),
                                 (traced, spec["per_layer"])):
            for metric in declared:
                value = record["metrics"][metric["name"]]
                print(f"   {metric['name']:<34} {value:>16.6g} "
                      f"{metric['unit']}")
            for failure in record["failures"]:
                failed = True
                print(f"   FAILED: {failure}")
        if traced["sim_digest"] != untraced["sim_digest"]:
            failed = True
            print("   FAILED: traced and untraced runs disagree on "
                  "sim_digest")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"result-seed{seed}.json"
    first = next(iter(results.values()))["end_to_end"]
    with open(path, "w") as handle:
        json.dump({"schema": "e2e-result/v1",
                   "host": fingerprint(seed, seconds, first["host"],
                                       first["yardstick"]),
                   "workloads": results}, handle, indent=1)
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = declaration()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_suite(args.seed, seconds, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    record = measure(args.workload, args.seed, seconds, args.trace)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(contract_line(
        record, spec["per_layer"] if args.trace else spec["end_to_end"]))
    return 1 if record["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
