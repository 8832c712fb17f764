"""Compare two result files of the end-to-end benchmark.

    python bench/e2e/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: base, new, the ratio with its
base, and a verdict against the regression bound fixed in
``BENCHMARK.json``:

``better`` / ``worse``   the median moved by more than the bound;
``same``                 it did not;
``unresolved``           the timed operations of either side spread
                         (IQR / median) wider than the bound — unless
                         every operation of one side beats every
                         operation of the other, which resolves it.

With equal seeds the simulated quantities are not measurements: ``wire_bytes``,
``sim_s``, every exact per-layer count and each ``sim_digest`` must be
*identical*, whatever the bound.  Exits non-zero on any ``worse`` or any
mismatch of an exact quantity.
"""

import json
import sys

from run import declaration

#: end-to-end metrics that are pure functions of the inputs
EXACT_METRICS = ("wire_bytes", "sim_s")
#: end-to-end metrics whose sample is the run's timed operations
TIMED_METRICS = ("wall_s", "throughput_per_s")
#: units of per-layer metrics that are counts made by the program or
#: simulated quantities, as opposed to host time
EXACT_UNITS = ("count", "bytes", "rows", "ratio", "sim_s", "sim_ms")


def worsening(base, new, better):
    """Relative move in the bad direction (negative: an improvement)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(metric, base_run, new_run, exact):
    name, bound = metric["name"], metric["bound"]
    base, new = base_run["metrics"][name], new_run["metrics"][name]
    worse_by = worsening(base, new, metric["better"])
    if exact and name in EXACT_METRICS:
        return "same" if new == base else \
            ("worse" if worse_by > 0 else "better")
    if name in TIMED_METRICS and max(base_run["wall_iqr_share"],
                                     new_run["wall_iqr_share"]) > bound:
        # wall_s orders both metrics: throughput is work / wall_s
        if max(new_run["walls"]) < min(base_run["walls"]):
            return "better"
        if min(new_run["walls"]) > max(base_run["walls"]):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = declaration()
    results = []
    for path in sys.argv[1:]:
        with open(path) as handle:
            results.append(json.load(handle))
    base_file, new_file = results
    exact = base_file["host"]["seed"] == new_file["host"]["seed"]
    exact_layers = [m["name"] for m in spec["per_layer"]
                    if m["unit"] in EXACT_UNITS]
    bad = 0
    print(f"{'workload':<24}{'metric':<18}{'base':>14}{'new':>14}"
          f"{'new/base':>10}  verdict (bound)")
    for workload in spec["workloads"]:
        name = workload["name"]
        base, new = (result["workloads"][name]
                     for result in (base_file, new_file))
        for metric in spec["end_to_end"]:
            found = verdict(metric, base["end_to_end"], new["end_to_end"],
                            exact)
            bad += found == "worse"
            base_value = base["end_to_end"]["metrics"][metric["name"]]
            new_value = new["end_to_end"]["metrics"][metric["name"]]
            print(f"{name:<24}{metric['name']:<18}{base_value:>14.6g}"
                  f"{new_value:>14.6g}{new_value / base_value:>10.3f}  "
                  f"{found} ({metric['bound']})")
        if not exact:
            continue
        digests = {run[kind]["sim_digest"]
                   for run in (base, new)
                   for kind in ("end_to_end", "per_layer")}
        if len(digests) != 1:
            bad += 1
            print(f"{name:<24}sim_digest MISMATCH: {sorted(digests)}")
        for layer in exact_layers:
            values = [run["per_layer"]["metrics"][layer]
                      for run in (base, new)]
            if values[0] != values[1]:
                bad += 1
                print(f"{name:<24}{layer} MISMATCH: {values[0]} != "
                      f"{values[1]}")
    if not exact:
        print("seeds differ: exact quantities compared by bound only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
