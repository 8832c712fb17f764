"""Report persistence and pretty-printing (``repro ledger``).

A run report is the JSON-serializable record of one distributed
training run: the per-kind wire ledger (including the ``migrate:``,
``retry:``, ``recovery:`` and ``codec:`` dimensions), the per-phase
compute breakdown, peak memory, and — for adaptive sessions — the full
migration and decision trail.  ``repro train --report-out`` saves one;
``repro ledger`` renders it; ``repro advise --adaptive --report``
recalibrates the cost model against it.

Serving's scenario and deploy reports share the codec: whatever its
``"schema"`` tag, a report is written by :func:`save_report`, read by
:func:`load_report` and rendered by :func:`format_report`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

import numpy as np

SCHEMA = "repro-run-report/v1"

#: schema tag of serving-scenario reports (``repro scenarios``)
SCENARIO_SCHEMA = "scenario-report/v1"

#: schema tag of deployment decision logs (``repro deploy``)
DEPLOY_SCHEMA = "deploy-report/v1"

#: prefixes that carve the ledger into reporting dimensions, in display
#: order; kinds matching none of these are base training traffic
DIMENSION_PREFIXES = ("migrate:", "retry:", "recovery:")


def run_report(result, system: str = "", dataset: str = "",
               codec: str = "", backend: str = "") -> dict:
    """The JSON-ready report of one :class:`DistTrainResult`."""
    comm = result.comm
    phases: Dict[str, float] = {}
    for report in result.tree_reports:
        for phase, seconds in report.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    return {
        "schema": SCHEMA,
        "system": system,
        "dataset": dataset,
        "codec": codec,
        "backend": backend,
        "num_trees": len(result.tree_reports),
        "plan_history": list(result.plan_history),
        "total_modeled_seconds": result.total_modeled_seconds(),
        "comp_seconds": sum(r.comp_seconds for r in result.tree_reports),
        "comm_seconds": sum(r.comm_seconds for r in result.tree_reports),
        "phase_seconds": phases,
        "comm": {
            "total_bytes": comm.total_bytes,
            "total_seconds": comm.total_seconds,
            "bytes_by_kind": dict(comm.bytes_by_kind),
            "seconds_by_kind": dict(comm.seconds_by_kind),
            "codec_savings_by_kind": comm.codec_savings_by_kind(),
        },
        "memory": {
            "data_bytes": result.memory.data_bytes,
            "histogram_bytes": result.memory.histogram_bytes,
        },
        "migrations": [dataclasses.asdict(m) for m in result.migrations],
        "decisions": [d.payload() for d in result.decisions],
        "tree_seconds": [r.total_seconds for r in result.tree_reports],
    }


def _check_schema(report: dict, what: str,
                  expected: Optional[str] = None) -> str:
    """The report's schema tag, if it is ``expected`` (any of the three
    known tags when ``None``); ``what`` names the report in the error.
    Anything but a JSON object carrying a string tag is refused with
    ``ValueError``."""
    if not isinstance(report, dict):
        raise ValueError(f"{what} is not a JSON object "
                         f"(got {type(report).__name__})")
    schema = report.get("schema")
    if not isinstance(schema, (str, type(None))):
        raise ValueError(f"{what}: field 'schema' is "
                         f"{type(schema).__name__}, expected string")
    if expected is not None and schema != expected:
        raise ValueError(
            f"{what} is not a {_SCHEMAS[expected][0]} "
            f"(schema {schema!r}, expected {expected!r})"
        )
    if schema not in _SCHEMAS:
        raise ValueError(
            f"{what} has unknown schema {schema!r}: " + ", ".join(
                f"not a {name} ({tag!r})"
                for tag, (name, _) in _SCHEMAS.items())
        )
    return schema


def report_bytes(report: dict) -> bytes:
    """The canonical byte encoding of any report dict.

    Sorted keys, two-space indent, trailing newline — the exact bytes
    :func:`save_report` writes and the determinism conformance tests
    compare, so "byte-identical reports" means what it says.
    """
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def save_report(report: dict, path: str) -> None:
    """Write a report of any known schema as its canonical bytes."""
    _check_schema(report, "report")
    with open(path, "wb") as fh:
        fh.write(report_bytes(report))


def load_report(path: str, schema: Optional[str] = None) -> dict:
    """Read a saved report back; ``schema`` pins which of the known
    tags the file must carry (any of them when ``None``)."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    _check_schema(report, path, schema)
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of a report of any known schema."""
    return _SCHEMAS[_check_schema(report, "report")][1](report)


def percentile_summary(values) -> Dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample, in seconds.

    The one shared definition of a latency percentile: ``batcher``'s
    :class:`LatencyStats`, the per-tenant scenario tables and the deploy
    reports all call this, so "p99" means the same thing everywhere
    (``np.percentile`` linear interpolation, zeros for empty samples).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {"p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
                "mean_s": 0.0, "max_s": 0.0}
    p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
    return {
        "p50_s": float(p50),
        "p95_s": float(p95),
        "p99_s": float(p99),
        "mean_s": float(values.mean()),
        "max_s": float(values.max()),
    }


def _format_scenario_report(report: dict) -> str:
    """Human-readable rendering of a ``scenario-report/v1``."""
    lines: List[str] = []
    totals = report["totals"]
    lines.append(f"scenario report — {report['scenario']} "
                 f"(seed {report['seed']})")
    if report.get("description"):
        lines.append(f"  {report['description']}")
    lines.append(
        f"  drop rate {totals['drop_rate']:.1%}   max "
        f"{totals['max_s'] * 1e3:.2f} ms   throughput "
        f"{totals['throughput_rps']:,.0f} req/s   SLO violations: "
        f"{totals['slo_violations']:,} "
        f"({totals['slo_violation_rate']:.1%})"
    )
    lines.append("")
    lines.append(f"  {'tenant':<12} {'pri':>3} {'arrivals':>8} "
                 f"{'drop%':>6} {'p50 ms':>8} {'p99 ms':>8} "
                 f"{'SLO ms':>7} {'viol%':>6}")
    for name, t in sorted(report["tenants"].items()):
        lines.append(
            f"  {name:<12} {t['priority']:>3} {t['arrivals']:>8,} "
            f"{t['drop_rate']:>6.1%} {t['p50_s'] * 1e3:>8.2f} "
            f"{t['p99_s'] * 1e3:>8.2f} {t['slo_s'] * 1e3:>7.1f} "
            f"{t['slo_violation_rate']:>6.1%}"
        )
    cache = report.get("cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"  cache: {cache['hit_rate']:.1%} hit rate "
            f"({cache['hits']:,} hits / {cache['misses']:,} misses), "
            f"{cache['evictions']:,} evictions, "
            f"{cache['invalidations']} invalidations"
        )
    wire = report.get("wire") or {}
    if wire:
        lines.append("")
        lines.append(
            f"  wire: deploy {_fmt_bytes(wire['deploy_bytes'])} "
            f"(raw {_fmt_bytes(wire['deploy_raw_bytes'])}), "
            f"retries {_fmt_bytes(wire['retry_bytes'])}"
        )
    lines.append(f"  versions served: {report['versions_served']}")
    lines.extend(_serving_footer(totals, report["invariants"]))
    return "\n".join(lines)


def _serving_footer(totals: dict, invariants: dict) -> List[str]:
    """The last two lines of both serving reports: the ledger totals
    and the invariants.  They read only keys that every saved scenario
    and deploy report carries."""
    return [
        f"  serving: {totals['arrivals']:,} arrivals   "
        f"{totals['served']:,} served   {totals['dropped']:,} dropped   "
        f"{totals['batches']:,} batches   "
        f"p50 {totals['p50_s'] * 1e3:.2f} ms   "
        f"p95 {totals['p95_s'] * 1e3:.2f} ms   "
        f"p99 {totals['p99_s'] * 1e3:.2f} ms over "
        f"{totals['makespan_s']:.3f} s",
        "  invariants: " + ", ".join(
            f"{k}={'ok' if v else 'VIOLATED'}"
            for k, v in sorted(invariants.items())),
    ]


def _fmt_metric(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _format_deploy_report(report: dict) -> str:
    """Human-readable rendering of a ``deploy-report/v1``."""
    lines: List[str] = []
    versions = report["versions"]
    lines.append(
        f"deploy report — {report['scenario']} (seed {report['seed']}, "
        f"{report['canary_model']} canary, "
        f"{'shadow' if report['mode'] == 'shadow' else 'serve'} mode)"
    )
    lines.append(
        f"  verdict: {report['verdict']}   incumbent v"
        f"{versions['incumbent']}   canary v{versions['canary']}"
        + (f"   retrained v{versions['retrained']}"
           if versions.get("retrained") is not None else "")
    )
    lines.append("")
    lines.append("  decision log")
    for d in report["decisions"]:
        lines.append(
            f"    t={d['at_s']:8.4f}s  batch {d['batch_seq']:>5}  "
            f"{d['kind']:<12} v{d['version']}  "
            f"{_fmt_bytes(d['wire_bytes']):>10}  {d['reason']}"
        )
    lines.append("")
    lines.append("  drift monitor (rolling window)")
    for version, m in sorted(report["monitor"].items(),
                             key=lambda kv: int(kv[0])):
        lines.append(
            f"    v{version}: {m['labels']:>6,} labels  "
            f"logloss {_fmt_metric(m['logloss'])}  "
            f"auc {_fmt_metric(m['auc'])}"
        )
    split = report["split"]
    lines.append("")
    lines.append(
        f"  split: target {split['target_fraction']:.1%}   observed "
        f"{split['observed_fraction']:.1%} ({split['canary_batches']} "
        f"canary of {split['window_batches']} batches in window)"
    )
    wire = report["wire"]
    deploy_kinds = sorted(k for k in wire["bytes_by_kind"]
                          if k.startswith("deploy:"))
    parts = [f"{kind} {_fmt_bytes(wire['bytes_by_kind'][kind])}"
             for kind in deploy_kinds]
    lines.append(
        f"  wire: {'   '.join(parts)}   retries "
        f"{_fmt_bytes(wire['retry_bytes'])}"
    )
    lines.extend(_serving_footer(report["serving"], report["invariants"]))
    return "\n".join(lines)


def _fmt_bytes(nbytes: float) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return (f"{value:,.0f} {unit}" if unit == "B"
                    else f"{value:,.1f} {unit}")
        value /= 1024.0
    return f"{value:,.1f} GiB"


def _dimension_of(kind: str) -> str:
    for prefix in DIMENSION_PREFIXES:
        if kind.startswith(prefix):
            return prefix
    return "base"


def _format_run_report(report: dict) -> str:
    """Human-readable rendering of a ``repro-run-report/v1``."""
    lines: List[str] = []
    head = report.get("system") or "/".join(report.get("plan_history", []))
    title = f"run report — {head}" if head else "run report"
    if report.get("dataset"):
        title += f" on {report['dataset']}"
    lines.append(title)
    lines.append(
        f"  trees: {report['num_trees']}"
        f"   plans: {' -> '.join(report['plan_history']) or '?'}"
    )
    extras = [f"{key}={report[key]}" for key in ("codec", "backend")
              if report.get(key)]
    if extras:
        lines.append(f"  {'   '.join(extras)}")
    lines.append(
        f"  modeled time: {report['total_modeled_seconds']:.4f} s"
        f"  (compute {report['comp_seconds']:.4f} s"
        f" + network {report['comm_seconds']:.4f} s"
        + (
            f" + migration "
            f"{sum(m['seconds'] for m in report['migrations']):.4f} s"
            if report.get("migrations") else ""
        )
        + ")"
    )

    phases = report.get("phase_seconds") or {}
    if phases:
        lines.append("")
        lines.append("compute phases")
        for phase, seconds in sorted(phases.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"  {phase:<12} {seconds:10.4f} s")

    comm = report["comm"]
    bytes_by_kind = comm.get("bytes_by_kind") or {}
    seconds_by_kind = comm.get("seconds_by_kind") or {}
    groups: Dict[str, List[str]] = {}
    for kind in bytes_by_kind:
        groups.setdefault(_dimension_of(kind), []).append(kind)
    lines.append("")
    lines.append(
        f"wire ledger — {_fmt_bytes(comm['total_bytes'])} in "
        f"{comm['total_seconds']:.4f} s"
    )
    for dimension in ("base",) + DIMENSION_PREFIXES:
        kinds = groups.get(dimension)
        if not kinds:
            continue
        label = "training" if dimension == "base" \
            else dimension.rstrip(":")
        subtotal = sum(bytes_by_kind[k] for k in kinds)
        lines.append(f"  [{label}] {_fmt_bytes(subtotal)}")
        for kind in sorted(kinds, key=lambda k: -bytes_by_kind[k]):
            lines.append(
                f"    {kind:<28} {_fmt_bytes(bytes_by_kind[kind]):>12}"
                f"  {seconds_by_kind.get(kind, 0.0):10.4f} s"
            )
    savings = comm.get("codec_savings_by_kind") or {}
    if savings:
        total_saved = sum(savings.values())
        lines.append(f"  [codec] {_fmt_bytes(total_saved)} saved")
        for kind in sorted(savings, key=lambda k: -savings[k]):
            lines.append(
                f"    {kind:<28} {_fmt_bytes(savings[kind]):>12}"
            )

    memory = report.get("memory") or {}
    if memory:
        lines.append("")
        lines.append(
            "peak memory per worker: "
            f"data {_fmt_bytes(memory.get('data_bytes', 0))}, "
            f"histograms {_fmt_bytes(memory.get('histogram_bytes', 0))}"
        )

    migrations = report.get("migrations") or []
    if migrations:
        lines.append("")
        lines.append("migrations")
        for m in migrations:
            wire = (m["checkpoint_bytes"] + m["reshard_bytes"]
                    + m["label_bytes"] + m["decision_bytes"])
            extra = f", {m['crashes']} crash(es) replayed" \
                if m.get("crashes") else ""
            lines.append(
                f"  tree {m['tree_index']}: {m['source_plan']} -> "
                f"{m['target_plan']}  {_fmt_bytes(wire)} in "
                f"{m['seconds']:.4f} s{extra}"
            )

    decisions = report.get("decisions") or []
    if decisions:
        lines.append("")
        lines.append("adaptive decisions")
        for d in decisions:
            verdict = "migrate" if d.get("migrate") else "stay"
            lines.append(
                f"  tree {d.get('tree')}: {verdict} "
                f"[{d.get('source')} -> {d.get('target')}] "
                f"scan_rate={d.get('scan_rate'):,.0f}/s "
                f"comm_scale={d.get('comm_scale'):.3f}"
            )
            lines.append(
                f"    savings {d.get('projected_savings_seconds'):.4f} s"
                f" vs bill {d.get('migration_seconds'):.4f} s"
                f" over {d.get('trees_remaining')} trees"
                f" — {d.get('reason')}"
            )
    return "\n".join(lines)


#: the schemas the codec knows: tag -> (name in messages, renderer)
_SCHEMAS = {
    SCHEMA: ("run report", _format_run_report),
    SCENARIO_SCHEMA: ("scenario report", _format_scenario_report),
    DEPLOY_SCHEMA: ("deploy report", _format_deploy_report),
}
