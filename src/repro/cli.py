"""Command-line interface.

Five subcommands cover the everyday workflows:

* ``repro datagen`` — generate a synthetic or catalog dataset to libsvm;
* ``repro train``   — train any quadrant system on a libsvm file or a
  catalog surrogate, optionally saving the model;
* ``repro predict`` — score a libsvm file with a saved model (served
  through the compiled predictor, using the model's own objective
  metadata);
* ``repro serve-bench`` — replay a seeded request trace through the
  serving stack: compiled-vs-naive speedup, micro-batching latency
  percentiles, and a mid-traffic hot-swap with deploy accounting;
* ``repro advise``  — run the data-management advisor on a workload
  description (Section 6's open problem); ``--adaptive`` recalibrates
  the cost model against an observed run and prints the
  calibrated-vs-prior cost of every execution plan;
* ``repro ledger``  — pretty-print a saved report of any known schema:
  a run report (``repro train --report-out``: per-kind wire bytes and
  seconds including the ``migrate:``/``codec:`` dimensions, compute
  phases, and the adaptive decision trail), a scenario report or a
  deploy report;
* ``repro scenarios`` — list/run the seeded traffic scenarios
  (diurnal, flash-crowd, heavy-tail multi-tenant, hot-swap-under-fire):
  replays the full serving stack on the simulated clock and prints the
  per-tenant SLO/latency/drop table from the ``scenario-report/v1``;
* ``repro deploy``  — run a closed-loop canary deployment episode:
  incumbent rollout, canary slice (or shadow scoring), delayed-label
  drift monitoring, auto-rollback + retrain or promotion, with the
  full decision log printed from the ``deploy-report/v1``;
* ``repro doctor``  — report detected kernel backends (numba/LLVM
  versions) and run a per-backend bit-identity self-check; exits
  nonzero on a backend that imports but miscompares.

``repro train --plan auto-adapt`` trains through an adaptive
:class:`~repro.systems.executor.TrainingSession` that recalibrates
every ``--adapt-every`` trees and migrates execution plans mid-run when
the projected savings beat the migration bill.

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import ClusterConfig, NetworkModel, TrainConfig
from .core.serialize import load_ensemble, save_ensemble
from .data import catalog
from .data.io import read_libsvm, write_libsvm
from .data.synthetic import make_classification
from .systems.advisor import recommend
from .systems.costmodel import WorkloadShape, workload_of
from .systems.plans import ALIASES, get_plan, plan_keys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed GBDT data-management testbed "
                    "(VLDB 2019 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("datagen", help="generate a dataset to libsvm")
    gen.add_argument("output", help="output libsvm path")
    gen.add_argument("--catalog", help="catalog surrogate name "
                                       f"({', '.join(catalog.CATALOG)})")
    gen.add_argument("--instances", type=int, default=10_000)
    gen.add_argument("--features", type=int, default=100)
    gen.add_argument("--classes", type=int, default=2)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--scale", type=float, default=1.0,
                     help="instance-count multiplier for --catalog")
    gen.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train a quadrant system")
    train.add_argument("--data", help="libsvm training file")
    train.add_argument("--catalog", help="or: catalog surrogate name")
    train.add_argument("--scale", type=float, default=1.0)
    train.add_argument("--plan", "--system", dest="plan", default="vero",
                       help=f"execution plan: {', '.join(plan_keys())}; "
                            f"aliases {', '.join(ALIASES)}; or "
                            "auto-adapt for mid-run re-planning "
                            "(default vero)")
    train.add_argument("--adapt-every", type=int, default=4,
                       help="with --plan auto-adapt: recalibrate the "
                            "cost model every N trees (default 4)")
    train.add_argument("--report-out",
                       help="save the run report (ledger, phases, "
                            "decisions) as JSON for `repro ledger`")
    train.add_argument("--trees", type=int, default=20)
    train.add_argument("--layers", type=int, default=6)
    train.add_argument("--candidates", type=int, default=20)
    train.add_argument("--learning-rate", type=float, default=0.3)
    train.add_argument("--classes", type=int, default=2)
    train.add_argument("--workers", type=int, default=8)
    train.add_argument("--bandwidth-gbps", type=float, default=1.0)
    train.add_argument("--valid-fraction", type=float, default=0.2)
    train.add_argument("--model-out", help="save the model as JSON")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--faults", default="", metavar="SEED:SPEC",
                       help="seeded fault schedule, e.g. "
                            "'42:crash=2,drop=0.05,timeout=0.01' "
                            "(keys: crash, drop, timeout, backoff, "
                            "timeout-s, retries)")
    train.add_argument("--codec", default="none",
                       choices=("none", "sparse", "delta", "f32", "f16"),
                       help="wire-format codec for inter-worker payloads "
                            "(sparse/delta are lossless; f32/f16 "
                            "quantize histograms)")
    train.add_argument("--backend", default="",
                       help="kernel backend for the histogram hot loops "
                            "(numpy/numba/pyloop/auto; default numpy — "
                            "all backends train bit-identical models)")

    predict = sub.add_parser("predict",
                             help="score a libsvm file with a model")
    predict.add_argument("model", help="model JSON from `repro train`")
    predict.add_argument("data", help="libsvm file to score")
    predict.add_argument("--output", help="write predictions here "
                                          "(default: stdout)")

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the serving stack on a synthetic trace",
    )
    serve.add_argument("--model", help="model JSON to serve (default: "
                                       "train one in-process)")
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument("--rate", type=float, default=5000.0,
                       help="mean arrival rate (requests/s)")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-delay-ms", type=float, default=2.0)
    serve.add_argument("--serve-workers", type=int, default=4)
    serve.add_argument("--shards", type=int, default=1,
                       help="tree-shard the fleet into S groups: each "
                            "replica row holds one worker per shard and "
                            "partial scores reduce over the wire "
                            "(scores stay bit-identical; workers round "
                            "up to a multiple of S)")
    serve.add_argument("--balancer", default="least-loaded",
                       choices=("round-robin", "least-loaded"))
    serve.add_argument("--trees", type=int, default=20,
                       help="in-process model size (ignored with --model)")
    serve.add_argument("--layers", type=int, default=8)
    serve.add_argument("--features", type=int, default=50)
    serve.add_argument("--instances", type=int, default=4000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--smoke", action="store_true",
                       help="tiny run for CI (seconds, not minutes)")
    serve.add_argument("--backend", default="",
                       help="kernel backend for the compiled predictor "
                            "(numpy/numba/pyloop/auto; default numpy)")
    serve.add_argument("--quantized", action="store_true",
                       help="also benchmark the uint8 bin-quantized "
                            "predictor (in-process models only: it needs "
                            "their training cuts, so --model refuses it)")

    advise = sub.add_parser(
        "advise", help="recommend a data-management quadrant"
    )
    advise.add_argument("--instances", type=int, required=True)
    advise.add_argument("--features", type=int, required=True)
    advise.add_argument("--classes", type=int, default=2)
    advise.add_argument("--nnz-per-instance", type=float, required=True)
    advise.add_argument("--workers", type=int, default=8)
    advise.add_argument("--layers", type=int, default=8)
    advise.add_argument("--candidates", type=int, default=20)
    advise.add_argument("--bandwidth-gbps", type=float, default=1.0)
    advise.add_argument("--memory-budget-gb", type=float)
    advise.add_argument("--crash-rate", type=float, default=0.0,
                        help="expected worker crashes per tree; adds an "
                             "expected-recovery-cost term to the ranking")
    advise.add_argument("--codec", default="none",
                        choices=("none", "sparse", "f32", "f16"),
                        help="price horizontal aggregation with this "
                             "codec's encoded bytes")
    advise.add_argument("--backend", default="",
                        help="price compute for this kernel backend "
                             "(numpy/numba/pyloop; default numpy)")
    advise.add_argument("--adaptive", action="store_true",
                        help="calibrate the cost model against observed "
                             "trees and print the calibrated-vs-prior "
                             "per-plan cost table")
    advise.add_argument("--report",
                        help="with --adaptive: calibrate against this "
                             "saved run report (`repro train "
                             "--report-out`; shape flags must match the "
                             "run) instead of an in-process probe")

    ledger = sub.add_parser(
        "ledger", help="pretty-print a saved report of any known schema"
    )
    ledger.add_argument("report",
                        help="report JSON from `repro train`, `repro "
                             "scenarios run` or `repro deploy` "
                             "`--report-out`")

    scenarios = sub.add_parser(
        "scenarios",
        help="list/run seeded traffic scenarios",
    )
    scen_sub = scenarios.add_subparsers(dest="scenario_command",
                                        required=True)
    scen_sub.add_parser("list", help="list the shipped scenarios")
    scen_run = scen_sub.add_parser(
        "run", help="replay scenarios through the serving stack"
    )
    scen_run.add_argument("names", nargs="*",
                          help="scenario names (default: all shipped)")
    scen_run.add_argument("--scale", type=float, default=1.0,
                          help="time-scale factor (shrinks the window, "
                               "keeps rates; e.g. 0.25 for a quick run)")
    scen_run.add_argument("--smoke", action="store_true",
                          help="tiny CI run: every scenario at "
                               "--scale 0.2, invariants enforced")
    scen_run.add_argument("--shards", type=int,
                          help="override every selected scenario to "
                               "serve with S shard groups (workers "
                               "round up to a multiple of S; S > 1 "
                               "disables the prediction cache)")
    scen_run.add_argument("--report-out",
                          help="save the scenario report JSON here "
                               "(single scenario) or under this "
                               "directory (multiple)")

    deploy = sub.add_parser(
        "deploy",
        help="run a closed-loop canary deployment episode",
    )
    deploy.add_argument("--scenario", default="canary-under-fire",
                        help="traffic scenario to deploy under "
                             "(default: canary-under-fire)")
    deploy.add_argument("--canary", choices=("healthy", "degraded"),
                        default="degraded",
                        help="candidate model: a half-size retrain "
                             "('healthy', should promote) or a "
                             "sign-flipped incumbent ('degraded', "
                             "must roll back)")
    deploy.add_argument("--fraction", type=float, default=0.25,
                        help="fraction of batches routed to the canary "
                             "slice (ignored with --shadow)")
    deploy.add_argument("--canary-workers", type=int, default=1,
                        help="workers in the canary slice")
    deploy.add_argument("--shadow", action="store_true",
                        help="shadow mode: the canary scores every "
                             "batch off the serving path; the "
                             "incumbent serves everything")
    deploy.add_argument("--scale", type=float, default=1.0,
                        help="time-scale factor for the scenario")
    deploy.add_argument("--smoke", action="store_true",
                        help="CI run: both canary models at "
                             "--scale 0.25; verdicts and invariants "
                             "enforced")
    deploy.add_argument("--report-out",
                        help="save the deploy-report/v1 JSON here")

    doctor = sub.add_parser(
        "doctor",
        help="report kernel backends and self-check bit-identity",
    )
    doctor.add_argument("--skip-selfcheck", action="store_true",
                        help="only report detection, skip the "
                             "bit-identity battery")

    return parser


def _load_training_data(args):
    if bool(args.data) == bool(args.catalog):
        raise SystemExit("specify exactly one of --data or --catalog")
    if args.catalog:
        return catalog.load(args.catalog, scale=args.scale)
    task = "multiclass" if args.classes > 2 else "binary"
    return read_libsvm(args.data, task=task, num_classes=args.classes)


def cmd_datagen(args) -> int:
    if args.catalog:
        dataset = catalog.load(args.catalog, scale=args.scale)
    else:
        dataset = make_classification(
            args.instances, args.features, num_classes=args.classes,
            density=args.density, seed=args.seed,
        )
    write_libsvm(dataset, args.output)
    print(f"wrote {dataset.num_instances} x {dataset.num_features} "
          f"({dataset.features.nnz} nonzeros) to {args.output}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_training_data(args)
    num_classes = max(args.classes, dataset.num_classes)
    multiclass = dataset.task == "multiclass"
    adaptive = args.plan == "auto-adapt"
    config = TrainConfig(
        num_trees=args.trees,
        num_layers=args.layers,
        num_candidates=args.candidates,
        learning_rate=args.learning_rate,
        objective="multiclass" if multiclass else "binary",
        num_classes=num_classes if multiclass else 2,
        faults=args.faults,
        codec=args.codec,
        backend=args.backend,
    )
    cluster = ClusterConfig(
        num_workers=args.workers,
        network=NetworkModel(bandwidth_gbps=args.bandwidth_gbps),
    )
    train, valid = dataset.split(1.0 - args.valid_fraction,
                                 seed=args.seed)
    from .core.kernels import resolve_backend_name

    if adaptive:
        from .systems import make_adaptive_session

        session = make_adaptive_session(config, cluster, train,
                                        valid=valid,
                                        every=args.adapt_every)
        print(f"auto-adapt: starting with plan "
              f"{session.state.plan_key} (recalibrating every "
              f"{session.policy.every} trees)")
        result = session.run()
        system = session.system
    else:
        try:
            plan = get_plan(args.plan)
        except KeyError as err:
            print(err.args[0], file=sys.stderr)
            raise SystemExit(2) from None
        system = plan.build(config, cluster)
        result = system.fit(train, valid=valid)
    last = result.evals[-1]
    print(f"system={system.name} quadrant={system.quadrant} "
          f"plan={system.plan.key} workers={args.workers} "
          f"backend={resolve_backend_name(config.backend)}")
    if len(result.plan_history) > 1:
        print(f"plan history: {' -> '.join(result.plan_history)} "
              f"({len(result.migrations)} migration(s), "
              f"total modeled time "
              f"{result.total_modeled_seconds():.2f}s)")
        for m in result.migrations:
            print(f"  tree {m.tree_index}: {m.source_plan} -> "
                  f"{m.target_plan}, {m.wire_bytes / 1e6:.2f}MB "
                  f"migrated in {m.seconds * 1e3:.1f}ms")
    for decision in result.decisions:
        verdict = "migrate" if decision.migrate else "stay"
        print(f"  adapt @ tree {decision.tree_index}: {verdict} — "
              f"{decision.reason}")
    print(f"final {last.metric_name}={last.metric_value:.4f} after "
          f"{len(result.ensemble)} trees "
          f"({last.elapsed_seconds:.2f}s simulated)")
    wire_mb = result.comm.total_bytes / len(result.ensemble) / 1e6
    print(f"per tree: comp={result.mean_comp_seconds() * 1e3:.1f}ms "
          f"comm={result.mean_comm_seconds() * 1e3:.1f}ms "
          f"wire={wire_mb:.2f}MB")
    savings = result.comm.codec_savings_by_kind()
    if savings:
        saved = sum(savings.values())
        ratio = (result.comm.total_bytes + saved) \
            / max(result.comm.total_bytes, 1)
        kinds = ", ".join(k.split(":", 1)[1] for k in sorted(savings))
        print(f"codec={args.codec}: saved {saved / 1e6:.2f}MB on the "
              f"wire ({ratio:.2f}x total reduction; {kinds})")
    print(f"peak worker memory: data="
          f"{result.memory.data_bytes / 1e6:.2f}MB histograms="
          f"{result.memory.histogram_bytes / 1e6:.2f}MB")
    injector = getattr(system, "injector", None)
    if injector is not None:
        counters = injector.counters
        fault_kinds = [
            (kind, nbytes)
            for kind, nbytes in sorted(result.comm.bytes_by_kind.items())
            if kind.startswith(("retry:", "recovery:"))
        ]
        fault_mb = sum(nbytes for _, nbytes in fault_kinds) / 1e6
        print(f"faults injected ({injector.plan.describe()}): "
              f"crashes={counters.crashes} drops={counters.drops} "
              f"timeouts={counters.timeouts}; "
              f"retry/recovery traffic={fault_mb:.2f}MB")
        for record in system.recovery_log:
            print(f"  recovered worker {record.worker} (tree "
                  f"{record.tree}, layer {record.layer}) via "
                  f"{record.policy}: "
                  f"{record.restore_bytes / 1e6:.2f}MB restored")
    if args.model_out:
        save_ensemble(result.ensemble, args.model_out,
                      objective=config.objective,
                      num_classes=config.num_classes)
        print(f"model saved to {args.model_out}")
    if args.report_out:
        from .ledger import run_report, save_report

        save_report(
            run_report(result, system=system.name,
                       dataset=args.catalog or args.data or "",
                       codec=args.codec, backend=config.backend),
            args.report_out,
        )
        print(f"run report saved to {args.report_out} "
              f"(view with `repro ledger {args.report_out}`)")
    return 0


def cmd_predict(args) -> int:
    from .core.loss import make_loss
    from .serve import compile_ensemble

    ensemble = load_ensemble(args.model)
    dataset = read_libsvm(args.data, task="regression")
    # the model file carries its own objective metadata; fall back on
    # the gradient dimension for pre-metadata model files
    objective = ensemble.objective or (
        "multiclass" if ensemble.gradient_dim > 1 else "binary"
    )
    num_classes = ensemble.num_classes or max(ensemble.gradient_dim, 2)
    loss = make_loss(objective, num_classes)
    scores = compile_ensemble(ensemble).raw_scores(dataset.csc())
    preds = loss.predict(scores)
    if preds.ndim == 1:
        lines = [f"{p:.6f}" for p in preds]
    else:
        lines = [
            " ".join(f"{p:.6f}" for p in row) for row in preds
        ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(lines)} predictions to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_serve_bench(args) -> int:
    import time as _time

    from .core.kernels import make_backend
    from .serve import (BatchPolicy, MicroBatcher, ModelRegistry,
                        publish_trained, synthetic_trace)
    from .serve.sharded import fleet_class
    from .systems.costmodel import (price_serving_layouts,
                                    recommend_serving_layout)

    if args.smoke:
        args.requests = min(args.requests, 200)
        args.instances = min(args.instances, 600)
        args.trees = min(args.trees, 5)
        args.layers = min(args.layers, 5)
        args.features = min(args.features, 20)
        args.serve_workers = min(args.serve_workers, 2)
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.quantized and args.model:
        raise SystemExit(
            "--quantized needs the training cuts of the in-process model; "
            "a --model file does not carry them")
    if args.serve_workers % args.shards:
        args.serve_workers = (args.serve_workers // args.shards
                              + 1) * args.shards

    registry = ModelRegistry()
    if args.model:
        entry = registry.publish_file(args.model)
    else:
        config = TrainConfig(
            num_trees=args.trees, num_layers=args.layers,
            objective="binary", learning_rate=0.3,
        )
        dataset = make_classification(
            args.instances, args.features, seed=args.seed,
        )
        # v2 is the hot-swap candidate: same data, half the trees
        entry = publish_trained(registry, dataset, config, "in-process v1",
                                successor="in-process v2")
    if args.backend:
        # the fleet scores on what it serves: every version's compiled
        # ensemble, so the backend goes there
        backend = make_backend(args.backend)
        for version in registry.versions():
            version.compiled.backend = backend
    compiled = entry.compiled
    print(f"serving {entry} from {args.serve_workers} workers "
          f"({args.balancer}, backend={compiled.backend.name})")

    trace = synthetic_trace(
        args.requests, max(compiled.num_features, 1), args.rate,
        seed=args.seed,
    )

    # compiled vs naive on the full trace, exactness checked
    csc = trace.csc()
    began = _time.perf_counter()
    naive = entry.ensemble.raw_scores(csc)
    naive_s = _time.perf_counter() - began
    began = _time.perf_counter()
    fast = compiled.raw_scores(trace.features)
    fast_s = _time.perf_counter() - began
    exact = bool((naive == fast).all())
    print(f"batch of {trace.num_requests}: naive={naive_s * 1e3:.1f}ms "
          f"compiled={fast_s * 1e3:.1f}ms "
          f"({naive_s / max(fast_s, 1e-12):.2f}x), exact={exact}")
    if args.quantized:
        from .data.dataset import bin_dataset
        from .serve import quantize_ensemble

        # the same binning fit() used, so every split threshold sits
        # exactly on the quantizer's bin grid
        train_binned = bin_dataset(dataset, config.num_candidates)
        quant = quantize_ensemble(compiled, train_binned.cuts)
        binned_batch = quant.bin_batch(trace.features)
        began = _time.perf_counter()
        qscores = quant.raw_scores_binned(binned_batch)
        quant_s = _time.perf_counter() - began
        qexact = bool((naive == qscores).all())
        print(f"quantized (uint8 bins): {quant_s * 1e3:.1f}ms "
              f"({fast_s / max(quant_s, 1e-12):.2f}x vs compiled), "
              f"exact={qexact}")

    replicas = fleet_class(args.shards)(
        registry, ClusterConfig(num_workers=args.serve_workers),
        num_shards=args.shards, balancer=args.balancer,
    )
    print(f"fleet: {replicas.num_rows} replica rows x "
          f"{replicas.num_shards} tree-shard groups")
    replicas.deploy()
    swaps = []
    if len(registry) > 1:
        swap_at = float(trace.arrivals[trace.num_requests // 2])
        swaps.append((swap_at, replicas.deployer(2)))
    batcher = MicroBatcher(replicas, BatchPolicy(
        max_batch_size=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
    ))
    report = batcher.run(trace, swaps=swaps)
    stats = report.latency_stats()
    print(f"served {stats.count} requests in {report.batch_size.size} "
          f"batches: p50={stats.p50_s * 1e3:.2f}ms "
          f"p95={stats.p95_s * 1e3:.2f}ms p99={stats.p99_s * 1e3:.2f}ms "
          f"throughput={stats.throughput_rps:.0f}rps")
    if swaps:
        print(f"hot-swap at t={swaps[0][0] * 1e3:.1f}ms: versions served "
              f"{report.versions_served()}, "
              f"single-version batches={report.single_version_batches()}")
    shards = registry.shards(entry.version, args.shards)
    # the same rollouts priced fully replicated (S = 1 on these workers)
    replicated = sum(e.nbytes for e in registry.versions()) \
        * args.serve_workers
    print(f"{replicas.deploy_kind} traffic: {replicas.deploy_bytes} bytes "
          f"({len(registry)} deploys x {args.serve_workers} workers; "
          f"S=1 would ship {replicated} bytes); per-worker model "
          f"footprint {replicas.model_bytes_per_worker()} of "
          f"{entry.nbytes}")
    print(f"score reduction traffic: serve:partial="
          f"{replicas.partial_bytes} bytes over "
          f"{report.batch_size.size} batches")
    network = NetworkModel()
    layouts = price_serving_layouts(
        entry.nbytes,
        {1: [entry.nbytes], args.shards: [s.nbytes for s in shards]},
        args.serve_workers, args.max_batch, entry.compiled.gradient_dim,
        network.bytes_per_second, network.latency_s,
    )
    pick = recommend_serving_layout(layouts)
    print(f"cost model recommends S={pick['num_shards']} "
          f"({pick['model_bytes_per_worker']} bytes/worker, "
          f"{pick['reduction_seconds_per_batch'] * 1e3:.2f}ms "
          f"reduction/batch)")
    return 0


def cmd_advise(args) -> int:
    shape = WorkloadShape(
        num_instances=args.instances,
        num_features=args.features,
        num_workers=args.workers,
        num_layers=args.layers,
        num_candidates=args.candidates,
        num_classes=args.classes if args.classes > 2 else 1,
    )
    budget = (args.memory_budget_gb * 2**30
              if args.memory_budget_gb else None)
    rec = recommend(
        shape, args.nnz_per_instance,
        network=NetworkModel(bandwidth_gbps=args.bandwidth_gbps),
        memory_budget_bytes=budget,
        crash_rate=args.crash_rate,
        codec=args.codec,
        backend=args.backend,
    )
    print(f"recommendation: {rec.best.quadrant} "
          f"({rec.best.description})")
    print(f"plan: {rec.plan_key} — run it with "
          f"`repro train --plan {rec.plan_key}`")
    for reason in rec.reasons:
        print(f"  - {reason}")
    print("\nper-quadrant estimates (per tree):")
    for est in rec.ranking:
        print(f"  {est.quadrant}: comp={est.comp_seconds * 1e3:9.1f}ms "
              f"comm={est.comm_seconds * 1e3:9.1f}ms "
              f"hist-mem={est.histogram_memory_bytes / 2**30:7.2f}GiB")
    print("\nprojected histogram-aggregation byte reduction by codec:")
    for codec, ratio in sorted(rec.codec_projections.items()):
        lossless = codec == "sparse"
        tag = "lossless" if lossless else "lossy, opt-in"
        print(f"  {codec}: {ratio:6.2f}x ({tag})")
    if args.adaptive:
        _advise_adaptive(args, shape, rec)
    return 0


def _advise_adaptive(args, shape: WorkloadShape, rec) -> None:
    """The ``advise --adaptive`` table: prior vs calibrated plan costs.

    Constants come from a saved run report when ``--report`` names one,
    else from a small in-process probe of the prior-recommended plan
    (the scan rate and wire scale are ratios, so they transfer from the
    capped probe shape to the full workload shape).
    """
    from .systems.advisor import calibrate_constants, price_plans
    from .systems.base import TreeReport
    from .systems.costmodel import migration_seconds
    from .systems.plans import PLANS

    network = NetworkModel(bandwidth_gbps=args.bandwidth_gbps)
    if args.report:
        from .ledger import SCHEMA, load_report

        report = load_report(args.report, SCHEMA)
        if not report["plan_history"] or not report["num_trees"]:
            raise SystemExit(f"{args.report} records no trained trees")
        plan = get_plan(report["plan_history"][-1])
        mean_comp = report["comp_seconds"] / report["num_trees"]
        mean_comm = report["comm_seconds"] / report["num_trees"]
        observed = [
            TreeReport(comp_seconds=mean_comp, comm_seconds=mean_comm)
        ] * report["num_trees"]
        constants = calibrate_constants(
            shape, args.nnz_per_instance, plan, observed, network,
            codec=args.codec)
        source = (f"{report['num_trees']} trees of {plan.key} from "
                  f"{args.report}")
    else:
        from .data.dataset import bin_dataset
        from .data.synthetic import make_classification

        plan = get_plan(rec.plan_key)
        probe_n = min(args.instances, 4000)
        density = min(args.nnz_per_instance / args.features, 1.0)
        probe = bin_dataset(
            make_classification(
                probe_n, args.features,
                num_classes=max(args.classes, 2), density=density,
                seed=0,
            ),
            args.candidates,
        )
        config = TrainConfig(
            num_trees=2, num_layers=args.layers,
            num_candidates=args.candidates,
            objective="multiclass" if args.classes > 2 else "binary",
            num_classes=args.classes if args.classes > 2 else 2,
            codec=args.codec,
            backend=args.backend,
        )
        cluster = ClusterConfig(num_workers=args.workers,
                                network=network)
        probe_shape, probe_nnz = workload_of(probe, config, cluster)
        result = plan.build(config, cluster).fit(probe)
        constants = calibrate_constants(
            probe_shape, probe_nnz, plan, result.tree_reports, network,
            codec=args.codec)
        source = (f"in-process probe: {len(result.tree_reports)} trees "
                  f"of {plan.key} on {probe_n} instances")
    print(f"\ncalibration ({source}):")
    print(f"  scan rate: {constants.scan_rate:,.0f} accesses/s "
          f"(prior {constants.prior_scan_rate:,.0f})")
    print(f"  wire scale: {constants.comm_scale:.3f}x the modeled "
          f"network time")
    prior = price_plans(shape, args.nnz_per_instance, network,
                        codec=args.codec)
    calibrated = price_plans(shape, args.nnz_per_instance, network,
                             constants, codec=args.codec)
    print("\nper-plan cost, prior vs calibrated (per tree):")
    print(f"  {'plan':<12} {'prior':>12} {'calibrated':>12} "
          f"{'migration bill':>15}")
    for key in sorted(calibrated,
                      key=lambda k: calibrated[k].total_seconds):
        bill = migration_seconds(
            shape, args.nnz_per_instance, plan.partition,
            PLANS[key].partition, network.bytes_per_second,
            latency_s=network.latency_s,
        ) if key != plan.key else 0.0
        marker = "  <- calibrating plan" if key == plan.key else ""
        print(f"  {key:<12} {prior[key].total_seconds:11.4f}s "
              f"{calibrated[key].total_seconds:11.4f}s "
              f"{bill:14.4f}s{marker}")


def cmd_ledger(args) -> int:
    from .ledger import format_report, load_report

    print(format_report(load_report(args.report)))
    return 0


def cmd_scenarios(args) -> int:
    """``repro scenarios list|run``."""
    import os

    from .ledger import format_report, save_report
    from .serve.scenarios import SCENARIOS, ScenarioRunner, get_scenario

    if args.scenario_command == "list":
        for name in SCENARIOS:
            scenario = SCENARIOS[name]()
            print(f"{name:<22} seed={scenario.seed:<6} "
                  f"tenants={len(scenario.tenants)} "
                  f"window={scenario.duration_s:.2f}s")
            if scenario.description:
                print(f"    {scenario.description}")
        return 0

    names = args.names or list(SCENARIOS)
    scale = 0.2 if args.smoke else args.scale
    if args.shards is not None and args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    failed = False
    for position, name in enumerate(names):
        scenario = get_scenario(name, scale=scale)
        if args.shards is not None:
            import dataclasses

            workers = -(-scenario.num_workers // args.shards) * args.shards
            # the cache holds full-model scores; sharded rows only ever
            # compute partials, so a sharded override drops it
            scenario = dataclasses.replace(
                scenario, num_shards=args.shards, num_workers=workers,
                cache_capacity=(scenario.cache_capacity
                                if args.shards == 1 else 0))
        report = ScenarioRunner(scenario).run()
        print(format_report(report))
        if position + 1 < len(names):
            print()
        if not all(report["invariants"].values()):
            failed = True
        if args.report_out:
            if len(names) == 1:
                path = args.report_out
            else:
                os.makedirs(args.report_out, exist_ok=True)
                path = os.path.join(args.report_out, f"{name}.json")
            save_report(report, path)
    if failed:
        print("FAIL: a scenario violated a ledger invariant "
              "(see above)")
        return 1
    return 0


def cmd_deploy(args) -> int:
    """``repro deploy`` — one closed-loop canary deployment episode."""
    from .ledger import format_report, save_report
    from .serve.deploy import CanaryPolicy, DeployController
    from .serve.scenarios import get_scenario

    if args.smoke:
        # CI mode: the sign-flipped canary must be condemned, the
        # retrain must be cleared, and every ledger invariant must hold
        # under both verdicts.
        expected = {"degraded": "rollback", "healthy": "promote"}
        failed = False
        for model, want in expected.items():
            scenario = get_scenario(args.scenario, scale=0.25)
            report = DeployController(scenario,
                                      canary_model=model).run()
            print(format_report(report))
            print()
            if report["verdict"] != want:
                print(f"FAIL: {model} canary ended "
                      f"{report['verdict']!r}, expected {want!r}")
                failed = True
            if not all(report["invariants"].values()):
                print(f"FAIL: {model} episode violated a ledger "
                      "invariant (see above)")
                failed = True
        return 1 if failed else 0

    scenario = get_scenario(args.scenario, scale=args.scale)
    policy = CanaryPolicy(fraction=args.fraction,
                          canary_workers=args.canary_workers,
                          shadow=args.shadow)
    report = DeployController(scenario, canary=policy,
                              canary_model=args.canary).run()
    print(format_report(report))
    if args.report_out:
        save_report(report, args.report_out)
    if not all(report["invariants"].values()):
        print("FAIL: the episode violated a ledger invariant "
              "(see above)")
        return 1
    return 0


def cmd_doctor(args) -> int:
    """Backend detection report plus the bit-identity battery.

    Exit status: 0 when every available backend is bit-identical to the
    numpy baseline, 1 when a backend imports but miscompares (or its
    battery crashes) — the failure mode worse than a missing install.
    """
    from .core.kernels import DISABLE_ENV, detect_backends
    from .selfcheck import check_backend

    print("kernel backends:")
    infos = detect_backends()
    for info in infos:
        print(f"  {info.describe()}")
    disabled = [i.name for i in infos
                if not i.available and DISABLE_ENV in i.version]
    if disabled:
        print(f"  ({DISABLE_ENV} is masking: {', '.join(disabled)})")
    if args.skip_selfcheck:
        return 0
    print("bit-identity self-check (vs numpy baseline):")
    failed = False
    for info in infos:
        if not info.available:
            print(f"  {info.name}: skipped (not available)")
            continue
        result = check_backend(info.name)
        print(f"  {result.describe()}")
        failed = failed or not result.passed
    if failed:
        print("FAIL: a backend imports but does not reproduce the "
              "numpy baseline bit-for-bit — do not train with it")
        return 1
    print("all available backends are bit-identical")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datagen": cmd_datagen,
        "train": cmd_train,
        "predict": cmd_predict,
        "serve-bench": cmd_serve_bench,
        "advise": cmd_advise,
        "ledger": cmd_ledger,
        "scenarios": cmd_scenarios,
        "deploy": cmd_deploy,
        "doctor": cmd_doctor,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
