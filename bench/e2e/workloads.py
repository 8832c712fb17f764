"""The five pinned workloads of the end-to-end benchmark.

Each workload is an object with four steps the worker times separately:

``generate(seed)``   inputs, a pure function of the seed;
``provision()``      what a serving operation needs before traffic
                     (a trained model in a registry); nothing for training;
``operate(tracer)``  ONE operation: a whole public call (``fit``,
                     ``fit_from_raw``, ``run_scenario``) on a freshly
                     built system object, returning an :class:`Outcome`;
``check(outcome)``   the untimed correctness post-checks, as a list of
                     failure messages.

The seed feeds ``make_classification(seed=...)`` and
``dataclasses.replace(scenario, seed=...)`` only.  Datasets take the
*shape* of a ``CATALOG`` entry but are not built with ``load_catalog``,
whose seed is fixed per entry.  The kernel backend stays at the numpy
default so an installed numba cannot change a number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro import (CATALOG, GBDT, ClusterConfig, ModelRegistry, TrainConfig,
                   auc, bin_dataset, get_plan, make_classification)
from repro.core.serialize import canonical_payload_bytes, ensemble_to_dict
from repro.serve.scenarios import get_scenario, run_scenario

from tracing import instrument_system

#: every training workload: W=8 simulated workers, q=20, L=6, the default
#: 1 Gbps network model, no faults
CLUSTER = ClusterConfig(num_workers=8)
LAYERS = 6
CANDIDATES = 20
#: the repo's own contract for horizontal plans: per-worker partial
#: histograms associate differently from the single-process reference, so
#: they are held to its quality, not to its bits (tests/systems)
HORIZONTAL_AUC_TOLERANCE = 0.02


@dataclass
class Outcome:
    """What one operation produced."""

    #: bytes on the simulated-network ledger — exact
    wire_bytes: int
    #: simulated seconds that are a pure function of the inputs — exact
    sim_s: float
    #: size of the input, the numerator of ``throughput_per_s``
    work: int
    #: sha256 over everything simulated the operation returned
    sim_digest: str
    #: program-reported layer metrics read from the public result
    reported: dict
    #: the public result objects, for the post-checks only
    artefacts: dict = field(default_factory=dict, repr=False)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def shaped_like(name, rows, seed, features=None):
    """A dataset with the shape of ``CATALOG[name]`` drawn from ``seed``
    (sparse shapes concentrate their signal, as ``load_catalog`` does)."""
    entry = CATALOG[name]
    sparse = entry.density < 0.5
    return make_classification(
        rows, features or entry.num_features,
        num_classes=entry.num_classes, density=entry.density,
        num_informative=40 if sparse else None,
        informative_density=0.25 if sparse else None,
        noise=0.5, seed=seed, name=name,
    )


class Training:
    kind = "train"

    def __init__(self, plan, shape, rows, trees, codec="", from_raw=False,
                 valid_rows=0, min_auc=None, features=None):
        self.plan = plan
        self.shape = shape
        self.rows = rows
        self.features = features
        self.from_raw = from_raw
        self.valid_rows = valid_rows
        self.min_auc = min_auc
        self.config = TrainConfig(num_trees=trees, num_layers=LAYERS,
                                  num_candidates=CANDIDATES, codec=codec)
        self.train = self.valid = None

    def generate(self, seed):
        dataset = shaped_like(self.shape, self.rows + self.valid_rows, seed,
                              self.features)
        if self.valid_rows:
            self.train, self.valid = dataset.split(
                self.rows / dataset.num_instances, seed=seed)
        else:
            self.train = dataset

    def provision(self):
        pass

    def operate(self, tracer=None):
        system = get_plan(self.plan).build(self.config, CLUSTER)
        if tracer is not None:
            instrument_system(tracer, system)
        if self.from_raw:
            result, transform = system.fit_from_raw(self.train)
            binned = transform.global_binned
        else:
            result = system.fit(self.train, valid=self.valid)
            binned = None
        ledger = system.net.snapshot()
        memory = result.memory
        model = ensemble_to_dict(result.ensemble)
        return Outcome(
            wire_bytes=ledger.total_bytes,
            sim_s=ledger.total_seconds,
            work=self.train.features.nnz * self.config.num_trees,
            sim_digest=_digest({
                "model": model,
                "bytes_by_kind": ledger.bytes_by_kind,
                "memory": [memory.data_bytes, memory.histogram_bytes],
                "evals": [rec.metric_value for rec in result.evals],
            }),
            reported={
                "systems.modeled_total_s": result.total_modeled_seconds(),
                "systems.modeled_comp_s": sum(
                    r.comp_seconds for r in result.tree_reports),
                "systems.hist_peak_bytes": memory.histogram_bytes,
                "systems.data_bytes": memory.data_bytes,
                "cluster.network.records": len(system.net.records),
                "cluster.network.sim_s": ledger.total_seconds,
                "cluster.codecs.wire_share":
                    ledger.total_bytes / ledger.total_raw_bytes,
            },
            artefacts={"result": result, "binned": binned, "model": model},
        )

    def check(self, outcome):
        """Against the single-process ``GBDT`` reference trainer on the
        same binned data: a vertical plan must match it bit for bit, a
        horizontal plan must match its quality."""
        failures = []
        result = outcome.artefacts["result"]
        binned = outcome.artefacts["binned"]
        vertical = binned is not None
        if not vertical:
            binned = bin_dataset(self.train, CANDIDATES)
        reference = GBDT(self.config)
        expected = reference.fit(self.train, binned=binned).ensemble
        if vertical:
            if ensemble_to_dict(expected) != outcome.artefacts["model"]:
                failures.append(
                    f"{self.plan}: trees differ from the GBDT reference")
        else:
            held_out = self.valid if self.valid is not None else self.train
            plan_auc, reference_auc = (
                auc(held_out.labels, reference.predict(model, held_out))
                for model in (result.ensemble, expected))
            if abs(plan_auc - reference_auc) > HORIZONTAL_AUC_TOLERANCE:
                failures.append(
                    f"{self.plan}: AUC {plan_auc:.4f} vs reference "
                    f"{reference_auc:.4f}")
        if self.min_auc is not None:
            final = result.evals[-1].metric_value
            if final < self.min_auc:
                failures.append(f"{self.plan}: final validation AUC "
                                f"{final:.4f} < {self.min_auc}")
        return failures


class Serving:
    kind = "serve"

    def __init__(self, scenario, scale):
        self.scenario_name = scenario
        self.scale = scale
        self.scenario = self.registry = self.cuts = None

    def generate(self, seed):
        self.scenario = dataclasses.replace(
            get_scenario(self.scenario_name, scale=self.scale), seed=seed)

    def provision(self):
        """The model the fleet serves, as ``ScenarioRunner`` would train
        it, published once so operations only replay traffic."""
        s = self.scenario
        dataset = make_classification(
            s.model_instances, s.num_features, density=0.8, seed=s.seed,
            name=f"scenario-{s.name}")
        config = TrainConfig(
            num_trees=s.model_trees, num_layers=s.model_layers,
            num_candidates=s.model_candidates, learning_rate=0.3)
        self.registry = ModelRegistry()
        self.registry.publish(GBDT(config).fit(dataset).ensemble,
                              source=f"bench:{s.name}")
        self.cuts = bin_dataset(dataset, s.model_candidates).cuts

    def operate(self, tracer=None):
        report = run_scenario(self.scenario, self.registry, self.cuts)
        totals = report["totals"]
        by_kind = report["wire"]["bytes_by_kind"]
        batches = totals["batches"]
        return Outcome(
            wire_bytes=sum(by_kind.values()),
            sim_s=totals["makespan_s"],
            work=totals["arrivals"],
            sim_digest=hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()).hexdigest(),
            reported={
                "serve.batcher.batches": batches,
                "serve.batcher.shed": totals["dropped"],
                "serve.batcher.mean_batch_rows":
                    totals["served"] / batches if batches else 0.0,
                "serve.batcher.sim_p50_ms": totals["p50_s"] * 1e3,
                "serve.batcher.sim_p99_ms": totals["p99_s"] * 1e3,
                "serve.batcher.sim_queue_mean_ms":
                    totals["mean_queue_s"] * 1e3,
                "serve.batcher.drop_share": totals["drop_rate"],
                "serve.sharded.partial_bytes":
                    by_kind.get("serve:partial", 0),
            },
            artefacts={"report": report},
        )

    def check(self, outcome):
        report = outcome.artefacts["report"]
        totals = report["totals"]
        failures = [f"{self.scenario_name}: invariant {name} is false"
                    for name, ok in report["invariants"].items() if not ok]
        if totals["served"] + totals["dropped"] != totals["arrivals"]:
            failures.append(f"{self.scenario_name}: served + dropped "
                            "!= arrivals")
        return failures


def build(name, tiny=False):
    """The workload called ``name`` — at the pinned size, or at the
    selftest's tiny size (same code paths, seconds instead of minutes)."""
    if tiny:
        sparse = dict(shape="rcv1", rows=500, features=200, trees=2)
        return {
            "train-vero-sparse": Training("vero", from_raw=True, **sparse),
            "train-qd2-dense": Training(
                "qd2", "susy", rows=2_000, valid_rows=400, trees=3),
            "train-qd2-sparse-codec": Training(
                "qd2", codec="sparse", **sparse),
            "serve-heavy-tail": Serving("heavy-tail", 0.1),
            "serve-steady-sharded": Serving("sharded-steady", 0.2),
        }[name]
    rcv1 = CATALOG["rcv1"].num_instances
    return {
        "train-vero-sparse": Training(
            "vero", "rcv1", rows=rcv1, trees=10, from_raw=True),
        # T=40 at N=40k on purpose: at N >= 80k the same operation is
        # bimodal in a small sandbox (page-fault bound).  The AUC floor
        # must hold for every seed: seeds 0-29 give 0.76-0.995
        "train-qd2-dense": Training(
            "qd2", "susy", rows=40_000, valid_rows=8_000, trees=40,
            min_auc=0.65),
        "train-qd2-sparse-codec": Training(
            "qd2", "rcv1", rows=rcv1, trees=10, codec="sparse"),
        "serve-heavy-tail": Serving("heavy-tail", 8),
        "serve-steady-sharded": Serving("sharded-steady", 8),
    }[name]
