"""Declarative, seeded traffic scenarios and the conformance runner.

The serving benches so far replay one seeded Poisson trace — which says
nothing about how the stack behaves at the north-star scale of "heavy
traffic from millions of users".  This module makes the *workload* a
first-class, replayable object (the Qd-tree lens: learn from and test
against the workload, don't hard-code it):

* :class:`TenantSpec` — one tenant of a multi-tenant fleet: an offered
  rate, a latency SLO, an admission priority class, and a repeat rate
  (the fraction of requests that re-send a previous feature vector,
  which is what a prediction cache lives on);
* :class:`LoadShape` — deterministic rate modulation over the scenario
  window: steady, diurnal (sinusoidal), or flash crowd (a burst
  multiplier inside a sub-window);
* :class:`Scenario` — the full declarative description: tenants, shape,
  batching policy, replica fleet, cache, hot-swap schedule, and fault
  plan, plus one seed that fixes every random draw;
* :func:`build_trace` — lowers a scenario into a
  :class:`~repro.serve.batcher.RequestTrace` via per-tenant thinned
  non-homogeneous Poisson arrivals merged on the simulated clock;
* :class:`ScenarioRunner` — replays the trace through the real stack
  (micro-batcher + replica set + registry hot-swap + fault injection)
  and emits a ``scenario-report/v1`` JSON with per-tenant latency
  percentiles, drop and SLO-violation rates, cache ledger, and wire
  bytes.

Everything is driven by seeded generators and a deterministic service
model, so running any scenario twice produces **byte-identical** report
JSON — the conformance property ``tests/serve/test_scenarios.py`` pins
against a golden fixture, exactly like the PR 4 golden model.

The shipped :data:`SCENARIOS` registry covers the evaluation grid that
Guan et al.'s database-perspective inference comparison lays out (batch
size, concurrency, model shape) across the traffic regimes ``steady``,
``diurnal``, ``flash-crowd``, ``heavy-tail`` (multi-tenant Pareto rates
with priority admission), and ``hot-swap-under-fire``, plus
``sharded-steady`` — the steady baseline served by a tree-sharded fleet
(:class:`~repro.serve.sharded.ShardedReplicaSet`) whose scores must stay
bit-identical to replicated serving.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig, NetworkModel, TrainConfig
from ..cluster.faults import FaultInjector, FaultPlan
from ..cluster.network import SimulatedNetwork
from ..core.kernels import walk_block_rows
from ..data.dataset import bin_dataset
from ..data.synthetic import make_classification
from ..ledger import SCENARIO_SCHEMA, percentile_summary
from .batcher import BatchPolicy, MicroBatcher, RequestTrace, ServingReport
from .cache import PredictionCache
from .registry import ModelRegistry, publish_trained
from .replica import CACHE_SHARDING_CONFLICT, ReplicaSet
from .sharded import fleet_class

# ---------------------------------------------------------------------------
# Declarative pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the fleet: rate, SLO, priority, repeat behaviour.

    ``priority`` is the admission class consumed by the batcher's
    priority-aware shedding — **higher is more important** (shed last).
    ``slo_s`` is the tenant's end-to-end latency objective; a served
    request above it, or any dropped request, counts as an SLO
    violation.  ``repeat_rate`` is the probability that a request
    re-sends a uniformly drawn earlier vector *of the same tenant* —
    the exact-hit traffic a :class:`~repro.serve.cache.PredictionCache`
    converts into cache hits.
    """

    name: str
    rate_rps: float
    slo_s: float
    priority: int = 0
    repeat_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0.0:
            raise ValueError(f"tenant {self.name!r}: rate_rps must be "
                             f"positive, got {self.rate_rps}")
        if self.slo_s <= 0.0:
            raise ValueError(f"tenant {self.name!r}: slo_s must be "
                             f"positive, got {self.slo_s}")
        if not 0.0 <= self.repeat_rate < 1.0:
            raise ValueError(f"tenant {self.name!r}: repeat_rate must "
                             f"be in [0, 1), got {self.repeat_rate}")


@dataclass(frozen=True)
class LoadShape:
    """Deterministic arrival-rate modulation ``rate(t)`` over a window.

    ``steady``  — ``rate(t) = base``;
    ``diurnal`` — ``base * (1 + amplitude * sin(2 pi t / period_s))``,
    the compressed day/night cycle (``amplitude < 1`` keeps the rate
    positive);
    ``flash``   — ``base * flash_x`` inside ``[flash_at_s,
    flash_at_s + flash_len_s)``, ``base`` outside: a flash crowd.
    """

    kind: str = "steady"
    amplitude: float = 0.0
    period_s: float = 1.0
    flash_at_s: float = 0.0
    flash_len_s: float = 0.0
    flash_x: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("steady", "diurnal", "flash"):
            raise ValueError(f"unknown load shape {self.kind!r} "
                             "(steady, diurnal or flash)")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) so the rate "
                             f"stays positive, got {self.amplitude}")
        if self.period_s <= 0.0:
            raise ValueError(f"period_s must be positive, "
                             f"got {self.period_s}")
        if self.flash_x < 1.0:
            raise ValueError(f"flash_x must be >= 1, got {self.flash_x}")
        if self.flash_at_s < 0.0 or self.flash_len_s < 0.0:
            raise ValueError("flash window must be non-negative")

    def rate_at(self, t: np.ndarray, base: float) -> np.ndarray:
        """Instantaneous rate at simulated times ``t`` (vectorized)."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "diurnal":
            return base * (1.0 + self.amplitude
                           * np.sin(2.0 * np.pi * t / self.period_s))
        if self.kind == "flash":
            inside = (t >= self.flash_at_s) \
                & (t < self.flash_at_s + self.flash_len_s)
            return base * np.where(inside, self.flash_x, 1.0)
        return np.full_like(t, base)

    def peak_rate(self, base: float) -> float:
        """Upper bound of ``rate_at`` — the thinning envelope."""
        if self.kind == "diurnal":
            return base * (1.0 + self.amplitude)
        if self.kind == "flash":
            return base * self.flash_x
        return base

    def scaled(self, factor: float) -> "LoadShape":
        """The same shape compressed onto a ``factor``-times window."""
        return dataclasses.replace(
            self, period_s=self.period_s * factor,
            flash_at_s=self.flash_at_s * factor,
            flash_len_s=self.flash_len_s * factor,
        )

    def to_dict(self) -> dict:
        entry = {"kind": self.kind}
        if self.kind == "diurnal":
            entry.update(amplitude=self.amplitude, period_s=self.period_s)
        elif self.kind == "flash":
            entry.update(flash_at_s=self.flash_at_s,
                         flash_len_s=self.flash_len_s,
                         flash_x=self.flash_x)
        return entry


@dataclass(frozen=True)
class Scenario:
    """A complete, seeded serving-workload description.

    One ``seed`` fixes every random draw — per-tenant arrivals, feature
    vectors, repeats, and the in-process models the runner trains — so a
    scenario is a pure function from its declaration to its report.
    ``service_base_s``/``service_per_row_s`` define the deterministic
    affine service model (seconds per dispatched batch of ``k`` billed
    rows: ``base + per_row * k``); simulated time never reads a wall
    clock, which is what makes replays byte-identical.
    """

    name: str
    seed: int
    duration_s: float
    tenants: Tuple[TenantSpec, ...]
    shape: LoadShape = field(default_factory=LoadShape)
    num_features: int = 20
    missing_rate: float = 0.2
    max_batch_size: int = 64
    max_delay_s: float = 0.002
    max_queue: int = 256
    overload: str = "shed-oldest"
    num_workers: int = 2
    #: tree-shard groups ``S`` of the one ``R x S`` fleet
    #: (``ReplicaSet(..., num_shards=S)``): 1 replicates the full model
    #: to every worker, > 1 gives ``num_workers / num_shards`` replica
    #: rows of tree-range shards, so ``num_workers`` must divide evenly
    num_shards: int = 1
    balancer: str = "round-robin"
    service_base_s: float = 0.002
    service_per_row_s: float = 0.00005
    cache_capacity: int = 0
    hot_swap_at_s: float = -1.0
    #: mean delay (simulated seconds) between a request being served and
    #: its binary outcome label becoming available; 0 disables label
    #: emission (the deployment scenarios set it — delayed labels are
    #: what feeds the drift monitor)
    label_delay_s: float = 0.0
    faults: str = ""
    model_trees: int = 4
    model_layers: int = 4
    model_candidates: int = 16
    model_instances: int = 600
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if self.duration_s <= 0.0:
            raise ValueError(f"duration_s must be positive, "
                             f"got {self.duration_s}")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.label_delay_s < 0.0:
            raise ValueError(f"label_delay_s must be >= 0, "
                             f"got {self.label_delay_s}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, "
                             f"got {self.num_shards}")
        if self.num_workers % self.num_shards != 0:
            raise ValueError(
                f"num_workers ({self.num_workers}) must be a multiple "
                f"of num_shards ({self.num_shards}) so every replica "
                "row holds one worker per shard group"
            )
        if self.num_shards > 1 and self.cache_capacity > 0:
            raise ValueError(CACHE_SHARDING_CONFLICT)
        self.policy  # validate the batching knobs eagerly

    def model_data(self, role: str):
        """``(dataset, config)`` the served model trains on: the seeded
        draw named ``{role}-{name}`` (``scenario`` or ``deploy``; the
        name never reaches a tree) under the scenario's model knobs."""
        dataset = make_classification(
            self.model_instances, self.num_features, density=0.8,
            seed=self.seed, name=f"{role}-{self.name}",
        )
        config = TrainConfig(
            num_trees=self.model_trees, num_layers=self.model_layers,
            num_candidates=self.model_candidates, learning_rate=0.3,
        )
        return dataset, config

    @property
    def policy(self) -> BatchPolicy:
        return BatchPolicy(
            max_batch_size=self.max_batch_size,
            max_delay_s=self.max_delay_s,
            max_queue=self.max_queue,
            overload=self.overload,
        )

    def scaled(self, factor: float) -> "Scenario":
        """A shorter replica of the scenario (smoke/quick modes): the
        window, its shape landmarks, and the hot-swap instant shrink by
        ``factor``; rates and fleet stay untouched."""
        if factor <= 0.0:
            raise ValueError(f"scale factor must be positive, "
                             f"got {factor}")
        return dataclasses.replace(
            self,
            duration_s=self.duration_s * factor,
            shape=self.shape.scaled(factor),
            hot_swap_at_s=(self.hot_swap_at_s * factor
                           if self.hot_swap_at_s >= 0.0 else -1.0),
            label_delay_s=self.label_delay_s * factor,
        )

    def config_dict(self) -> dict:
        """The declaration echoed into the report (JSON-ready).

        ``label_delay_s`` and ``num_shards`` are echoed only when set,
        so reports of the pre-existing scenarios stay byte-identical to
        their golden fixtures.
        """
        extra = ({"label_delay_s": self.label_delay_s}
                 if self.label_delay_s > 0.0 else {})
        if self.num_shards > 1:
            extra["num_shards"] = self.num_shards
        return {
            **extra,
            "duration_s": self.duration_s,
            "shape": self.shape.to_dict(),
            "num_features": self.num_features,
            "missing_rate": self.missing_rate,
            "policy": {
                "max_batch_size": self.max_batch_size,
                "max_delay_s": self.max_delay_s,
                "max_queue": self.max_queue,
                "overload": self.overload,
            },
            "num_workers": self.num_workers,
            "balancer": self.balancer,
            "service_base_s": self.service_base_s,
            "service_per_row_s": self.service_per_row_s,
            "cache_capacity": self.cache_capacity,
            "hot_swap_at_s": self.hot_swap_at_s,
            "faults": self.faults,
            "model": {
                "trees": self.model_trees,
                "layers": self.model_layers,
                "candidates": self.model_candidates,
                "instances": self.model_instances,
            },
            "tenants": [
                {
                    "name": t.name, "rate_rps": t.rate_rps,
                    "slo_s": t.slo_s, "priority": t.priority,
                    "repeat_rate": t.repeat_rate,
                }
                for t in self.tenants
            ],
        }


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

def _thinned_arrivals(rng: np.random.Generator, shape: LoadShape,
                      base_rate: float, duration: float) -> np.ndarray:
    """Non-homogeneous Poisson arrivals on ``[0, duration)`` by thinning.

    Candidates arrive at the constant envelope rate
    ``shape.peak_rate(base_rate)``; each is accepted with probability
    ``rate_at(t) / peak``.  All draws come from ``rng`` in a fixed
    order, so the same seed always yields the same arrivals.
    """
    peak = shape.peak_rate(base_rate)
    times: List[np.ndarray] = []
    t = 0.0
    expected = max(int(peak * duration * 1.25) + 16, 32)
    while t < duration:
        gaps = rng.exponential(1.0 / peak, expected)
        chunk = t + np.cumsum(gaps)
        times.append(chunk)
        t = float(chunk[-1])
    candidates = np.concatenate(times)
    candidates = candidates[candidates < duration]
    accept = rng.random(candidates.size) \
        < shape.rate_at(candidates, base_rate) / peak
    return candidates[accept]


def build_trace(scenario: Scenario) -> RequestTrace:
    """Lower a scenario into a multi-tenant :class:`RequestTrace`.

    Per tenant (in declaration order): thinned Poisson arrivals under
    the scenario's load shape, Gaussian feature rows with
    ``missing_rate`` NaN blanks, then ``repeat_rate`` of the rows
    replaced by copies of uniformly drawn earlier rows of the same
    tenant.  The per-tenant streams are then merged by arrival time
    (stable sort: ties keep declaration order), carrying tenant indices
    and priorities for the batcher's admission control.
    """
    rng = np.random.default_rng(scenario.seed)
    all_times: List[np.ndarray] = []
    all_features: List[np.ndarray] = []
    all_tenants: List[np.ndarray] = []
    all_priorities: List[np.ndarray] = []
    for index, tenant in enumerate(scenario.tenants):
        times = _thinned_arrivals(rng, scenario.shape, tenant.rate_rps,
                                  scenario.duration_s)
        n = times.size
        features = rng.standard_normal((n, scenario.num_features))
        if scenario.missing_rate > 0.0:
            blank = rng.random(features.shape) < scenario.missing_rate
            features[blank] = np.nan
        if tenant.repeat_rate > 0.0 and n > 1:
            repeats = rng.random(n) < tenant.repeat_rate
            for i in np.flatnonzero(repeats):
                if i == 0:
                    continue
                features[i] = features[int(rng.integers(i))]
        all_times.append(times)
        all_features.append(features)
        all_tenants.append(np.full(n, index, dtype=np.int32))
        all_priorities.append(
            np.full(n, tenant.priority, dtype=np.int32))
    times = np.concatenate(all_times)
    order = np.argsort(times, kind="stable")
    return RequestTrace(
        features=np.concatenate(all_features, axis=0)[order],
        arrivals=times[order],
        tenants=np.concatenate(all_tenants)[order],
        priorities=np.concatenate(all_priorities)[order],
    )


# ---------------------------------------------------------------------------
# Delayed labels
# ---------------------------------------------------------------------------

#: seed-stream tag for label draws — a *separate* stream from the trace
#: builder's, so adding labels to a scenario never perturbs its arrivals
_LABEL_STREAM = 0x1ABE1


@dataclass(frozen=True)
class LabelStream:
    """Delayed binary outcome labels for a request trace.

    ``labels[i]`` is the ground-truth outcome of request ``i``;
    ``available_s[i]`` is the simulated instant it becomes observable —
    arrival plus an exponential reporting delay, the click-stream
    pattern where feedback trails serving by seconds to days.  The
    deployment controller joins these with the served scores to feed
    per-version drift monitors.
    """

    labels: np.ndarray
    available_s: np.ndarray
    mean_delay_s: float

    def __post_init__(self) -> None:
        if self.labels.shape != self.available_s.shape:
            raise ValueError("one availability time per label required")

    @property
    def num_labels(self) -> int:
        return int(self.labels.size)


def served_probability(raw: np.ndarray) -> np.ndarray:
    """Per-request probability of a binary model's ``(N, 1)`` raw
    scores: the logistic link, the score clipped to ``±60`` — what the
    labels are drawn from and what the drift monitor is fed."""
    raw = np.asarray(raw)[:, 0]
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0)))


def emit_labels(trace: RequestTrace, teacher,
                mean_delay_s: float, seed: int) -> LabelStream:
    """Generate delayed binary labels for every request of a trace.

    ``teacher`` is the compiled ensemble treated as the ground-truth
    process: request ``i``'s label is a Bernoulli draw with probability
    ``sigmoid(teacher.raw_scores(row_i))``.  Labels generated by the
    *incumbent* model make the incumbent well-calibrated by
    construction, so a canary that scores the same traffic worse is
    genuinely worse — the monitor's comparison is against reality, not
    against a favored baseline.  Delays are exponential with mean
    ``mean_delay_s``.  All draws come from a dedicated seed stream, so
    the trace itself is unchanged by label emission.
    """
    if mean_delay_s <= 0.0:
        raise ValueError(f"mean_delay_s must be positive, "
                         f"got {mean_delay_s}")
    raw = np.asarray(teacher.raw_scores(trace.features))
    if raw.ndim != 2 or raw.shape[1] != 1:
        raise ValueError(
            "delayed labels need a binary teacher (one raw score per "
            f"request), got score shape {raw.shape}"
        )
    probs = served_probability(raw)
    rng = np.random.default_rng([int(seed), _LABEL_STREAM])
    labels = (rng.random(trace.num_requests) < probs).astype(np.int8)
    delays = rng.exponential(mean_delay_s, trace.num_requests)
    return LabelStream(labels=labels,
                       available_s=trace.arrivals + delays,
                       mean_delay_s=mean_delay_s)


# ---------------------------------------------------------------------------
# Invariant audits
# ---------------------------------------------------------------------------

def audit_priority_admission(trace: RequestTrace,
                             report: ServingReport) -> bool:
    """Check the admission invariant against the finished ledger:
    no ``shed-oldest`` drop of a request while a strictly
    lower-priority request sat in the queue.

    A request occupies the queue from its arrival until its batch
    closes (served) or it is dropped.  The check is ledger-only — it
    re-derives occupancy from the columns rather than trusting the
    scheduler — so it catches a broken shed policy, not just a broken
    report.

    Occupancy is counted, not scanned: with one priority class's
    arrivals ``A`` and departures ``D`` each sorted once, the members
    queued at a shed instant ``t`` number ``#{A < t} - #{D <= t}``, two
    binary searches per shed.  Ties are strict on both sides — a request
    arriving at exactly ``t`` is not yet queued, one departing at
    exactly ``t`` (the victim itself included) is already gone — and a
    request that never waited (``departure <= arrival``: a reject, or an
    admission at its batch's close instant) is left out, since it can
    hold no instant strictly inside its stay and would otherwise count
    ``-1`` at a shed that ties with it.
    """
    if trace.priorities is None:
        return True
    sheds = report.drop_reason == "shed-oldest"
    if not sheds.any():
        return True
    ids = np.concatenate((report.request_id, report.drop_id))
    dep = np.concatenate((report.batch_close_s[report.request_batch],
                          report.drop_s))
    arr = trace.arrivals[ids]
    waited = dep > arr
    arr, dep, pri = arr[waited], dep[waited], trace.priorities[ids[waited]]
    shed_s = report.drop_s[sheds]
    shed_pri = report.drop_priority[sheds]
    for cls in np.unique(pri[pri < shed_pri.max()]):
        members = pri == cls
        at = shed_s[shed_pri > cls]
        queued = (
            np.searchsorted(np.sort(arr[members]), at, side="left")
            - np.searchsorted(np.sort(dep[members]), at, side="right"))
        if (queued > 0).any():
            return False
    return True


def audit_scores(trace: RequestTrace, report: ServingReport,
                 registry: ModelRegistry) -> bool:
    """Every served score equals the naive tree walk
    (:meth:`TreeEnsemble.raw_scores`) of the version that served it
    — a predictor that shares no code with the compiled one, so the
    check never holds a call up against itself.  Rows are checked a
    walk block at a time, which bounds the check's memory.  A run
    that served requests without collecting their scores fails."""
    if not report.request_id.size:
        return True
    if report.scores is None:
        return False
    ids, versions = report.request_id, report.request_version
    step = walk_block_rows(trace.features.shape[1])
    for version in np.unique(versions):
        ensemble = registry.get(int(version)).ensemble
        rows = np.flatnonzero(versions == version)
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            direct = ensemble.raw_scores(trace.csc(ids[chunk]))
            if not np.array_equal(report.scores[chunk], direct):
                return False
    return True


def serving_invariants(trace: RequestTrace, report: ServingReport,
                       registry: ModelRegistry) -> dict:
    """The ledger invariants every serving report carries (DESIGN §14,
    "Conformance harness"): exactly-once conservation, priority
    admission, the request -> batch join and score exactness."""
    return {
        "conservation_ok": report.exactly_once(),
        "priority_admission_ok": audit_priority_admission(trace, report),
        "single_version_batches": report.single_version_batches(),
        "scores_exact": audit_scores(trace, report, registry),
    }


def serving_summary(trace: RequestTrace, report: ServingReport) -> dict:
    """The ledger totals every serving report carries: arrivals, what
    was served, dropped and batched, and the latency distribution."""
    stats = report.latency_stats().to_dict()
    return {"arrivals": trace.num_requests, "served": stats.pop("count"),
            "batches": report.batch_size.size, **stats}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

def wire_ledger(network: SimulatedNetwork) -> dict:
    """The wire block every episode report carries: the retry bytes the
    fault plan cost, and the whole ledger by kind, sorted."""
    by_kind = network.snapshot().bytes_by_kind
    return {
        "retry_bytes": sum(nbytes for kind, nbytes in by_kind.items()
                           if kind.startswith("retry:")),
        "bytes_by_kind": dict(sorted(by_kind.items())),
    }


def build_fleet(scenario: Scenario, registry: ModelRegistry,
                **options) -> ReplicaSet:
    """The fleet a scenario declares: its fault plan on the deploy path
    of a fresh simulated network, under an ``R x S`` grid with the
    scenario's balancer and deterministic affine service model.
    ``options`` pass through to the fleet (``cache``, ``delta_deploys``).
    """
    s = scenario
    injector = None
    if s.faults:
        injector = FaultInjector(
            FaultPlan.parse(s.faults), num_workers=s.num_workers,
            num_trees=1, num_layers=2)
    return fleet_class(s.num_shards)(
        registry, ClusterConfig(num_workers=s.num_workers),
        num_shards=s.num_shards,
        network=SimulatedNetwork(NetworkModel(), injector=injector),
        balancer=s.balancer,
        service_model=lambda k: s.service_base_s + s.service_per_row_s * k,
        **options)


class ScenarioRunner:
    """Replay one scenario through the full serving stack.

    The runner trains the served model (and its hot-swap successor) in
    process from the scenario seed, publishes them to a fresh registry,
    deploys over a simulated replica fleet (with fault injection on the
    deploy path when the scenario declares a fault plan), replays the
    generated trace through the micro-batcher, and emits the
    ``scenario-report/v1`` dict.  ``registry``/``cuts`` can be injected
    to reuse pre-trained models across many runs (the test suites do).

    After :meth:`run`, the raw artifacts stay available as
    ``runner.trace``, ``runner.serving_report`` and ``runner.replicas``
    for white-box assertions.
    """

    def __init__(self, scenario: Scenario,
                 registry: Optional[ModelRegistry] = None,
                 cuts: Optional[list] = None) -> None:
        self.scenario = scenario
        self.registry = registry
        self.cuts = cuts
        self.trace: Optional[RequestTrace] = None
        self.serving_report: Optional[ServingReport] = None
        self.replicas: Optional[ReplicaSet] = None
        self.cache: Optional[PredictionCache] = None

    # -- model provisioning ------------------------------------------------

    def _provision(self) -> None:
        if self.registry is not None:
            return
        s = self.scenario
        dataset, config = s.model_data("scenario")
        self.registry = ModelRegistry()
        publish_trained(
            self.registry, dataset, config, f"scenario:{s.name}:v1",
            successor=(f"scenario:{s.name}:v2"
                       if s.hot_swap_at_s >= 0.0 else None))
        # the same binning fit() used, so every split threshold sits on
        # the quantizer's bin grid — the precondition for exact bin-id
        # cache keys
        self.cuts = bin_dataset(dataset, s.model_candidates).cuts

    # -- the replay --------------------------------------------------------

    def run(self) -> dict:
        """Replay the scenario; returns the ``scenario-report/v1`` dict."""
        s = self.scenario
        self._provision()
        trace = build_trace(s)
        self.trace = trace

        cache = (PredictionCache(s.cache_capacity, cuts=self.cuts)
                 if s.cache_capacity > 0 else None)
        self.cache = cache
        if cache is not None:
            # eager invalidation on every activation change (hot-swap
            # and rollback alike) — the lazy serve()-time check alone
            # would let a rolled-back version's entries linger until
            # the next lookup
            self.registry.attach_cache(cache)
        replicas = build_fleet(s, self.registry, cache=cache)
        self.replicas = replicas
        replicas.deploy(1)
        swaps = []
        if s.hot_swap_at_s >= 0.0:
            swaps.append((s.hot_swap_at_s, replicas.deployer(2)))
        batcher = MicroBatcher(replicas, s.policy)
        report = batcher.run(trace, swaps=swaps, collect_scores=True)
        self.serving_report = report
        return self._build_report(trace, report, replicas, cache)

    # -- report assembly ---------------------------------------------------

    def _build_report(self, trace: RequestTrace, report: ServingReport,
                      replicas: ReplicaSet,
                      cache: Optional[PredictionCache]) -> dict:
        s = self.scenario
        arrivals_per_tenant = np.bincount(
            trace.tenants, minlength=len(s.tenants))
        # each tenant's latencies are a mask over the request columns,
        # so they keep dispatch order
        served_tenant = trace.tenants[report.request_id]
        served_lat = report.latency_s
        dropped_per_tenant = np.bincount(report.drop_tenant,
                                         minlength=len(s.tenants))

        tenants: Dict[str, dict] = {}
        total_violations = 0
        for index, tenant in enumerate(s.tenants):
            lat = served_lat[served_tenant == index]
            offered = int(arrivals_per_tenant[index])
            dropped = int(dropped_per_tenant[index])
            violations = int((lat > tenant.slo_s).sum()) + dropped
            total_violations += violations
            summary = percentile_summary(lat)
            tenants[tenant.name] = {
                "priority": tenant.priority,
                "rate_rps": tenant.rate_rps,
                "slo_s": tenant.slo_s,
                "arrivals": offered,
                "served": int(lat.size),
                "dropped": dropped,
                "drop_rate": dropped / offered if offered else 0.0,
                "p50_s": summary["p50_s"],
                "p95_s": summary["p95_s"],
                "p99_s": summary["p99_s"],
                "max_s": summary["max_s"],
                "slo_violations": violations,
                "slo_violation_rate": (violations / offered
                                       if offered else 0.0),
            }

        return {
            "schema": SCENARIO_SCHEMA,
            "scenario": s.name,
            "description": s.description,
            "seed": s.seed,
            "config": s.config_dict(),
            "totals": {
                **serving_summary(trace, report),
                "slo_violations": total_violations,
                "slo_violation_rate": (
                    total_violations / trace.num_requests
                    if trace.num_requests else 0.0),
            },
            "tenants": tenants,
            "cache": cache.stats.to_dict() if cache is not None else None,
            "wire": {
                "deploy_bytes": replicas.deploy_bytes,
                "deploy_raw_bytes": replicas.deploy_raw_bytes,
                **wire_ledger(replicas.network),
            },
            "versions_served": report.versions_served(),
            "invariants": serving_invariants(trace, report, self.registry),
        }


def run_scenario(scenario: Scenario,
                 registry: Optional[ModelRegistry] = None,
                 cuts: Optional[list] = None) -> dict:
    """One-shot convenience wrapper around :class:`ScenarioRunner`."""
    return ScenarioRunner(scenario, registry=registry, cuts=cuts).run()


# ---------------------------------------------------------------------------
# The shipped scenario registry
# ---------------------------------------------------------------------------

def _steady() -> Scenario:
    return Scenario(
        name="steady",
        seed=1001,
        duration_s=1.0,
        tenants=(TenantSpec("web", rate_rps=2500.0, slo_s=0.030),),
        shape=LoadShape(kind="steady"),
        description="single-tenant Poisson baseline well inside "
                    "capacity: no drops expected, the latency floor "
                    "of the fleet",
    )


def _diurnal() -> Scenario:
    return Scenario(
        name="diurnal",
        seed=2002,
        duration_s=1.2,
        tenants=(
            TenantSpec("api", rate_rps=1800.0, slo_s=0.030, priority=1,
                       repeat_rate=0.45),
            TenantSpec("batch", rate_rps=900.0, slo_s=0.120,
                       priority=0),
        ),
        shape=LoadShape(kind="diurnal", amplitude=0.6, period_s=0.6),
        cache_capacity=2048,
        description="compressed day/night cycle over two tenants; the "
                    "api tenant re-sends 45% of its vectors, which the "
                    "prediction cache absorbs",
    )


def _flash_crowd() -> Scenario:
    return Scenario(
        name="flash-crowd",
        seed=3003,
        duration_s=1.0,
        tenants=(TenantSpec("web", rate_rps=1500.0, slo_s=0.040),),
        shape=LoadShape(kind="flash", flash_at_s=0.35, flash_len_s=0.2,
                        flash_x=8.0),
        num_workers=2,
        max_queue=128,
        overload="shed-oldest",
        service_base_s=0.004,
        service_per_row_s=0.0001,
        description="an 8x burst for 200ms against a fleet sized for "
                    "the base rate: the bounded queue fills and "
                    "shed-oldest keeps the served batches fresh",
    )


def _heavy_tail() -> Scenario:
    """Eight tenants with Pareto-drawn rates and three priority classes.

    The Pareto draws are fixed by their own seed *inside this builder*
    so the fleet is part of the declaration (and of the report's config
    echo), not of the replay."""
    rng = np.random.default_rng(4004)
    raw = rng.pareto(1.5, 8) + 1.0
    rates = 8000.0 * raw / raw.sum()
    tenants = tuple(
        TenantSpec(
            name=f"tenant-{i}",
            rate_rps=float(max(rates[i], 80.0)),
            slo_s=0.050 if i % 3 == 2 else 0.100,
            priority=i % 3,
        )
        for i in range(8)
    )
    return Scenario(
        name="heavy-tail",
        seed=4004,
        duration_s=1.0,
        tenants=tenants,
        shape=LoadShape(kind="steady"),
        num_workers=1,
        max_queue=96,
        overload="shed-oldest",
        service_base_s=0.004,
        service_per_row_s=0.0001,
        description="heavy-tailed per-tenant rates (Pareto alpha=1.5) "
                    "across three priority classes; overload sheds the "
                    "lowest class first, never a higher one over a "
                    "queued lower one",
    )


def _hot_swap_under_fire() -> Scenario:
    return Scenario(
        name="hot-swap-under-fire",
        seed=5005,
        duration_s=1.0,
        tenants=(
            TenantSpec("web", rate_rps=2000.0, slo_s=0.040,
                       repeat_rate=0.5),
        ),
        shape=LoadShape(kind="steady"),
        cache_capacity=1024,
        hot_swap_at_s=0.5,
        faults="7:drop=0.25,timeout=0.15",
        description="a mid-traffic model deploy over a faulty network "
                    "(drops and timeouts retried on the deploy path): "
                    "every batch still serves exactly one version and "
                    "the cache invalidates at the swap",
    )


def _sharded_steady() -> Scenario:
    return Scenario(
        name="sharded-steady",
        seed=7007,
        duration_s=1.0,
        tenants=(TenantSpec("web", rate_rps=2500.0, slo_s=0.030),),
        shape=LoadShape(kind="steady"),
        num_workers=4,
        num_shards=2,
        model_trees=8,
        description="the steady baseline served by a tree-sharded "
                    "fleet: two replica rows of two workers, each "
                    "holding half the trees, with partial scores "
                    "chained through the score-reduction collective — "
                    "scores stay bit-identical to replicated serving",
    )


def _canary_under_fire() -> Scenario:
    return Scenario(
        name="canary-under-fire",
        seed=6006,
        duration_s=1.0,
        tenants=(TenantSpec("web", rate_rps=2400.0, slo_s=0.040),),
        shape=LoadShape(kind="flash", flash_at_s=0.6, flash_len_s=0.15,
                        flash_x=3.0),
        num_workers=4,
        max_queue=192,
        overload="shed-oldest",
        service_base_s=0.003,
        service_per_row_s=0.00006,
        label_delay_s=0.06,
        faults="11:drop=0.2,timeout=0.1",
        description="a canary rollout evaluated under a 3x flash crowd "
                    "and a faulty deploy network: delayed labels feed "
                    "per-version drift monitors while a slice of the "
                    "fleet serves the candidate",
    )


#: the shipped scenario library, name -> builder
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "steady": _steady,
    "diurnal": _diurnal,
    "flash-crowd": _flash_crowd,
    "heavy-tail": _heavy_tail,
    "hot-swap-under-fire": _hot_swap_under_fire,
    "sharded-steady": _sharded_steady,
    "canary-under-fire": _canary_under_fire,
}


def get_scenario(name: str, scale: float = 1.0) -> Scenario:
    """Scenario by registry name, optionally time-scaled."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; shipped: "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
    scenario = builder()
    return scenario if scale == 1.0 else scenario.scaled(scale)
