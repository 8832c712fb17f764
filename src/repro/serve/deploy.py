"""Closed-loop deployment: canary routing, shadow scoring, drift
monitors, auto-rollback.

This module closes the train → deploy → monitor → retrain loop on the
simulated clock.  A :class:`DeployController` runs one full deployment
episode against a traffic scenario:

1. the incumbent model ships to the whole fleet (``deploy:model``);
2. a candidate is staged as a *canary* in the registry and deployed to
   a slice of the workers (``deploy:canary``); from then on a
   :class:`CanaryRouter` sends a seeded fraction of batches to the
   canary slice — or, in *shadow* mode, keeps serving every batch from
   the incumbent while the canary slice scores the same traffic off the
   serving path (its compute is billed, its answers go only to the
   monitor);
3. delayed binary labels (:func:`~repro.serve.scenarios.emit_labels`)
   arrive on the simulated clock and feed per-version rolling
   logloss/AUC windows in a :class:`DriftMonitor`;
4. when the canary's window degrades beyond the
   :class:`RollbackPolicy` margins, the router rolls back *mid-flight*:
   the registry retires the canary (:meth:`ModelRegistry.roll_back
   <repro.serve.registry.ModelRegistry.roll_back>`), the incumbent
   redeploys onto the canary slice (``deploy:rollback``), attached
   prediction caches flush eagerly, and a retrain
   (:class:`~repro.systems.executor.TrainingSession`) publishes the
   next candidate — zero batches are served by the condemned version
   after the decision, by construction and by ledger-derived audit;
5. a canary whose window stays healthy through the episode is promoted
   to active and rolled out fleet-wide.

Every decision — deploy, canary-start, rollback, promote, hold,
retrain — is recorded in a ``deploy-report/v1`` decision log and
broadcast to the fleet as ``deploy:decision`` control traffic, so the
wire ledger prices the control plane exactly like the paper prices
training communication.  Everything is seeded and served under a
deterministic service model, so a deployment episode replays to
byte-identical report JSON, and :func:`audit_deploy` re-derives the
split ratio and the no-traffic-after-rollback invariant from the
serving ledger alone — the report's verdict never has to be trusted.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ClusterConfig, TrainConfig
from ..core.metrics import auc as _auc
from ..core.metrics import logloss as _logloss
from ..core.serialize import canonical_payload_bytes
from ..ledger import DEPLOY_SCHEMA
from .batcher import (DispatchResult, MicroBatcher, ServingReport,
                      billed_scores, read_scores)
from .registry import ModelRegistry, publish_trained
from .replica import ReplicaSet
from .scenarios import (LabelStream, Scenario, build_fleet, build_trace,
                        emit_labels, served_probability, serving_invariants,
                        serving_summary, wire_ledger)

#: wire ledger kinds of the deployment control plane
CANARY_KIND = "deploy:canary"
ROLLBACK_KIND = "deploy:rollback"
DECISION_KIND = "deploy:decision"

#: version ids of an episode's fresh registry: the incumbent publishes
#: first, the canary candidate second
INCUMBENT_VERSION, CANARY_VERSION = 1, 2
#: the plan a rollback retrains the next candidate with
RETRAIN_PLAN = "qd1"


def degrade_payload(payload: dict) -> dict:
    """A deliberately broken successor: every leaf weight negated.

    The resulting model scores every request exactly backwards — the
    worst canary that still parses, compiles, and ships like a real
    model.  The closed-loop tests deploy it to prove the monitor
    condemns it and the rollback path actually fires.
    """
    broken = copy.deepcopy(payload)
    for tree in broken["trees"]:
        for node in tree["nodes"].values():
            if "weight" in node:
                node["weight"] = [-w for w in node["weight"]]
    return broken


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanaryPolicy:
    """How the candidate meets traffic.

    ``fraction`` of batches route to the canary worker slice once it is
    live (ignored in ``shadow`` mode, where the incumbent serves
    everything and the canary only scores).  ``canary_workers`` replica
    rows — the highest-numbered; a row is one worker unless the fleet is
    tree-sharded — form the slice.  The canary goes live
    at ``start_frac`` of the scenario window, so scaled (smoke) runs
    keep the same episode shape.  ``seed`` fixes the routing draws.
    """

    fraction: float = 0.25
    canary_workers: int = 1
    start_frac: float = 0.15
    shadow: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), "
                             f"got {self.fraction}")
        if self.canary_workers < 1:
            raise ValueError("canary_workers must be >= 1")
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError(f"start_frac must be in [0, 1), "
                             f"got {self.start_frac}")

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "canary_workers": self.canary_workers,
            "start_frac": self.start_frac,
            "shadow": self.shadow,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RollbackPolicy:
    """When the monitor's evidence condemns (or clears) the canary.

    Verdicts are computed over the rolling windows of the
    :class:`DriftMonitor`: ``"hold"`` until both versions have
    ``min_labels`` labels; ``"rollback"`` when the canary's window
    logloss exceeds the incumbent's by more than ``logloss_margin``
    AND its window AUC falls more than ``auc_margin`` below (the AUC
    requirement is waived while either window holds a single class);
    ``"healthy"`` otherwise.  Corroboration matters: the verdict is
    re-evaluated on every label drain, so over thousands of
    evaluations a single noisy metric *will* transiently cross its
    margin on a healthy canary — requiring calibration (logloss) and
    ranking (AUC) to degrade together is what keeps the false-rollback
    rate negligible without giving up mid-flight detection.  The
    margins are calibrated in ``bench/deploy_bench.py``: a same-data
    retrain lands well inside them, a sign-flipped model far outside.
    """

    window: int = 256
    min_labels: int = 40
    logloss_margin: float = 0.25
    auc_margin: float = 0.15

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.min_labels < 1:
            raise ValueError("min_labels must be >= 1")
        if self.logloss_margin <= 0.0 or self.auc_margin <= 0.0:
            raise ValueError("margins must be positive")

    def verdict(self, incumbent: dict, canary: dict) -> str:
        """``"hold"``, ``"rollback"``, or ``"healthy"`` given the two
        monitor snapshots."""
        if min(incumbent["labels"], canary["labels"]) < self.min_labels:
            return "hold"
        logloss_bad = (canary["logloss"] - incumbent["logloss"]
                       > self.logloss_margin)
        if incumbent["auc"] is None or canary["auc"] is None:
            auc_bad = True    # single-class window: no ranking evidence
        else:
            auc_bad = (incumbent["auc"] - canary["auc"]
                       > self.auc_margin)
        return "rollback" if (logloss_bad and auc_bad) else "healthy"

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "min_labels": self.min_labels,
            "logloss_margin": self.logloss_margin,
            "auc_margin": self.auc_margin,
        }


# ---------------------------------------------------------------------------
# Drift monitoring
# ---------------------------------------------------------------------------

class DriftMonitor:
    """Per-version rolling logloss/AUC over delayed labels.

    Each observation is ``(label, served probability)`` for one request,
    attributed to the version that served (or shadow-scored) it.  The
    window is a bounded deque, so the metrics track *recent* quality —
    drift shows up instead of being averaged away by a long healthy
    history.  AUC is ``None`` while the window holds a single class
    (the rank statistic is undefined there, and the rollback policy
    treats it as no evidence rather than as zero).
    """

    def __init__(self, window: int = 256) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self._labels: Dict[int, deque] = {}
        self._probs: Dict[int, deque] = {}
        self._seen: Dict[int, int] = {}

    def observe(self, version: int, label: int, prob: float) -> None:
        if version not in self._labels:
            self._labels[version] = deque(maxlen=self.window)
            self._probs[version] = deque(maxlen=self.window)
            self._seen[version] = 0
        self._labels[version].append(int(label))
        self._probs[version].append(float(prob))
        self._seen[version] += 1

    def versions(self) -> List[int]:
        return sorted(self._labels)

    def labels_seen(self, version: int) -> int:
        """Total labels ever attributed to ``version``."""
        return self._seen.get(version, 0)

    def logloss(self, version: int) -> Optional[float]:
        labels = self._labels.get(version)
        if not labels:
            return None
        return float(_logloss(np.asarray(labels, dtype=np.float64),
                              np.asarray(self._probs[version])))

    def auc(self, version: int) -> Optional[float]:
        labels = self._labels.get(version)
        if not labels:
            return None
        arr = np.asarray(labels, dtype=np.float64)
        if arr.min() == arr.max():
            return None    # single class: rank statistic undefined
        return float(_auc(arr, np.asarray(self._probs[version])))

    def snapshot(self, version: int) -> dict:
        """JSON-ready window state of one version."""
        return {
            "labels": self.labels_seen(version),
            "window": len(self._labels.get(version, ())),
            "logloss": self.logloss(version),
            "auc": self.auc(version),
        }


# ---------------------------------------------------------------------------
# Decision log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeployDecision:
    """One entry of the deployment decision log.

    ``batch_seq`` is the number of batches dispatched *before* the
    decision took effect — the ledger-side anchor: re-deriving "no
    canary traffic after the rollback" needs only this integer and the
    serving records, never the report's own claims.  ``wire_bytes`` is
    the deploy traffic the decision itself caused (0 for hold).
    """

    at_s: float
    batch_seq: int
    kind: str
    version: int
    reason: str
    wire_bytes: int = 0
    window: Optional[dict] = None

    def to_dict(self) -> dict:
        entry = {
            "at_s": self.at_s,
            "batch_seq": self.batch_seq,
            "kind": self.kind,
            "version": self.version,
            "reason": self.reason,
            "wire_bytes": self.wire_bytes,
        }
        if self.window is not None:
            entry["window"] = self.window
        return entry


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------

class CanaryRouter:
    """MicroBatcher backend that splits traffic between two versions.

    Wraps a :class:`~repro.serve.replica.ReplicaSet` whose fleet is
    partitioned into an incumbent pool and a canary pool (the
    highest-numbered ``canary_workers`` rows).  Each dispatched batch
    routes to exactly one pool — a seeded Bernoulli draw per batch once
    the canary is live — so the mixed-version invariant (every request
    served by exactly one version) holds by construction and is
    re-checkable from the ledger.

    The router is also the label join point: it advertises
    ``accepts_ids`` so the batcher passes request ids, pushes each
    served request's ``(available_s, request id, version, book
    position)`` onto a heap, and drains every label whose availability
    time has passed before routing the next batch.  A drained label's
    probability is read from its version's score book
    (:meth:`ReplicaSet.book`) and fed with the label to the
    :class:`DriftMonitor`; a ``"rollback"`` verdict fires the
    controller's rollback hook *at the label's timestamp*, before any
    further batch is routed — which is exactly why zero requests reach
    the condemned version after the decision.
    """

    accepts_ids = True

    def __init__(self, replicas: ReplicaSet, monitor: DriftMonitor,
                 canary_policy: CanaryPolicy,
                 rollback_policy: RollbackPolicy,
                 labels: LabelStream,
                 incumbent_version: int, canary_version: int,
                 on_rollback=None) -> None:
        # pools name replica rows: a canary lands on whole rows, and a
        # row is one worker on a replicated (``S = 1``) fleet
        k, rows = canary_policy.canary_workers, replicas.num_rows
        if k >= rows:
            raise ValueError(
                f"canary pool of {k} worker(s) must leave at least one "
                f"incumbent worker (fleet has {rows})"
            )
        self.replicas = replicas
        self.monitor = monitor
        self.canary_policy = canary_policy
        self.rollback_policy = rollback_policy
        self.labels = labels
        self.incumbent_version = incumbent_version
        self.canary_version = canary_version
        self.on_rollback = on_rollback
        self.incumbent_pool = list(range(rows - k))
        self.canary_pool = list(range(rows - k, rows))
        self._rng = np.random.default_rng(canary_policy.seed)
        self._heap: List[Tuple[float, int, int, int]] = []
        self.canary_live = False
        self.rolled_back = False
        self.dispatches = 0
        self.canary_start_s: Optional[float] = None
        self.canary_start_seq: Optional[int] = None
        self.rollback_s: Optional[float] = None
        self.rollback_seq: Optional[int] = None
        self.shadow_batches = 0
        self.shadow_rows = 0

    # -- lifecycle ---------------------------------------------------------

    def mark_canary_started(self, at_s: float) -> None:
        """The canary slice is deployed and live as of ``at_s``."""
        self.canary_live = True
        self.canary_start_s = at_s
        self.canary_start_seq = self.dispatches

    @property
    def _split_active(self) -> bool:
        return self.canary_live and not self.rolled_back

    def _serve_pool(self) -> Optional[List[int]]:
        """Pool of the *next* incumbent-side batch (None = whole fleet)."""
        if not self._split_active:
            return None
        return self.incumbent_pool

    # -- label drain + verdicts --------------------------------------------

    def advance(self, now_s: float) -> None:
        """Feed the monitor every label available by ``now_s``; execute
        a mid-flight rollback the instant the evidence condemns the
        canary."""
        ready = []
        while self._heap and self._heap[0][0] <= now_s:
            ready.append(heapq.heappop(self._heap))
        for (at_s, request_id, version, _), prob in zip(
                ready, self._probabilities(ready)):
            self.monitor.observe(version,
                                 int(self.labels.labels[request_id]),
                                 prob)
            if not self._split_active:
                continue
            verdict = self.rollback_policy.verdict(
                self.monitor.snapshot(self.incumbent_version),
                self.monitor.snapshot(self.canary_version),
            )
            if verdict == "rollback":
                self.rolled_back = True
                self.rollback_s = at_s
                self.rollback_seq = self.dispatches
                if self.on_rollback is not None:
                    self.on_rollback(at_s)

    def _probabilities(self, entries: Sequence[tuple]) -> List[float]:
        """Served probability of each heap entry, read from its
        version's score book."""
        if not entries:
            return []
        _, _, versions, positions = zip(*entries)
        distinct = sorted(set(versions))
        raw = read_scores([self.replicas.book(v) for v in distinct],
                          np.searchsorted(distinct, versions),
                          np.asarray(positions, dtype=np.int64))
        return served_probability(raw).tolist()

    def final_verdict(self) -> str:
        """Episode outcome after draining every remaining label."""
        self.advance(np.inf)
        if self.rolled_back:
            return "rollback"
        if not self.canary_live:
            return "hold"
        verdict = self.rollback_policy.verdict(
            self.monitor.snapshot(self.incumbent_version),
            self.monitor.snapshot(self.canary_version),
        )
        return "promote" if verdict == "healthy" else "hold"

    # -- MicroBatcher backend contract -------------------------------------

    def next_free_s(self) -> float:
        return self.replicas.next_free_s(self._serve_pool())

    def dispatch(self, features: np.ndarray, close_s: float,
                 ids: np.ndarray) -> DispatchResult:
        self.advance(close_s)
        if self._split_active and not self.canary_policy.shadow \
                and self._rng.random() < self.canary_policy.fraction:
            pool: Optional[List[int]] = self.canary_pool
        else:
            pool = self._serve_pool()
        result = self.replicas.dispatch(features, close_s, pool=pool)
        self.dispatches += 1
        self._await_labels(ids, result.model_version, result.positions)
        if self._split_active and self.canary_policy.shadow:
            self._shadow_score(features, ids, close_s)
        return result

    def _await_labels(self, ids: np.ndarray, version: int,
                      positions: np.ndarray) -> None:
        """Hold each request's book position under ``version`` until
        its label becomes available."""
        for at_s, request_id, position in zip(
                self.labels.available_s[ids].tolist(), ids.tolist(),
                positions.tolist()):
            heapq.heappush(self._heap,
                           (at_s, request_id, version, position))

    def _shadow_score(self, features: np.ndarray, ids: np.ndarray,
                      close_s: float) -> None:
        """Score the batch on the canary slice without serving it.

        The rows go into the canary version's score book and its answers
        to the monitor only; its compute is billed to the least-loaded
        canary worker via :meth:`ReplicaSet.occupy` — priced by
        :func:`~repro.serve.batcher.billed_scores` like a served batch —
        so shadow capacity cost is real in the clock even though no
        client ever sees a shadow score.
        """
        positions, baseline = billed_scores(
            self.replicas.book(self.canary_version), features,
            self.replicas.service_model)
        self.replicas.occupy(self.canary_pool, close_s, baseline)
        self._await_labels(ids, self.canary_version, positions)
        self.shadow_batches += 1
        self.shadow_rows += int(features.shape[0])


# ---------------------------------------------------------------------------
# Ledger-only audit
# ---------------------------------------------------------------------------

def audit_deploy(serving: ServingReport, decisions: Sequence[dict],
                 incumbent_version: int, canary_version: int,
                 shadow: bool) -> dict:
    """Re-derive the deployment invariants from the serving ledger alone.

    Consumes only the ledger's columns and the decision log's
    ``batch_seq`` anchors — none of the router's internal state — so a
    lying controller would be caught:

    * ``single_version_per_request`` — every request id appears exactly
      once across the served and dropped columns
      (:meth:`ServingReport.exactly_once`; a served request takes the
      one version of its batch);
    * ``no_canary_before_start`` / ``no_canary_after_rollback`` — canary
      -served batches exist only inside the canary window;
    * ``shadow_serves_incumbent_only`` — in shadow mode no batch at all
      is served by the canary;
    * ``split`` — observed canary share of the batches dispatched while
      the split was live, to compare with the policy fraction.
    """
    by_kind = {d["kind"]: d for d in decisions}
    start_seq = by_kind.get("canary-start", {}).get("batch_seq")
    rollback_seq = by_kind.get("rollback", {}).get("batch_seq")
    batch_id = np.arange(serving.batch_version.size)
    canary = serving.batch_version == canary_version
    canary_ids = batch_id[canary]
    no_before_start = not canary_ids.size or (
        start_seq is not None and bool((canary_ids >= start_seq).all()))
    no_after_rollback = (rollback_seq is None
                         or bool((canary_ids < rollback_seq).all()))

    window_batches = 0
    canary_in_window = 0
    if start_seq is not None:
        end_seq = rollback_seq if rollback_seq is not None \
            else batch_id.size
        window = (batch_id >= start_seq) & (batch_id < end_seq)
        window_batches = int(window.sum())
        canary_in_window = int((window & canary).sum())

    return {
        "single_version_per_request": serving.exactly_once(),
        "no_canary_before_start": no_before_start,
        "no_canary_after_rollback": no_after_rollback,
        "shadow_serves_incumbent_only": (not shadow
                                         or not canary_ids.size),
        "split": {
            "window_batches": window_batches,
            "canary_batches": canary_in_window,
            "observed_fraction": (canary_in_window / window_batches
                                  if window_batches else 0.0),
        },
    }


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------

class DeployController:
    """One closed-loop deployment episode over a traffic scenario.

    ``canary_model`` selects the candidate: ``"healthy"`` trains a
    half-size retrain on the incumbent's data (a plausible successor),
    ``"degraded"`` ships the incumbent with every leaf weight negated
    (:func:`degrade_payload`) — the model the monitor must condemn.
    The controller provisions models, generates the trace and its
    delayed labels, replays through a :class:`CanaryRouter`, executes
    the registry transitions, retrains (plan :data:`RETRAIN_PLAN`) after
    a rollback, and emits the ``deploy-report/v1`` dict.  Everything it
    does is a pure function of ``(scenario, policies, canary_model)``;
    two runs yield byte-identical reports.

    After :meth:`run`, the raw artifacts stay available as
    ``controller.serving_report``, ``controller.router``,
    ``controller.replicas`` and ``controller.registry`` for white-box
    assertions.
    """

    def __init__(self, scenario: Scenario,
                 canary: Optional[CanaryPolicy] = None,
                 policy: Optional[RollbackPolicy] = None,
                 canary_model: str = "healthy") -> None:
        if canary_model not in ("healthy", "degraded"):
            raise ValueError(
                f"canary_model must be 'healthy' or 'degraded', "
                f"got {canary_model!r}"
            )
        self.scenario = scenario
        self.canary = canary or CanaryPolicy()
        self.policy = policy or RollbackPolicy()
        self.canary_model = canary_model
        self.registry: Optional[ModelRegistry] = None
        self.replicas: Optional[ReplicaSet] = None
        self.router: Optional[CanaryRouter] = None
        self.monitor: Optional[DriftMonitor] = None
        self.serving_report: Optional[ServingReport] = None
        self.decisions: List[DeployDecision] = []
        self.retrained_version: Optional[int] = None
        self._dataset = None
        self._train_config: Optional[TrainConfig] = None

    # -- provisioning ------------------------------------------------------

    def _provision(self) -> None:
        s = self.scenario
        self._dataset, self._train_config = s.model_data("deploy")
        self.registry = ModelRegistry()
        degraded = self.canary_model == "degraded"
        incumbent = publish_trained(
            self.registry, self._dataset, self._train_config,
            f"deploy:{s.name}:incumbent",
            successor=None if degraded else f"deploy:{s.name}:retrain")
        if degraded:
            self.registry.publish(degrade_payload(incumbent.payload),
                                  source=f"deploy:{s.name}:degraded")

    def _retrain(self, at_s: float) -> None:
        """Close the loop: train the next candidate after a rollback.

        The retrained model is published and staged as the *next*
        canary; it does not serve in this episode — promotion requires
        its own monitored rollout.  Wall-clock training times are
        deliberately excluded from the decision log (computation is
        real, so they vary run to run); the log records only the
        deterministic facts: version, tree count, checksum.
        """
        from ..systems.executor import TrainingSession
        from ..systems.plans import get_plan

        session = TrainingSession(
            get_plan(RETRAIN_PLAN).build(self._train_config,
                                         ClusterConfig(num_workers=2)),
            self._dataset,
        )
        session.run()
        entry = self.registry.publish(
            session.ensemble,
            source=f"deploy:{self.scenario.name}:retrain-after-rollback",
        )
        self.registry.stage_canary(entry.version)
        self.retrained_version = entry.version
        self._decide(
            at_s, self.router.dispatches, "retrain", entry.version,
            f"drift persisted: retrained {self._train_config.num_trees} "
            f"trees on {self._dataset.name}, staged as next canary",
        )

    # -- decisions ---------------------------------------------------------

    def _decide(self, at_s: float, batch_seq: int, kind: str,
                version: int, reason: str, wire_bytes: int = 0,
                window: Optional[dict] = None) -> DeployDecision:
        """Record a decision and broadcast it to the fleet.

        The broadcast ships the decision's canonical JSON to every
        worker under ``deploy:decision`` — the control plane pays wire
        like everything else (and retries under fault injection like
        everything else).
        """
        decision = DeployDecision(
            at_s=float(at_s), batch_seq=int(batch_seq), kind=kind,
            version=int(version), reason=reason,
            wire_bytes=int(wire_bytes), window=window,
        )
        self.decisions.append(decision)
        payload = {"at_s": decision.at_s, "kind": decision.kind,
                   "version": decision.version,
                   "batch_seq": decision.batch_seq}
        nbytes = len(canonical_payload_bytes(payload))
        for _ in range(self.replicas.num_workers):
            self.replicas.network.transfer(DECISION_KIND, nbytes)
        return decision

    def _wire_delta(self, before: Dict[str, int]) -> int:
        after = self.replicas.network.snapshot().bytes_by_kind
        return sum(after.values()) - sum(before.values())

    def _window(self) -> dict:
        """Both versions' monitor windows, as a verdict decision logs
        them."""
        return {"incumbent": self.monitor.snapshot(INCUMBENT_VERSION),
                "canary": self.monitor.snapshot(CANARY_VERSION)}

    def _on_rollback(self, at_s: float) -> None:
        """Mid-flight rollback: retire the canary, restore the slice.

        Fires from the router the moment a drained label's verdict says
        ``"rollback"``.  Ordering matters: the registry retires first
        (caches flush eagerly), then the incumbent redeploys onto the
        canary slice under ``deploy:rollback``, then the decision is
        logged and broadcast, then the retrain closes the loop.
        """
        router = self.router
        window = self._window()
        before = dict(self.replicas.network.snapshot().bytes_by_kind)
        self.registry.roll_back(router.canary_version)
        self.replicas.deploy(router.incumbent_version, at_s=at_s,
                             workers=router.canary_pool,
                             kind=ROLLBACK_KIND)
        self._decide(
            at_s, router.dispatches, "rollback", router.canary_version,
            "canary window degraded beyond policy margins; incumbent "
            "redeployed to the canary slice",
            wire_bytes=self._wire_delta(before), window=window,
        )
        self._retrain(at_s)

    # -- the episode -------------------------------------------------------

    def run(self) -> dict:
        """Run one deployment episode; returns ``deploy-report/v1``."""
        s = self.scenario
        self._provision()
        trace = build_trace(s)
        mean_delay = (s.label_delay_s if s.label_delay_s > 0.0
                      else 0.05 * s.duration_s)
        labels = emit_labels(
            trace, self.registry.get(INCUMBENT_VERSION).compiled,
            mean_delay, s.seed,
        )

        self.replicas = build_fleet(s, self.registry, delta_deploys=True)
        network = self.replicas.network
        self.monitor = DriftMonitor(self.policy.window)
        self.router = CanaryRouter(
            self.replicas, self.monitor, self.canary, self.policy,
            labels, INCUMBENT_VERSION, CANARY_VERSION,
            on_rollback=self._on_rollback,
        )

        before = dict(network.snapshot().bytes_by_kind)
        self.replicas.deploy(INCUMBENT_VERSION)
        self._decide(
            0.0, 0, "deploy", INCUMBENT_VERSION,
            "incumbent rolled out fleet-wide",
            wire_bytes=self._wire_delta(before),
        )
        self.registry.stage_canary(CANARY_VERSION)

        def start_canary(at_s: float) -> None:
            wire0 = dict(network.snapshot().bytes_by_kind)
            self.replicas.deploy(CANARY_VERSION, at_s=at_s,
                                 workers=self.router.canary_pool,
                                 kind=CANARY_KIND)
            self.router.mark_canary_started(at_s)
            self._decide(
                at_s, self.router.dispatches, "canary-start",
                CANARY_VERSION,
                ("shadow scoring on " if self.canary.shadow
                 else f"{self.canary.fraction:.0%} of traffic to ")
                + f"{len(self.router.canary_pool) * s.num_shards} "
                "canary worker(s)",
                wire_bytes=self._wire_delta(wire0),
            )

        start_s = self.canary.start_frac * s.duration_s
        batcher = MicroBatcher(self.router, s.policy)
        serving = batcher.run(trace, swaps=[(start_s, start_canary)],
                              collect_scores=True)
        self.serving_report = serving

        verdict = self.router.final_verdict()
        summary = serving_summary(trace, serving)
        makespan = summary["makespan_s"]
        window = self._window()
        if verdict == "promote":
            wire0 = dict(network.snapshot().bytes_by_kind)
            self.registry.promote(CANARY_VERSION)
            self.replicas.deploy(CANARY_VERSION, at_s=makespan)
            self._decide(
                makespan, self.router.dispatches, "promote",
                CANARY_VERSION,
                "canary window healthy through the episode; promoted "
                "and rolled out fleet-wide",
                wire_bytes=self._wire_delta(wire0), window=window,
            )
        elif verdict == "hold":
            self._decide(
                makespan, self.router.dispatches, "hold",
                CANARY_VERSION,
                "insufficient label evidence to promote or roll back; "
                "canary stays staged",
                window=window,
            )
        return self._build_report(trace, labels, serving, summary, verdict)

    # -- report assembly ---------------------------------------------------

    def _build_report(self, trace, labels: LabelStream,
                      serving: ServingReport, summary: dict,
                      verdict: str) -> dict:
        s = self.scenario
        router = self.router
        decisions = [d.to_dict() for d in self.decisions]
        audit = audit_deploy(serving, decisions, INCUMBENT_VERSION,
                             CANARY_VERSION, self.canary.shadow)
        split = audit.pop("split")
        wire = wire_ledger(self.replicas.network)
        deploy_bytes = sum(
            nbytes for kind, nbytes in wire["bytes_by_kind"].items()
            if kind.startswith("deploy:")
        )
        return {
            "schema": DEPLOY_SCHEMA,
            "scenario": s.name,
            "seed": s.seed,
            "mode": "shadow" if self.canary.shadow else "serve",
            "canary_model": self.canary_model,
            "verdict": verdict,
            "config": s.config_dict(),
            "policy": {
                "canary": self.canary.to_dict(),
                "rollback": self.policy.to_dict(),
            },
            "versions": {
                "incumbent": INCUMBENT_VERSION,
                "canary": CANARY_VERSION,
                "retrained": self.retrained_version,
                "checksums": {
                    str(e.version): e.checksum
                    for e in self.registry.versions()
                },
            },
            "decisions": decisions,
            "monitor": {
                str(v): self.monitor.snapshot(v)
                for v in self.monitor.versions()
            },
            "labels": {
                "total": labels.num_labels,
                "mean_delay_s": labels.mean_delay_s,
            },
            "serving": {
                **summary,
                "shadow_batches": router.shadow_batches,
                "shadow_rows": router.shadow_rows,
            },
            "split": {
                "target_fraction": (0.0 if self.canary.shadow
                                    else self.canary.fraction),
                **split,
            },
            "registry": {
                "stages": {str(v): stage for v, stage
                           in self.registry.stages().items()},
                "activation_log": self.registry.activation_log,
                "stage_log": [list(t) for t in self.registry.stage_log],
            },
            "wire": {"deploy_bytes": deploy_bytes, **wire},
            "invariants": {
                **serving_invariants(trace, serving, self.registry),
                **audit,
            },
        }


def run_deploy(scenario: Scenario, **kwargs) -> dict:
    """One-shot convenience wrapper around :class:`DeployController`."""
    return DeployController(scenario, **kwargs).run()
