"""One traversal per sharded row: exactness, call count, billing, golden.

The float64 carry crosses every hop unchanged, so a row's ``S`` shards
(trees ``[0, T)`` in order) fold as one run over the deployed version's
compiled ensemble.  These tests hold that dispatch to:

- the chain fold over the shipped shard payloads (each compiled on its
  own, one ``add_raw_scores`` per shard), byte for byte, on every shard
  count, replica row count, balancer and available kernel backend;
- the ring reduce-scatter closed form for the ``serve:partial`` ledger
  bytes;
- no backend ``fold_scores`` call at dispatch under a service model,
  and one per read of the version's score book, however many batches
  it pools;
- one billing rule: each member's tree share of one full-model figure;
- the byte-exact smoke-scale ``sharded-steady`` scenario reports, and
  beside them the other smoke scenario and ``deploy --scale 0.25``
  reports, pinned before the serving ledger became columns.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import types

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.cluster.comm import RingReduceScatter
from repro.core.kernels import available_backends, make_backend
from repro.core.serialize import ensemble_from_dict
from repro.ledger import report_bytes
from repro.serve import (PARTIAL_KIND, ModelRegistry, ReplicaSet,
                         compile_ensemble)
from repro.serve import batcher as batcher_module
from repro.serve.deploy import CanaryPolicy, DeployController
from repro.serve.scenarios import ScenarioRunner, get_scenario

SHARD_COUNTS = (1, 2, 3, 4, 8)
#: replica rows ``R`` of the ``R x S`` grid; round-robin sends each of
#: a test's batches to the next row, so every row's shards are read
FLEET_ROWS = (1, 2, 3)
BALANCERS = ("round-robin", "least-loaded")
#: one binary and one multiclass model, so the carry is (rows, 1) and
#: (rows, 4); both have fewer trees than S = 8, so empty shards occur
MODELS = {"binary": 1, "multiclass": 2}


@pytest.fixture(scope="module")
def ensembles(small_binary, small_multiclass):
    return (
        GBDT(TrainConfig(num_trees=6, num_layers=4, num_candidates=8))
        .fit(small_binary).ensemble,
        GBDT(TrainConfig(num_trees=5, num_layers=3, num_candidates=8,
                         objective="multiclass", num_classes=4))
        .fit(small_multiclass).ensemble,
    )


@pytest.fixture(scope="module", params=available_backends())
def registry(request, ensembles):
    """Both models, each version's compiled ensemble on one kernel
    backend."""
    registry = ModelRegistry()
    for ensemble in ensembles:
        registry.publish(ensemble).compiled.backend = \
            make_backend(request.param)
    return registry


def nan_batch(registry, version, rows=13, seed=5):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal(
        (rows, registry.get(version).compiled.num_features))
    features[rng.random(features.shape) < 0.25] = np.nan
    return features


def fleet(registry, num_shards, rows=2, **options):
    options.setdefault("service_model", lambda k: 1e-4 * k)
    return ReplicaSet(
        registry, ClusterConfig(num_workers=rows * num_shards),
        num_shards=num_shards, **options)


def shipped_chain(registry, version, num_shards, features):
    """The per-shard chain fold over what a deploy ships: each shard's
    payload, compiled on its own for the version's backend, folds its
    trees into the carry."""
    backend = registry.get(version).compiled.backend.name
    acc = np.zeros((features.shape[0],
                    registry.get(version).compiled.gradient_dim))
    for shard in registry.shards(version, num_shards):
        compile_ensemble(ensemble_from_dict(shard.payload),
                         backend=backend).add_raw_scores(features, acc)
    return acc


def closed_form(num_shards, rows, dim):
    """Bytes of one batch's carry (wire and raw alike)."""
    if num_shards == 1:
        return 0
    return int(RingReduceScatter().per_worker_bytes(rows * dim * 8,
                                                    num_shards)
               * num_shards)


def count_folds(monkeypatch, registry):
    """Count every backend ``fold_scores`` call of the registry's
    models."""
    calls = []
    for backend in {id(entry.compiled.backend): entry.compiled.backend
                    for entry in registry.versions()}.values():
        original = backend.fold_scores

        def counted(*args, _original=original):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(backend, "fold_scores", counted)
    return calls


# ---------------------------------------------------------------------------
# Bit-identity and ledger bytes
# ---------------------------------------------------------------------------

class TestBitIdentityMatrix:
    @pytest.mark.parametrize("fleet_rows", FLEET_ROWS)
    @pytest.mark.parametrize("balancer", BALANCERS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_scores_equal_shipped_chain(self, registry, model,
                                        num_shards, balancer,
                                        fleet_rows):
        version = MODELS[model]
        replicas = fleet(registry, num_shards, rows=fleet_rows,
                         balancer=balancer)
        replicas.deploy(version)
        for seed, rows in ((5, 13), (6, 1), (7, 6)):
            features = nan_batch(registry, version, rows, seed)
            got = replicas.dispatch(features, 0.0).scores
            want = shipped_chain(registry, version, num_shards, features)
            assert got.tobytes() == want.tobytes(), (
                f"{model} R={fleet_rows} S={num_shards} {balancer} "
                f"rows={rows}")

    @pytest.mark.parametrize("fleet_rows", FLEET_ROWS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_ledger_bytes_match_closed_forms(self, registry, model,
                                             num_shards, fleet_rows):
        """The carry's bytes depend on the batch shape and ``S`` only:
        which of the ``R`` rows scores a batch moves none of them."""
        version = MODELS[model]
        dim = registry.get(version).compiled.gradient_dim
        replicas = fleet(registry, num_shards, rows=fleet_rows)
        replicas.deploy(version)
        expected = 0
        for seed, rows in ((5, 13), (6, 1), (7, 6)):
            replicas.dispatch(nan_batch(registry, version, rows, seed),
                              0.0)
            expected += closed_form(num_shards, rows, dim)
        snapshot = replicas.network.snapshot()
        assert (snapshot.bytes_by_kind.get(PARTIAL_KIND, 0),
                snapshot.raw_bytes_by_kind.get(PARTIAL_KIND, 0)) \
            == (expected, expected)
        assert set(snapshot.bytes_by_kind) <= {PARTIAL_KIND,
                                               replicas.deploy_kind}


# ---------------------------------------------------------------------------
# Traversal count
# ---------------------------------------------------------------------------

class TestOneTraversalPerRow:
    @pytest.mark.parametrize("balancer", BALANCERS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("num_shards", (2, 4, 8))
    def test_one_fold_per_book_read(self, registry, monkeypatch, model,
                                    num_shards, balancer):
        version = MODELS[model]
        replicas = fleet(registry, num_shards, balancer=balancer)
        replicas.deploy(version)
        calls = count_folds(monkeypatch, registry)
        results = [
            replicas.dispatch(nan_batch(registry, version, 6, seed), 0.0)
            for seed in range(5)]
        assert calls == []          # billing reads no score
        got = [result.scores for result in results]
        assert len(calls) == 1      # one traversal over all five batches
        for result, scores in zip(results, got):
            assert result.scores.tobytes() == scores.tobytes()
        assert len(calls) == 1      # scored rows are read, not rescored

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_single_shard_row_is_one_call(self, registry, monkeypatch,
                                          model):
        replicas = fleet(registry, 1)
        replicas.deploy(MODELS[model])
        calls = count_folds(monkeypatch, registry)
        replicas.dispatch(nan_batch(registry, MODELS[model]), 0.0).scores
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Billing: tree shares of one full-model figure
# ---------------------------------------------------------------------------

def billed(monkeypatch, replicas):
    """Capture the per-member baselines every ``_bill`` call receives."""
    seen = []
    original = replicas._bill

    def spy(row, at_s, baselines, collective_seconds=0.0):
        seen.append(list(baselines))
        return original(row, at_s, baselines, collective_seconds)

    monkeypatch.setattr(replicas, "_bill", spy)
    return seen


class TestBilling:
    @pytest.mark.parametrize("fleet_rows", FLEET_ROWS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_service_model_split_by_tree_share(self, registry,
                                               monkeypatch, num_shards,
                                               fleet_rows):
        version = MODELS["binary"]
        replicas = fleet(registry, num_shards, rows=fleet_rows,
                         service_model=lambda k: 1e-3 + 2e-4 * k)
        replicas.deploy(version)
        seen = billed(monkeypatch, replicas)
        replicas.dispatch(nan_batch(registry, version, 9), 0.0)
        full = 1e-3 + 2e-4 * 9
        shards = registry.shards(version, num_shards)
        trees = registry.get(version).compiled.num_trees
        assert seen == [[full * (s.num_trees / trees) for s in shards]]

    @pytest.mark.parametrize("balancer", BALANCERS)
    @pytest.mark.parametrize("num_shards", (2, 3, 8))
    def test_measured_interval_split_by_tree_count(self, registry,
                                                   monkeypatch,
                                                   num_shards, balancer):
        """Without a service model the row is billed one wall-clocked
        interval — here a fake clock that ticks 1 s per read — split by
        tree count, not one interval per member."""
        version = MODELS["binary"]
        replicas = fleet(registry, num_shards, service_model=None,
                         balancer=balancer)
        replicas.deploy(version)
        ticks = iter(range(100))
        monkeypatch.setattr(batcher_module, "time", types.SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        seen = billed(monkeypatch, replicas)
        replicas.dispatch(nan_batch(registry, version, 4), 0.0)
        assert next(ticks) == 2          # one interval: two clock reads
        shards = registry.shards(version, num_shards)
        trees = sum(s.num_trees for s in shards)
        assert seen == [[s.num_trees / trees for s in shards]]
        assert sum(seen[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Golden: the smoke-scale sharded-steady scenario report, byte for byte
# ---------------------------------------------------------------------------

#: sha256 of ``report_bytes`` for ``scenarios run sharded-steady --smoke
#: [--shards S]``, pinned before dispatch folded a lossless row in one
#: traversal — the change must not move a byte
SHARDED_STEADY_SMOKE_SHA256 = {
    2: "5e221fed5693bd69b48599c7cf6afc49b817ccc3528f7c11abe976bd7ce5d75c",
    3: "df1e3bd100009110a5aabdc1f91499af3aedfe964c7d818fedc142e8df1acefd",
    4: "3de954ef4655ffb5a0ac8f55affac1b0c0fbe6aa1e45d479d032261077fb6198",
}


@pytest.mark.parametrize("num_shards", sorted(SHARDED_STEADY_SMOKE_SHA256))
def test_sharded_steady_smoke_report_is_pinned(num_shards):
    scenario = get_scenario("sharded-steady", scale=0.2)
    if num_shards != scenario.num_shards:
        # what `scenarios run --shards S` does to the scenario
        workers = -(-scenario.num_workers // num_shards) * num_shards
        scenario = dataclasses.replace(
            scenario, num_shards=num_shards, num_workers=workers,
            cache_capacity=0)
    report = ScenarioRunner(scenario).run()
    assert all(report["invariants"].values())
    assert hashlib.sha256(report_bytes(report)).hexdigest() \
        == SHARDED_STEADY_SMOKE_SHA256[num_shards]


#: sha256 of ``report_bytes`` for ``scenarios run NAME --smoke``, pinned
#: before the serving ledger became columns: per-batch facts stored once,
#: per-request and per-drop columns beside them.  heavy-tail is the only
#: one that sheds across priority classes, so it guards the drop columns.
SCENARIO_SMOKE_SHA256 = {
    "steady":
        "9d83ccb6e32220ac2a90f0d081c50bb01aa110aed20b8e39df90a9a11f08d6f1",
    "diurnal":
        "c84c549e1e4ff5a2ba76e3883d46d062491e3c7dcda77310ce1e56c6252a9745",
    "heavy-tail":
        "66c54c70f1f083eed6d947c235df7f638b54079ebe968305c0671c4f22698074",
    "hot-swap-under-fire":
        "a11a70234aa23de6335766d1c9da42a4d5fc37936590b04a1c99f4791e3933f7",
    "canary-under-fire":
        "d0b9754bb411bcde0223ee6be18659b5e06c18585d1b1bfa498cf1a823cc34c7",
}

#: sha256 of ``report_bytes`` for ``deploy --scale 0.25`` with the
#: degraded canary, the healthy one, and the degraded one in shadow mode
DEPLOY_QUARTER_SHA256 = {
    "degraded":
        "be7d129f8c6a360e1ea7ef288e929af47a6aa6559cbe955ad575da1876f41f68",
    "healthy":
        "360b81a8f1ab74800813e93d6d0b3aaa0c4d70d2b1d9b0f5b545ffb192d7bb37",
    "shadow":
        "3196bc4fe400cf7db95d7987abdf6ca239c7c86fdb4af0d6e03db81b4e465574",
}

#: the keys deploy reports took from the serving summary and invariants
#: both serving reports share, by block
DEPLOY_KEYS_ADDED = {
    "serving": ("drop_rate", "max_s", "mean_queue_s", "mean_s",
                "throughput_rps"),
    "invariants": ("priority_admission_ok", "scores_exact",
                   "single_version_batches"),
}

#: the same episodes' sha256 as saved before deploy reports took those
#: keys: each report less :data:`DEPLOY_KEYS_ADDED` hashes to these
DEPLOY_QUARTER_EARLIER_SHA256 = {
    "degraded":
        "d63e70568114a8b1c863a5e7c3a09360effa5b49446e44538b73104b72099efa",
    "healthy":
        "a5bc75c49db81c2fb5f072590d097bde8b181ca336bc7a86e8fd341905553f95",
    "shadow":
        "e7f2a366b02e3da4f0db8dd5bb923dc88254e18fc03a3d596cd5fdd5fe2ecebc",
}


def without_shared_keys(report: dict) -> dict:
    """A deploy report as saved before it took the shared keys."""
    old = copy.deepcopy(report)
    for block, keys in DEPLOY_KEYS_ADDED.items():
        for key in keys:
            del old[block][key]
    return old


@pytest.mark.parametrize("name", sorted(SCENARIO_SMOKE_SHA256))
def test_scenario_smoke_report_is_pinned(name):
    report = ScenarioRunner(get_scenario(name, scale=0.2)).run()
    assert all(report["invariants"].values())
    assert hashlib.sha256(report_bytes(report)).hexdigest() \
        == SCENARIO_SMOKE_SHA256[name]


@pytest.mark.parametrize("episode", sorted(DEPLOY_QUARTER_SHA256))
def test_deploy_quarter_scale_report_is_pinned(episode):
    controller = DeployController(
        get_scenario("canary-under-fire", scale=0.25),
        canary=CanaryPolicy(shadow=episode == "shadow"),
        canary_model="healthy" if episode == "healthy" else "degraded")
    report = controller.run()
    assert all(report["invariants"].values())
    assert hashlib.sha256(report_bytes(report)).hexdigest() \
        == DEPLOY_QUARTER_SHA256[episode]
    earlier = report_bytes(without_shared_keys(report))
    assert hashlib.sha256(earlier).hexdigest() \
        == DEPLOY_QUARTER_EARLIER_SHA256[episode]
