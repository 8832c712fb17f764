"""Schedule, then score: the per-version score book.

A fleet bills a batch from its row count, so a batch's scores never
move the schedule.  Each version's served rows collect in a
:class:`~repro.serve.batcher.ScoreBook` that scores them one walk block
at a time.  These tests hold it to:

- the book itself: positions, when it scores, and bit identity with one
  compiled call per batch on every available kernel backend;
- the call count of a whole ``sharded-steady`` run: at most
  ``versions x ceil(served rows / walk-block rows)`` predictor calls,
  not one per batch;
- every shipped scenario: resolved scores equal a per-batch eager
  replay bit for bit, and the two cache scenarios keep their ledgers;
- the ``scores_exact`` invariant, on scenario and deploy reports alike:
  it fails for rows read from the wrong version's book, for positions
  shifted by one, and for a run that served requests without collecting
  their scores.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import GBDT, TrainConfig
from repro.core.kernels import available_backends, walk_block_rows
from repro.serve import (DeployController, MicroBatcher, ModelRegistry,
                         ReplicaSet, ScoreBook, ScenarioRunner,
                         compile_ensemble, get_scenario)
from repro.serve.compiler import CompiledEnsemble
from repro.serve.scenarios import SCENARIOS


@pytest.fixture(scope="module")
def ensemble(small_binary):
    return GBDT(TrainConfig(num_trees=4, num_layers=4, num_candidates=8)
                ).fit(small_binary).ensemble


def nan_rows(num_rows, width, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((num_rows, width))
    rows[rng.random(rows.shape) < 0.25] = np.nan
    return rows


def spy_calls(monkeypatch):
    """Rows of every ``CompiledEnsemble.raw_scores`` call, in order."""
    calls = []
    score = CompiledEnsemble.raw_scores

    def spy(self, features, *args, **kwargs):
        calls.append(features.shape[0])
        return score(self, features, *args, **kwargs)

    monkeypatch.setattr(CompiledEnsemble, "raw_scores", spy)
    return calls


# ---------------------------------------------------------------------------
# The book
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", available_backends())
class TestScoreBook:
    def test_reads_what_one_call_per_batch_returns(self, ensemble,
                                                   backend):
        compiled = compile_ensemble(ensemble, backend=backend)
        book = ScoreBook(compiled)
        batches = [nan_rows(rows, compiled.num_features, seed)
                   for seed, rows in enumerate((6, 1, 13, 6, 2))]
        positions = [book.append(batch) for batch in batches]
        assert len(book) == sum(batch.shape[0] for batch in batches)
        for batch, at in zip(batches, positions):
            assert book.read(at).tobytes() \
                == compiled.raw_scores(batch).tobytes()

    def test_scores_on_read_once_for_every_pending_row(
            self, ensemble, backend, monkeypatch):
        book = ScoreBook(compile_ensemble(ensemble, backend=backend))
        width = book.compiled.num_features
        calls = spy_calls(monkeypatch)
        first = book.append(nan_rows(5, width, 1))
        second = book.append(nan_rows(3, width, 2))
        assert first.tolist() == [0, 1, 2, 3, 4]
        assert second.tolist() == [5, 6, 7]
        assert calls == []              # appending scores nothing
        book.read(second[:1])
        assert calls == [8]             # one call over both batches
        book.read(first)
        assert calls == [8]             # scored rows are only read
        third = book.append(nan_rows(2, width, 3))
        book.read(np.concatenate((first, third)))
        assert calls == [8, 2]

    def test_a_full_walk_block_scores_itself(self, ensemble, backend,
                                             monkeypatch):
        book = ScoreBook(compile_ensemble(ensemble, backend=backend))
        width = book.compiled.num_features
        block = walk_block_rows(width)
        rows = nan_rows(block + 3, width, 4)
        want = book.compiled.raw_scores(rows)
        calls = spy_calls(monkeypatch)
        book.append(rows[:block - 1])
        assert calls == []
        book.append(rows[block - 1:])   # its first row fills the block
        assert calls == [block]
        assert book.read(np.arange(block + 3)).tobytes() == want.tobytes()
        assert calls == [block, 3]

    def test_the_book_copies_what_it_books(self, ensemble, backend):
        book = ScoreBook(compile_ensemble(ensemble, backend=backend))
        rows = nan_rows(6, book.compiled.num_features, 8)
        want = book.compiled.raw_scores(rows)
        at = book.append(rows)
        rows[:] = 0.0                   # the caller reuses its buffer
        assert book.read(at).tobytes() == want.tobytes()

    def test_a_position_out_of_range_raises(self, ensemble, backend):
        book = ScoreBook(compile_ensemble(ensemble, backend=backend))
        book.append(nan_rows(4, book.compiled.num_features, 6))
        for bad in ([4], [-1]):
            with pytest.raises(IndexError, match="out of range"):
                book.read(np.asarray(bad))
        assert book.read(np.zeros(0, dtype=np.int64)).shape == (0, 1)


def test_a_fleet_keeps_one_book_per_version(small_binary):
    registry = ModelRegistry()
    for trees in (3, 2):
        registry.publish(GBDT(TrainConfig(
            num_trees=trees, num_layers=3, num_candidates=8,
        )).fit(small_binary).ensemble)
    fleet = ReplicaSet(registry, service_model=lambda k: 1e-4)
    assert fleet.book(1) is fleet.book(1)
    assert fleet.book(2) is not fleet.book(1)
    assert fleet.book(2).compiled is registry.get(2).compiled
    fleet.deploy(1)
    result = fleet.dispatch(
        nan_rows(4, registry.get(1).compiled.num_features, 7), 0.0)
    assert result.book is fleet.book(1)
    assert result.positions.tolist() == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# A whole run: calls per version and row block, not per batch
# ---------------------------------------------------------------------------

def test_sharded_steady_scores_per_row_block_not_per_batch(monkeypatch):
    runner = ScenarioRunner(get_scenario("sharded-steady", scale=8))
    calls = spy_calls(monkeypatch)
    report = runner.run()
    serving = runner.serving_report
    served = serving.request_id.size
    versions = len(serving.versions_served())
    block = walk_block_rows(runner.trace.features.shape[1])
    assert served > block          # a block fills mid-run
    assert len(calls) <= versions * math.ceil(served / block)
    assert sum(calls) == served
    assert serving.batch_size.size > 100 * len(calls)
    assert report["invariants"]["scores_exact"]


# ---------------------------------------------------------------------------
# Every shipped scenario: the change moves no bits
# ---------------------------------------------------------------------------

#: ``report["cache"]`` of the two cache scenarios at scale 1, as served
#: one compiled call per batch before the score book
CACHE_LEDGERS = {
    "diurnal": {"hits": 969, "misses": 2238, "inserts": 2232,
                "evictions": 184, "invalidations": 0,
                "hit_rate": 0.3021515434985968},
    "hot-swap-under-fire": {"hits": 827, "misses": 1136, "inserts": 1126,
                            "evictions": 0, "invalidations": 1,
                            "hit_rate": 0.4212939378502292},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scores_equal_a_per_batch_eager_replay(name):
    runner = ScenarioRunner(get_scenario(name))
    report = runner.run()
    serving, features = runner.serving_report, runner.trace.features
    assert report["invariants"]["scores_exact"]
    for batch, version in enumerate(serving.batch_version.tolist()):
        rows = np.flatnonzero(serving.request_batch == batch)
        eager = runner.registry.get(version).compiled.raw_scores(
            features[serving.request_id[rows]])
        assert serving.scores[rows].tobytes() == eager.tobytes(), \
            f"{name}: batch {batch}"
    assert report["cache"] == CACHE_LEDGERS.get(name)


# ---------------------------------------------------------------------------
# scores_exact fails closed
# ---------------------------------------------------------------------------

def scenario_run(name):
    """A scale-0.2 scenario run: ``(report, serving ledger, totals)``."""
    def run():
        runner = ScenarioRunner(get_scenario(name, scale=0.2))
        report = runner.run()
        return report, runner.serving_report, report["totals"]
    return run


def deploy_run():
    """A serve-mode ``canary-under-fire`` episode at scale 0.25."""
    controller = DeployController(get_scenario("canary-under-fire",
                                               scale=0.25))
    report = controller.run()
    return report, controller.serving_report, report["serving"]


@pytest.mark.parametrize("run", [scenario_run("hot-swap-under-fire"),
                                 deploy_run], ids=["scenario", "deploy"])
def test_rows_read_from_the_next_versions_book_fail(monkeypatch, run):
    book = ReplicaSet.book

    def next_versions_book(fleet, version):
        return book(fleet, version % 2 + 1)

    monkeypatch.setattr(ReplicaSet, "book", next_versions_book)
    report, serving, _ = run()
    assert serving.versions_served() == [1, 2]
    assert report["invariants"]["scores_exact"] is False


@pytest.mark.parametrize("run", [scenario_run("steady"), deploy_run],
                         ids=["scenario", "deploy"])
def test_positions_shifted_by_one_fail(monkeypatch, run):
    read = ScoreBook.read

    def shifted(book, positions):
        return read(book, (np.asarray(positions) + 1) % len(book))

    monkeypatch.setattr(ScoreBook, "read", shifted)
    report, _, _ = run()
    assert report["invariants"]["scores_exact"] is False


@pytest.mark.parametrize("run", [scenario_run("steady"), deploy_run],
                         ids=["scenario", "deploy"])
def test_serving_without_collected_scores_fails(monkeypatch, run):
    run_batcher = MicroBatcher.run

    def uncollected(batcher, trace, swaps=(), collect_scores=False):
        return run_batcher(batcher, trace, swaps)

    monkeypatch.setattr(MicroBatcher, "run", uncollected)
    report, serving, totals = run()
    assert serving.scores is None
    assert totals["served"] > 0
    assert report["invariants"]["scores_exact"] is False
