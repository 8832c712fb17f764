"""Prediction-cache tests: exactness, keys, LRU, version invalidation.

The cache's contract is that it is *invisible* in the scores — every
answer it returns is the answer the predictor would have produced — so
most tests here compare cached serving against direct computation
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.core.kernels import MISSING_BIN
from repro.data.dataset import bin_dataset
from repro.serve import (CacheStats, ModelRegistry, PredictionCache,
                         ReplicaSet, compile_ensemble)


@pytest.fixture(scope="module")
def ensemble(small_binary):
    cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    return GBDT(cfg).fit(small_binary).ensemble


@pytest.fixture(scope="module")
def trained(small_binary, ensemble):
    cuts = bin_dataset(small_binary, 8).cuts
    return compile_ensemble(ensemble), cuts


def batch(num_rows, num_features, seed=0, missing=0.3):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((num_rows, num_features))
    rows[rng.random(rows.shape) < missing] = np.nan
    return rows


class TestConstruction:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            PredictionCache(0)

    def test_cut_grid_width_validated(self):
        too_many = [np.arange(MISSING_BIN, dtype=np.float64)]
        with pytest.raises(ValueError, match="missing sentinel"):
            PredictionCache(4, cuts=too_many)

    def test_repr_mentions_fill(self):
        cache = PredictionCache(4)
        assert "entries=0" in repr(cache)


class TestKeys:
    def test_bit_equal_rows_share_float_key(self):
        cache = PredictionCache(4)
        rows = batch(2, 5, seed=1, missing=0.0)
        keys = cache.key_batch(np.vstack([rows, rows]))
        assert keys[0] == keys[2] and keys[1] == keys[3]
        assert keys[0] != keys[1]

    def test_nan_canonicalized_in_float_keys(self):
        cache = PredictionCache(4)
        a = np.array([[1.0, np.nan]])
        # a differently-encoded NaN (here: flipped sign bit) must not
        # split the key
        weird = np.array([[1.0, -np.nan]])
        assert np.asarray(a).tobytes() != np.asarray(weird).tobytes()
        assert cache.key_batch(a) == cache.key_batch(weird)

    def test_same_bin_rows_collapse_with_cuts(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(8, cuts=cuts)
        width = len(cuts)
        base = np.full((1, width), 0.0)
        nudged = base.copy()
        # nudge each value within its bin: strictly below the next cut
        for f, grid in enumerate(cuts):
            upper = grid[np.searchsorted(grid, 0.0)] \
                if np.searchsorted(grid, 0.0) < grid.size else 1e9
            nudged[0, f] = min(0.0 + 1e-12, upper)
        keys = cache.key_batch(np.vstack([base, nudged]))
        assert keys[0] == keys[1]

    def test_nan_maps_to_missing_sentinel_bin(self, trained):
        _, cuts = trained
        cache = PredictionCache(8, cuts=cuts)
        row = np.full((1, len(cuts)), np.nan)
        key = cache.key_batch(row)[0]
        assert key == bytes([MISSING_BIN]) * len(cuts)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            PredictionCache(4).key_batch(np.zeros(3))


class TestServe:
    def test_scores_bit_identical_with_and_without_cache(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(64, cuts=cuts)
        rows = batch(40, compiled.num_features, seed=2)
        rows = np.vstack([rows, rows[:13]])   # guaranteed repeats
        direct = compiled.raw_scores(rows)
        cached, misses = cache.serve(1, rows, compiled.raw_scores)
        np.testing.assert_array_equal(cached, direct)
        # repeats inside one batch miss together (lookup precedes
        # insert); hits come from earlier batches
        assert misses == rows.shape[0]
        # a second pass over the same rows is all hits, still exact
        again, misses2 = cache.serve(1, rows, compiled.raw_scores)
        np.testing.assert_array_equal(again, direct)
        assert misses2 == 0

    def test_ledger_counts(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(64, cuts=cuts)
        rows = batch(10, compiled.num_features, seed=3, missing=0.0)
        cache.serve(1, rows, compiled.raw_scores)
        cache.serve(1, rows, compiled.raw_scores)
        assert cache.stats.hits == 10
        assert cache.stats.misses == 10
        assert cache.stats.inserts == 10
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.to_dict()["hit_rate"] == pytest.approx(0.5)

    def test_lru_eviction_order(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(2, cuts=cuts)
        rows = batch(3, compiled.num_features, seed=4, missing=0.0)
        cache.serve(1, rows[:1], compiled.raw_scores)   # A
        cache.serve(1, rows[1:2], compiled.raw_scores)  # B
        cache.serve(1, rows[:1], compiled.raw_scores)   # touch A
        cache.serve(1, rows[2:3], compiled.raw_scores)  # C evicts B
        assert cache.stats.evictions == 1
        before = cache.stats.hits
        cache.serve(1, rows[:1], compiled.raw_scores)   # A still hits
        assert cache.stats.hits == before + 1
        cache.serve(1, rows[1:2], compiled.raw_scores)  # B was evicted
        assert cache.stats.misses == 3 + 1

    def test_version_change_invalidates(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(32, cuts=cuts)
        rows = batch(5, compiled.num_features, seed=5)
        cache.serve(1, rows, compiled.raw_scores)
        assert len(cache) == 5 and cache.version == 1
        cache.serve(2, rows, compiled.raw_scores)
        assert cache.version == 2
        assert cache.stats.invalidations == 1
        # post-swap lookups recomputed, not served stale
        assert cache.stats.misses == 10 and cache.stats.hits == 0

    def test_duplicate_rows_inside_one_batch(self, trained):
        compiled, cuts = trained
        cache = PredictionCache(32, cuts=cuts)
        row = batch(1, compiled.num_features, seed=6)
        rows = np.vstack([row, row, row])
        scores, misses = cache.serve(1, rows, compiled.raw_scores)
        # duplicates miss together (they are computed in one batch)
        # but only one entry is stored
        assert misses == 3 and len(cache) == 1
        np.testing.assert_array_equal(scores[0], scores[1])
        np.testing.assert_array_equal(scores[0], scores[2])

    def test_float_fallback_without_cuts(self, trained):
        compiled, _ = trained
        cache = PredictionCache(32)
        rows = batch(8, compiled.num_features, seed=7)
        direct = compiled.raw_scores(rows)
        got, _ = cache.serve(1, rows, compiled.raw_scores)
        np.testing.assert_array_equal(got, direct)
        _, misses = cache.serve(1, rows, compiled.raw_scores)
        assert misses == 0


class TestStats:
    def test_empty_ledger(self):
        stats = CacheStats()
        assert stats.lookups == 0 and stats.hit_rate == 0.0


class TestServerIntegration:
    def test_one_worker_fleet_bills_only_misses(self, ensemble, trained):
        _, cuts = trained
        registry = ModelRegistry()
        registry.publish(ensemble)
        cache = PredictionCache(64, cuts=cuts)
        billed = []

        def service(k):
            billed.append(k)
            return 0.001

        fleet = ReplicaSet(registry, ClusterConfig(num_workers=1),
                           service_model=service, cache=cache)
        fleet.deploy()
        rows = batch(6, registry.active.compiled.num_features, seed=8)
        first = fleet.dispatch(rows, 0.0)
        second = fleet.dispatch(rows, 1.0)
        assert billed == [6, 0]
        np.testing.assert_array_equal(first.scores, second.scores)


class TestRollbackInvalidation:
    """Regression: a registry *rollback* must flush the cache exactly
    like a hot-swap — eagerly, at the decision instant, before any
    serve call could hand out a stale score."""

    def build(self, small_binary):
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        for trees in (3, 2):
            cfg = TrainConfig(num_trees=trees, num_layers=3,
                              num_candidates=8)
            registry.publish(GBDT(cfg).fit(small_binary).ensemble)
        cache = PredictionCache(64)
        registry.attach_cache(cache)
        return registry, cache

    def test_rollback_flushes_at_decision_instant(self, small_binary):
        registry, cache = self.build(small_binary)
        registry.activate(2)
        rows = batch(8, registry.active.compiled.num_features, seed=11)
        cache.serve(2, rows, registry.active.compiled.raw_scores)
        assert len(cache) > 0 and cache.version == 2
        registry.rollback()
        # flushed eagerly — no serve() call in between
        assert len(cache) == 0 and cache.version == 1
        assert cache.stats.invalidations == 1

    def test_roll_back_of_active_canary_flushes(self, small_binary):
        registry, cache = self.build(small_binary)
        registry.stage_canary(2)
        registry.promote(2)
        rows = batch(8, registry.active.compiled.num_features, seed=12)
        cache.serve(2, rows, registry.active.compiled.raw_scores)
        registry.roll_back(2)
        assert len(cache) == 0 and cache.version == 1

    def test_retiring_a_non_active_canary_keeps_entries(
            self, small_binary):
        registry, cache = self.build(small_binary)
        registry.stage_canary(2)
        rows = batch(8, registry.active.compiled.num_features, seed=13)
        cache.serve(1, rows, registry.active.compiled.raw_scores)
        stored = len(cache)
        registry.roll_back(2)  # incumbent keeps serving: no flush
        assert len(cache) == stored and cache.version == 1
