"""Model-registry tests: versioning, checksums, hot-swap, rollback."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import GBDT, TrainConfig
from repro.core.serialize import (ensemble_to_dict, payload_checksum,
                                  save_ensemble)
from repro.serve import ModelRegistry


@pytest.fixture(scope="module")
def models(small_binary):
    big = GBDT(TrainConfig(num_trees=4, num_layers=4,
                           num_candidates=8)).fit(small_binary).ensemble
    small = GBDT(TrainConfig(num_trees=2, num_layers=3,
                             num_candidates=8)).fit(small_binary).ensemble
    return big, small


class TestPublish:
    def test_first_publish_auto_activates(self, models):
        registry = ModelRegistry()
        entry = registry.publish(models[0])
        assert entry.version == 1
        assert registry.active is entry
        assert len(registry) == 1

    def test_later_publish_does_not_swap(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        second = registry.publish(models[1])
        assert second.version == 2
        assert registry.active.version == 1

    def test_checksum_matches_serializer(self, models):
        registry = ModelRegistry()
        entry = registry.publish(models[0])
        payload = ensemble_to_dict(models[0])
        assert entry.checksum == payload_checksum(payload)
        assert entry.nbytes > 0
        assert entry.objective == "binary"
        assert "sha256:" in str(entry)

    def test_publish_payload_dict(self, models):
        registry = ModelRegistry()
        entry = registry.publish(ensemble_to_dict(models[0]))
        assert entry.compiled.num_trees == len(models[0])

    def test_publish_file_and_checksum_guard(self, models, tmp_path):
        path = tmp_path / "model.json"
        save_ensemble(models[0], path)
        expected = payload_checksum(json.loads(path.read_text()))
        registry = ModelRegistry()
        entry = registry.publish_file(path, expected_checksum=expected)
        assert entry.source == str(path)
        assert entry.checksum == expected
        with pytest.raises(ValueError, match="checksum mismatch"):
            registry.publish_file(path, expected_checksum="0" * 64)

    def test_publish_file_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="not a valid model"):
            ModelRegistry().publish_file(path)

    def test_published_model_serves_exactly(self, models, small_binary):
        registry = ModelRegistry()
        entry = registry.publish(models[0])
        csc = small_binary.csc()
        np.testing.assert_array_equal(
            entry.compiled.raw_scores(csc), models[0].raw_scores(csc)
        )


class TestActivePointer:
    def test_no_active_raises(self):
        registry = ModelRegistry()
        with pytest.raises(LookupError, match="no active"):
            registry.active

    def test_activate_flips_atomically(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        registry.publish(models[1])
        registry.activate(2)
        assert registry.active.version == 2
        assert registry.activation_log == [1, 2]

    def test_unknown_version(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        with pytest.raises(KeyError, match="unknown model version 7"):
            registry.activate(7)

    def test_rollback_walks_history(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        registry.publish(models[1])
        registry.activate(2)
        assert registry.rollback().version == 1
        assert registry.active.version == 1
        with pytest.raises(LookupError, match="no previous"):
            registry.rollback()

    def test_versions_listing(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        registry.publish(models[1])
        assert [v.version for v in registry.versions()] == [1, 2]
        assert "active=1" in repr(registry)


class TestDeploymentStages:
    def fresh(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        registry.publish(models[1])
        return registry

    def test_stage_flow_to_promotion(self, models):
        registry = self.fresh(models)
        assert registry.stages() == {1: "active", 2: "published"}
        registry.stage_canary(2)
        assert registry.stage_of(2) == "canary"
        registry.promote(2)
        assert registry.stages() == {1: "published", 2: "active"}
        assert registry.stage_log == [(2, "canary"), (2, "active")]
        assert registry.activation_log == [1, 2]

    def test_promote_requires_the_canary_stage(self, models):
        registry = self.fresh(models)
        with pytest.raises(ValueError, match="staged canary"):
            registry.promote(2)

    def test_stage_canary_refuses_active(self, models):
        registry = self.fresh(models)
        with pytest.raises(ValueError, match="already active"):
            registry.stage_canary(1)

    def test_roll_back_staged_canary_keeps_incumbent(self, models):
        registry = self.fresh(models)
        registry.stage_canary(2)
        left = registry.roll_back(2)
        assert left.version == 1
        assert registry.stage_of(2) == "retired"
        assert registry.active.version == 1

    def test_roll_back_active_restores_previous(self, models):
        registry = self.fresh(models)
        registry.stage_canary(2)
        registry.promote(2)
        left = registry.roll_back(2)
        assert left.version == 1 and registry.active.version == 1
        assert registry.stage_of(2) == "retired"

    def test_retired_stays_retired(self, models):
        registry = self.fresh(models)
        registry.stage_canary(2)
        registry.roll_back(2)
        with pytest.raises(ValueError, match="refusing to re-stage"):
            registry.stage_canary(2)

    def test_refused_roll_back_records_nothing(self, models):
        """Rolling back the only activation is refused before the
        version is marked retired, so it can still be staged later."""
        registry = ModelRegistry()
        registry.publish(models[0])
        with pytest.raises(LookupError, match="no previous activation"):
            registry.roll_back(1)
        assert registry.stage_log == []
        registry.publish(models[1])
        registry.activate(2)
        assert registry.stage_of(1) == "published"
        registry.stage_canary(1)


class TestCacheNotification:
    class SpyCache:
        def __init__(self):
            self.versions = []

        def on_version_change(self, version):
            self.versions.append(version)

    def test_every_pointer_flip_notifies(self, models):
        registry = ModelRegistry()
        registry.publish(models[0])
        registry.publish(models[1])
        spy = self.SpyCache()
        registry.attach_cache(spy)
        registry.attach_cache(spy)  # idempotent
        registry.activate(2)        # hot-swap
        registry.rollback()         # plain rollback
        registry.stage_canary(2)    # no pointer change -> no call
        registry.roll_back(2)       # retire canary: notified (no-op arg)
        assert spy.versions == [2, 1, 1]
