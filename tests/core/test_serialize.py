"""Model serialization tests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import GBDT, ClusterConfig, ModelRegistry, TrainConfig
from repro.core.serialize import (FORMAT_VERSION, canonical_payload_bytes,
                                  ensemble_from_dict, ensemble_to_dict,
                                  load_ensemble, payload_checksum,
                                  save_ensemble)
from repro.data.dataset import bin_dataset
from repro.systems import get_plan, plan_keys

#: committed golden model: regenerate ONLY on a deliberate format bump
GOLDEN = (Path(__file__).resolve().parent.parent / "data" / "golden"
          / "model_multiclass_v1.json")
GOLDEN_CHECKSUM = \
    "728251b236bd60c63e55259c95c3cf1c7ea3b7806483156c597025ed4435aceb"


@pytest.fixture(scope="module")
def trained(small_binary):
    cfg = TrainConfig(num_trees=4, num_layers=4, num_candidates=8)
    gbdt = GBDT(cfg)
    result = gbdt.fit(small_binary)
    return gbdt, result.ensemble, small_binary


class TestRoundTrip:
    def test_dict_round_trip_preserves_predictions(self, trained):
        gbdt, ensemble, dataset = trained
        back = ensemble_from_dict(ensemble_to_dict(ensemble))
        np.testing.assert_array_equal(
            gbdt.predict(ensemble, dataset), gbdt.predict(back, dataset)
        )

    def test_file_round_trip(self, trained, tmp_path):
        gbdt, ensemble, dataset = trained
        path = tmp_path / "model.json"
        save_ensemble(ensemble, path)
        back = load_ensemble(path)
        assert len(back) == len(ensemble)
        np.testing.assert_array_equal(
            gbdt.predict(ensemble, dataset), gbdt.predict(back, dataset)
        )

    def test_multiclass_round_trip(self, small_multiclass, tmp_path):
        cfg = TrainConfig(num_trees=2, num_layers=3,
                          objective="multiclass", num_classes=4)
        gbdt = GBDT(cfg)
        ensemble = gbdt.fit(small_multiclass).ensemble
        path = tmp_path / "mc.json"
        save_ensemble(ensemble, path, objective="multiclass",
                      num_classes=4)
        back = load_ensemble(path)
        assert back.gradient_dim == 4
        np.testing.assert_array_equal(
            gbdt.predict(ensemble, small_multiclass),
            gbdt.predict(back, small_multiclass),
        )

    def test_payload_is_json_serializable(self, trained):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble)
        text = json.dumps(payload)
        assert ensemble_from_dict(json.loads(text)).trees


class TestGoldenFile:
    """Byte-for-byte compatibility with the committed format-v1 file.

    These tests pin the on-disk format itself, not just semantic
    round-tripping: if serializer output drifts (key order, float
    formatting, indent), saved models in the wild stop matching their
    recorded checksums even though they still load.
    """

    def test_round_trip_byte_for_byte(self, tmp_path):
        ensemble = load_ensemble(GOLDEN)
        regenerated = tmp_path / "regen.json"
        # metadata rides on the loaded ensemble, so a plain re-save must
        # reproduce the file exactly
        save_ensemble(ensemble, regenerated)
        assert regenerated.read_bytes() == GOLDEN.read_bytes()

    def test_checksum_pinned(self):
        payload = json.loads(GOLDEN.read_text())
        assert payload_checksum(payload) == GOLDEN_CHECKSUM

    def test_golden_metadata(self):
        ensemble = load_ensemble(GOLDEN)
        assert ensemble.objective == "multiclass"
        assert ensemble.num_classes == 3
        assert ensemble.gradient_dim == 3
        assert len(ensemble) == 3

    def test_golden_predictions_finite(self):
        from repro.serve import compile_ensemble

        compiled = compile_ensemble(load_ensemble(GOLDEN))
        scores = compiled.raw_scores(np.full((4, 12), np.nan))
        assert np.isfinite(scores).all()


class TestCanonicalEncoding:
    def test_key_order_independent(self, trained):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble)
        shuffled = json.loads(
            json.dumps(payload), object_pairs_hook=lambda kv:
            dict(reversed(kv))
        )
        assert canonical_payload_bytes(payload) == \
            canonical_payload_bytes(shuffled)
        assert payload_checksum(payload) == payload_checksum(shuffled)

    def test_checksum_detects_tampering(self, trained):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble)
        before = payload_checksum(payload)
        tampered = json.loads(json.dumps(payload))
        tampered["learning_rate"] = payload["learning_rate"] + 1e-9
        assert payload_checksum(tampered) != before

    def test_objective_metadata_round_trip(self, trained):
        _, ensemble, _ = trained
        back = ensemble_from_dict(ensemble_to_dict(ensemble))
        assert back.objective == "binary"
        assert back.num_classes == 2


class TestValidation:
    def test_format_version_checked(self, trained):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble)
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            ensemble_from_dict(payload)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not a valid model"):
            load_ensemble(path)

    def test_metadata_preserved(self, trained):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble, objective="binary",
                                   num_classes=2)
        assert payload["objective"] == "binary"
        assert payload["learning_rate"] == ensemble.learning_rate


def _negative(field):
    def mutate(nodes):
        nodes["0"][field] = -3
    return mutate


def _beyond_the_last_layer(nodes):
    nodes[str(2 ** 4 - 1)] = {"weight": [0.5]}


def _under_a_leaf(nodes):
    # the root turns into a leaf; its children stay behind
    nodes["0"] = {"weight": [0.5]}


class TestFailsClosed:
    """A payload whose trees no row could be routed through correctly is
    refused at load time, naming the tree and node — by the decoder and
    by the registry that publishes through it."""

    @pytest.mark.parametrize("mutate,message", [
        (_negative("feature"), "tree 2 node 0: negative split"),
        (_negative("bin"), "tree 2 node 0: negative split"),
        (_beyond_the_last_layer, "tree 2 node 15: outside a 4-layer"),
        (_under_a_leaf, "tree 2 node [12]: its parent is not a split"),
    ], ids=["negative-feature", "negative-bin", "node-beyond-layers",
            "node-under-leaf"])
    def test_corrupt_tree_is_refused(self, trained, mutate, message):
        _, ensemble, _ = trained
        payload = ensemble_to_dict(ensemble)
        mutate(payload["trees"][2]["nodes"])
        with pytest.raises(ValueError, match=message):
            ensemble_from_dict(payload)
        registry = ModelRegistry()
        with pytest.raises(ValueError, match=message):
            registry.publish(payload)
        assert registry.versions() == []

    @pytest.mark.parametrize("key", plan_keys())
    def test_every_plan_model_still_loads(self, key, small_binary):
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
        binned = bin_dataset(small_binary, cfg.num_candidates)
        ensemble = get_plan(key).build(cfg, ClusterConfig(2)) \
            .fit(binned).ensemble
        payload = ensemble_to_dict(ensemble)
        assert ensemble_to_dict(ensemble_from_dict(payload)) == payload

    def test_golden_model_still_publishes(self):
        version = ModelRegistry().publish_file(
            GOLDEN, expected_checksum=GOLDEN_CHECKSUM)
        assert version.checksum == GOLDEN_CHECKSUM
