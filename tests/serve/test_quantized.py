"""Bin-quantized predictor ablation: exactness and guard rails.

The uint8 predictor is only admissible as an ablation if it is
*bit-identical* to the float compiled path — these tests pin that on
trained models (dense, sparse/missing-heavy, multiclass), across every
importable kernel backend, through both the convenience float entry
point and the pre-binned hot path.  The quantizer's refusal cases
(off-grid thresholds, too many bins) are pinned too, because a silent
mis-quantization would *look* like a speedup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainConfig
from repro.core.gbdt import GBDT
from repro.core.kernels import MISSING_BIN, available_backends
from repro.data.dataset import bin_dataset
from repro.serve import compile_ensemble, quantize_ensemble

NUM_BINS = 16


def train_quantized(dataset, num_classes=2, num_bins=NUM_BINS):
    binned = bin_dataset(dataset, num_bins)
    cfg = TrainConfig(num_trees=4, num_layers=4, num_candidates=num_bins,
                      num_classes=num_classes,
                      objective="multiclass" if num_classes > 2 else
                      "binary")
    ensemble = GBDT(cfg).fit(dataset, binned=binned).ensemble
    compiled = compile_ensemble(ensemble)
    return compiled, quantize_ensemble(compiled, binned.cuts), binned


class TestExactness:
    @pytest.mark.parametrize("fixture", ["small_binary", "small_sparse"])
    def test_bit_identical_to_float_path(self, fixture, request):
        dataset = request.getfixturevalue(fixture)
        compiled, quant, _ = train_quantized(dataset)
        batch = dataset.csc()
        expect = compiled.raw_scores(batch)
        assert np.array_equal(expect, quant.raw_scores(batch))

    def test_multiclass_exact(self, small_multiclass):
        compiled, quant, _ = train_quantized(small_multiclass,
                                             num_classes=4)
        batch = small_multiclass.csc()
        assert quant.gradient_dim == 4
        assert np.array_equal(compiled.raw_scores(batch),
                              quant.raw_scores(batch))

    @pytest.mark.parametrize("backend",
                             [b for b in available_backends()
                              if b != "numpy"])
    def test_backends_agree(self, small_sparse, backend):
        compiled, quant, binned = train_quantized(small_sparse)
        alt = quantize_ensemble(compiled, binned.cuts, backend=backend)
        batch = small_sparse.csc()
        assert np.array_equal(quant.raw_scores(batch),
                              alt.raw_scores(batch))

    def test_prefix_num_trees_matches_float(self, small_binary):
        compiled, quant, _ = train_quantized(small_binary)
        batch = small_binary.csc()
        for use in (1, 2, quant.num_trees + 5):
            assert np.array_equal(compiled.raw_scores(batch,
                                                      num_trees=use),
                                  quant.raw_scores(batch, num_trees=use))


class TestBinBatch:
    def test_missing_becomes_sentinel(self, small_sparse):
        _, quant, binned = train_quantized(small_sparse)
        bb = quant.bin_batch(small_sparse.csc())
        assert bb.dtype == np.uint8
        assert bb.shape[0] == small_sparse.num_instances
        # the sparse fixture has unstored entries -> sentinel bins
        assert (bb == MISSING_BIN).any()
        # stored entries always quantize below the sentinel
        dense = quant.compiled.densify(small_sparse.csc())
        assert (bb[~np.isnan(dense)] < MISSING_BIN).all()

    def test_bin_once_serve_many(self, small_binary):
        compiled, quant, _ = train_quantized(small_binary)
        bb = quant.bin_batch(small_binary.csc())
        expect = compiled.raw_scores(small_binary.csc())
        assert np.array_equal(expect, quant.raw_scores_binned(bb))
        # same pre-binned batch, second serve: still exact (no state)
        assert np.array_equal(expect, quant.raw_scores_binned(bb))

    def test_rejects_non_uint8(self, small_binary):
        _, quant, _ = train_quantized(small_binary)
        bad = np.zeros((3, 5), dtype=np.int64)
        with pytest.raises(ValueError, match="uint8"):
            quant.raw_scores_binned(bad)

    def test_rejects_batch_narrower_than_the_model(self, small_binary):
        compiled, quant, _ = train_quantized(small_binary)
        narrow = np.zeros((3, compiled.num_features - 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="columns"):
            quant.raw_scores_binned(narrow)


class TestQuantizerGuards:
    def test_off_grid_threshold_rejected(self, small_binary):
        binned = bin_dataset(small_binary, NUM_BINS)
        cfg = TrainConfig(num_trees=2, num_layers=3,
                          num_candidates=NUM_BINS)
        compiled = compile_ensemble(
            GBDT(cfg).fit(small_binary, binned=binned).ensemble)
        # a perturbed grid no longer contains the trained thresholds
        shifted = [c + 1e-9 for c in binned.cuts]
        with pytest.raises(ValueError, match="not on the bin grid"):
            quantize_ensemble(compiled, shifted)

    def test_too_many_bins_rejected(self, small_binary):
        compiled, _, binned = train_quantized(small_binary)
        wide = list(binned.cuts)
        wide[0] = np.linspace(0.0, 1.0, 300)
        with pytest.raises(ValueError, match="at most 255"):
            quantize_ensemble(compiled, wide)

    def test_threshold_bins_read_only(self, small_binary):
        _, quant, _ = train_quantized(small_binary)
        with pytest.raises(ValueError):
            quant.threshold_bin[0] = 1

    def test_repr_and_nbytes(self, small_binary):
        compiled, quant, _ = train_quantized(small_binary)
        assert "QuantizedEnsemble" in repr(quant)
        assert quant.nbytes == compiled.nbytes + quant.threshold_bin.nbytes
