"""Round-trip property tests for every wire codec.

Lossless codecs must be bit-identical under decode(encode(x)) — the
invariant that keeps codec-enabled training byte-for-byte reproducible
against the dense baseline.  Lossy codecs must bound their error by the
narrow dtype's precision.  Size claims (fallbacks never exceed the dense
baseline; sparse wins below the cutoff density) are checked alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.bitmap import bitmap_nbytes
from repro.cluster.codecs import (CODEC_STACKS, AdaptivePlacementCodec,
                                  BitmapPlacementCodec, CodecPayloadError,
                                  DeltaIndexCodec,
                                  DenseHistogramCodec,
                                  LowPrecisionHistogramCodec, RawIndexCodec,
                                  SparseHistogramCodec, apply_model_delta,
                                  encode_model_delta, get_codec_stack,
                                  sparse_entry_bytes, varint_decode,
                                  varint_encode, varint_length,
                                  zigzag_decode, zigzag_encode)
from repro.core.histogram import Histogram


def make_hist(num_features, num_bins, gradient_dim, density, seed):
    """A histogram with approximately the requested occupied density."""
    rng = np.random.default_rng(seed)
    hist = Histogram(num_features, num_bins, gradient_dim)
    slots = num_features * num_bins
    nnz = int(round(density * slots))
    if nnz:
        idx = rng.choice(slots, size=nnz, replace=False)
        hist.grad[idx] = rng.standard_normal((nnz, gradient_dim))
        hist.hess[idx] = rng.random((nnz, gradient_dim))
    return hist


def assert_hist_identical(a: Histogram, b: Histogram) -> None:
    assert (a.num_features, a.num_bins, a.gradient_dim) \
        == (b.num_features, b.num_bins, b.gradient_dim)
    np.testing.assert_array_equal(a.grad, b.grad)
    np.testing.assert_array_equal(a.hess, b.hess)
    assert a.grad.dtype == b.grad.dtype == np.float64


# ---------------------------------------------------------------------------
# varint / zigzag kernels
# ---------------------------------------------------------------------------

class TestVarint:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(0, 200),
                      elements=st.integers(-2**62, 2**62)))
    def test_zigzag_round_trip(self, values):
        np.testing.assert_array_equal(
            zigzag_decode(zigzag_encode(values)), values)

    def test_zigzag_interleaves_signs(self):
        np.testing.assert_array_equal(
            zigzag_encode(np.array([0, -1, 1, -2, 2])),
            np.array([0, 1, 2, 3, 4], dtype=np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(0, 200),
                      elements=st.integers(0, 2**64 - 1)))
    def test_varint_round_trip(self, values):
        payload = varint_encode(values)
        assert len(payload) == int(varint_length(values).sum())
        np.testing.assert_array_equal(
            varint_decode(payload, values.size), values)

    def test_varint_length_boundaries(self):
        # each 7-bit boundary adds a byte; the max uint64 takes 10
        cases = {0: 1, 127: 1, 128: 2, 2**14 - 1: 2, 2**14: 3,
                 2**63: 10, 2**64 - 1: 10}
        values = np.array(list(cases), dtype=np.uint64)
        np.testing.assert_array_equal(
            varint_length(values), np.array(list(cases.values())))

    def test_varint_small_values_one_byte_each(self):
        values = np.arange(100, dtype=np.uint64)
        assert len(varint_encode(values)) == 100

    def test_varint_decode_underflow_raises(self):
        payload = varint_encode(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValueError, match="2 varints, 3 requested"):
            varint_decode(payload, 3)


# ---------------------------------------------------------------------------
# histogram codecs
# ---------------------------------------------------------------------------

class TestHistogramCodecs:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 16), st.integers(1, 4),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_lossless_round_trip_bit_identical(
            self, features, bins, dim, density, seed):
        hist = make_hist(features, bins, dim, density, seed)
        for codec in (DenseHistogramCodec(), SparseHistogramCodec()):
            assert codec.lossless
            assert_hist_identical(codec.decode(codec.encode(hist)), hist)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 16), st.integers(1, 4),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_sparse_never_exceeds_dense(self, features, bins, dim,
                                        density, seed):
        hist = make_hist(features, bins, dim, density, seed)
        enc = SparseHistogramCodec().encode(hist)
        assert enc.nbytes <= enc.raw_nbytes == hist.nbytes

    def test_sparse_wins_below_cutoff_density(self):
        dim = 1
        hist = make_hist(64, 32, dim, density=0.05, seed=0)
        enc = SparseHistogramCodec().encode(hist)
        assert enc.codec == "sparse"
        nnz = int(np.flatnonzero(hist.grad.any(axis=1)
                                 | hist.hess.any(axis=1)).size)
        assert enc.nbytes == 16 + nnz * sparse_entry_bytes(dim)
        # ~16x smaller at 5% density
        assert enc.raw_nbytes / enc.nbytes > 10

    def test_sparse_dense_fallback_above_cutoff(self):
        hist = make_hist(64, 32, 1, density=1.0, seed=0)
        enc = SparseHistogramCodec().encode(hist)
        assert enc.codec == "sparse/dense-fallback"
        assert enc.nbytes == hist.nbytes

    def test_cutoff_density_formula(self):
        """Sparse wins up to a density of ``16 C / (4 + 16 C)``, less the
        header, and falls back one entry past it."""
        features, bins = 8, 25
        slots = features * bins
        for dim in (1, 10):
            last = (16 * dim * slots - 16 - 1) // sparse_entry_bytes(dim)
            assert abs(last / slots - 16 * dim / (4 + 16 * dim)) < 2 / slots
            for nnz, codec in ((last, "sparse"),
                               (last + 1, "sparse/dense-fallback")):
                hist = make_hist(features, bins, dim, nnz / slots, seed=0)
                assert SparseHistogramCodec().encode(hist).codec == codec

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 16), st.integers(1, 4),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_lossy_bounded_relative_error(self, features, bins, dim,
                                          density, seed):
        hist = make_hist(features, bins, dim, density, seed)
        for dtype, name, eps in ((np.float32, "f32", 1e-7),
                                 (np.float16, "f16", 1e-3)):
            codec = LowPrecisionHistogramCodec(dtype, name)
            assert not codec.lossless
            out = codec.decode(codec.encode(hist))
            np.testing.assert_allclose(out.grad, hist.grad, rtol=eps,
                                       atol=eps)
            np.testing.assert_allclose(out.hess, hist.hess, rtol=eps,
                                       atol=eps)

    def test_lossy_byte_reduction(self):
        hist = make_hist(32, 16, 2, density=1.0, seed=1)
        f32 = LowPrecisionHistogramCodec(np.float32, "f32").encode(hist)
        f16 = LowPrecisionHistogramCodec(np.float16, "f16").encode(hist)
        assert f32.nbytes == 16 + hist.nbytes // 2
        assert f16.nbytes == 16 + hist.nbytes // 4


# ---------------------------------------------------------------------------
# placement codecs
# ---------------------------------------------------------------------------

class TestPlacementCodecs:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(bool, st.integers(1, 500)))
    def test_round_trip_both_codecs(self, go_left):
        for codec in (BitmapPlacementCodec(), AdaptivePlacementCodec()):
            enc = codec.encode(go_left)
            np.testing.assert_array_equal(
                codec.decode(enc, go_left.size), go_left)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(bool, st.integers(1, 500)))
    def test_adaptive_never_exceeds_bitmap(self, go_left):
        enc = AdaptivePlacementCodec().encode(go_left)
        assert enc.nbytes <= bitmap_nbytes(go_left.size)
        assert enc.raw_nbytes == bitmap_nbytes(go_left.size)

    def test_adaptive_picks_sparse_on_skewed_split(self):
        go_left = np.zeros(10_000, dtype=bool)
        go_left[::500] = True   # 20 minority instances
        enc = AdaptivePlacementCodec().encode(go_left)
        assert enc.codec == "placement-sparse"
        assert enc.nbytes < 100 < bitmap_nbytes(go_left.size)

    def test_adaptive_picks_bitmap_on_even_split(self):
        rng = np.random.default_rng(0)
        go_left = rng.random(10_000) < 0.5
        enc = AdaptivePlacementCodec().encode(go_left)
        assert enc.codec == "bitmap"
        assert enc.nbytes == bitmap_nbytes(go_left.size)


# ---------------------------------------------------------------------------
# index codec
# ---------------------------------------------------------------------------

class TestIndexCodecs:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.int32, st.integers(0, 400),
                      elements=st.integers(-2**31, 2**31 - 1)))
    def test_round_trip_exact(self, values):
        for codec in (RawIndexCodec(), DeltaIndexCodec()):
            out = codec.decode(codec.encode(values))
            np.testing.assert_array_equal(out, values)
            assert out.dtype == values.dtype

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.int32, st.integers(1, 400),
                      elements=st.integers(-2**31, 2**31 - 1)))
    def test_delta_never_exceeds_raw(self, values):
        enc = DeltaIndexCodec().encode(values)
        assert enc.nbytes <= enc.raw_nbytes == values.nbytes

    def test_delta_compresses_node_ids(self):
        # spatially correlated node ids (the checkpoint payload shape):
        # long runs of equal small ids delta to zeros -> ~4x vs int32
        ids = np.repeat(np.arange(16, dtype=np.int32), 1000)
        enc = DeltaIndexCodec().encode(ids)
        assert enc.codec == "delta"
        assert enc.raw_nbytes / enc.nbytes >= 3.9


# ---------------------------------------------------------------------------
# model-version delta
# ---------------------------------------------------------------------------

def payload(trees, **meta):
    out = {"format": 1, "objective": "binary", "num_classes": 2,
           "trees": list(trees)}
    out.update(meta)
    return out


class TestModelDelta:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_round_trip_exact(self, shared, dropped, appended):
        trees = [{"id": i} for i in range(shared + dropped + appended)]
        prev = payload(trees[:shared + dropped])
        new = payload(trees[:shared] + trees[shared + dropped:])
        delta = encode_model_delta(prev, new)
        if delta is None:
            # only legitimate refusal: no shared prefix at all
            assert shared == 0 and shared + dropped > 0
            return
        assert apply_model_delta(prev, delta) == new
        assert delta["base_trees"] == shared
        assert delta["dropped_trees"] == dropped
        assert len(delta["trees"]) == appended

    def test_append_only_delta_ships_suffix(self):
        prev = payload([{"id": 0}, {"id": 1}])
        new = payload([{"id": 0}, {"id": 1}, {"id": 2}])
        delta = encode_model_delta(prev, new)
        assert delta["trees"] == [{"id": 2}]
        assert delta["dropped_trees"] == 0

    def test_changed_metadata_refuses_delta(self):
        prev = payload([{"id": 0}], objective="binary")
        new = payload([{"id": 0}], objective="multiclass")
        assert encode_model_delta(prev, new) is None

    def test_stale_base_rejected(self):
        delta = {"delta_format": 1, "base_trees": 3, "dropped_trees": 0,
                 "trees": []}
        with pytest.raises(ValueError, match="3 base trees"):
            apply_model_delta(payload([{"id": 0}]), delta)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown delta format"):
            apply_model_delta(payload([]), {"delta_format": 99})


#: a 4-tree predecessor and the 6-tree successor that appends to it
PREV = payload([{"id": i} for i in range(4)])
NEW = payload([{"id": i} for i in range(6)])
DELTA = {"delta_format": 1, "base_trees": 4, "dropped_trees": 0,
         "trees": [{"id": 4}, {"id": 5}]}

#: a structurally wrong value of any JSON-ish type
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=True), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3), st.tuples(st.integers()),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


class TestModelDeltaFailsClosed:
    """A delta either rebuilds exactly ``NEW`` or raises
    :class:`CodecPayloadError` — it never yields some other model."""

    @pytest.mark.parametrize("field, value, defect", [
        ("base_trees", -2, "non-negative int, got -2"),
        ("base_trees", True, "non-negative int, got True"),
        ("base_trees", 1.5, "non-negative int, got 1.5"),
        ("dropped_trees", 99, "dropped_trees 99 != 4"),
        ("trees", {"a": 1}, "trees must be a list, got dict"),
        ("trees", None, "lacks trees"),
    ])
    def test_pinned_probes(self, field, value, defect):
        assert encode_model_delta(PREV, NEW) == DELTA
        mutated = dict(DELTA)
        if value is None:
            del mutated[field]
        else:
            mutated[field] = value
        with pytest.raises(CodecPayloadError, match=defect):
            apply_model_delta(PREV, mutated)

    @pytest.mark.parametrize("delta", [None, [], "delta", 1])
    def test_non_dict_delta(self, delta):
        with pytest.raises(CodecPayloadError, match="unknown delta format"):
            apply_model_delta(PREV, delta)

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(("delta_format", "base_trees",
                                  "dropped_trees", "trees")),
           value=junk, delete=st.booleans())
    def test_mutated_field_fails_closed(self, field, value, delete):
        # a replacement *list* of trees is content, not structure: only
        # the deploy's checksum can tell it from the real suffix
        if field == "trees" and isinstance(value, list) and not delete:
            return
        mutated = dict(DELTA)
        if delete:
            del mutated[field]
        else:
            mutated[field] = value
        try:
            rebuilt = apply_model_delta(PREV, mutated)
        except CodecPayloadError:
            return
        assert rebuilt == NEW


# ---------------------------------------------------------------------------
# the stack registry
# ---------------------------------------------------------------------------

class TestCodecStacks:
    def test_registry_names(self):
        assert set(CODEC_STACKS) == {"none", "sparse", "delta", "f32",
                                     "f16"}

    def test_lossless_flags(self):
        for name in ("none", "sparse", "delta"):
            assert CODEC_STACKS[name].lossless
        for name in ("f32", "f16"):
            assert not CODEC_STACKS[name].lossless

    def test_lossless_flag_matches_histogram_codec(self):
        for stack in CODEC_STACKS.values():
            assert stack.lossless == stack.histogram.lossless
            assert stack.placement.lossless and stack.index.lossless

    def test_identity_stack(self):
        assert get_codec_stack("none").is_identity
        assert get_codec_stack("").is_identity
        assert not get_codec_stack("sparse").is_identity

    def test_lookup_case_insensitive(self):
        assert get_codec_stack("SPARSE") is CODEC_STACKS["sparse"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown codec 'zstd'"):
            get_codec_stack("zstd")

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(("none", "sparse", "delta")),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_lossless_stacks_round_trip_everything(self, name, density,
                                                   seed):
        stack = get_codec_stack(name)
        hist = make_hist(8, 12, 2, density, seed)
        assert_hist_identical(
            stack.histogram.decode(stack.histogram.encode(hist)), hist)
        rng = np.random.default_rng(seed)
        go_left = rng.random(257) < density
        np.testing.assert_array_equal(
            stack.placement.decode(stack.placement.encode(go_left), 257),
            go_left)
        ids = rng.integers(0, 31, size=400).astype(np.int32)
        np.testing.assert_array_equal(
            stack.index.decode(stack.index.encode(ids)), ids)
