"""Lossy codecs fail loud: a finite value that the narrow wire dtype
turns into ``inf`` raises :class:`CodecOverflowError` instead of flowing
into split finding."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.cluster.codecs import CodecOverflowError, get_codec_stack
from repro.core.histogram import Histogram

F16_MAX = 65504.0       # largest finite float16
F16_TIE = 65520.0       # halfway to 65536: round-to-even lands on inf


def _hist(value: float, field: str = "hess") -> Histogram:
    hist = Histogram(3, 4, 1)
    hist.grad[:] = 0.5
    hist.hess[:] = 2.0
    getattr(hist, field)[5, 0] = value
    return hist


@pytest.fixture(autouse=True)
def _numpy_warnings_are_errors():
    # the guard must catch the overflow itself, not lean on (or leak)
    # numpy's "overflow encountered in cast" RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestHistogramCodec:
    @pytest.mark.parametrize("field", ["grad", "hess"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_f16_boundary(self, field, sign):
        codec = get_codec_stack("f16").histogram
        for value in (F16_MAX, np.nextafter(F16_TIE, 0.0)):
            decoded = codec.decode(codec.encode(_hist(sign * value, field)))
            assert getattr(decoded, field)[5, 0] == sign * F16_MAX
        with pytest.raises(CodecOverflowError, match="f16"):
            codec.encode(_hist(sign * F16_TIE, field))

    def test_constant_hessian_count_on_a_large_shard(self):
        """The ROADMAP's case: hess == 1 per instance, so a bin sum is
        a row count — 70,000 rows in one bin used to ship as inf."""
        codec = get_codec_stack("f16").histogram
        with pytest.raises(CodecOverflowError):
            codec.encode(_hist(70_000.0))
        assert isinstance(CodecOverflowError("x"), OverflowError)

    def test_in_range_f16_and_f32_are_unaffected(self):
        rng = np.random.default_rng(0)
        hist = Histogram(6, 5, 2)
        hist.grad[:] = rng.normal(scale=100.0, size=hist.grad.shape)
        hist.hess[:] = rng.uniform(0.0, 60_000.0, size=hist.hess.shape)
        for name, dtype in (("f16", np.float16), ("f32", np.float32)):
            codec = get_codec_stack(name).histogram
            enc = codec.encode(hist)
            decoded = codec.decode(enc)
            assert np.array_equal(decoded.grad, hist.grad.astype(dtype))
            assert np.array_equal(decoded.hess, hist.hess.astype(dtype))
            assert enc.nbytes == 16 + 2 * hist.grad.size * dtype().nbytes

    def test_f32_carries_what_f16_cannot_and_has_its_own_boundary(self):
        codec = get_codec_stack("f32").histogram
        decoded = codec.decode(codec.encode(_hist(70_000.0)))
        assert decoded.hess[5, 0] == 70_000.0
        f32_max = float(np.finfo(np.float32).max)
        assert codec.decode(codec.encode(_hist(f32_max))).hess[5, 0] \
            == f32_max
        with pytest.raises(CodecOverflowError, match="f32"):
            codec.encode(_hist(1e39))

    def test_non_finite_inputs_pass_through(self):
        codec = get_codec_stack("f16").histogram
        hist = _hist(np.inf)
        hist.grad[0, 0] = np.nan
        hist.grad[1, 0] = -np.inf
        decoded = codec.decode(codec.encode(hist))
        assert decoded.hess[5, 0] == np.inf
        assert np.isnan(decoded.grad[0, 0])
        assert decoded.grad[1, 0] == -np.inf
