"""Quantile sketch tests: rank-error guarantees and merging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.quantile import MergingSketch


def rank_error(values: np.ndarray, answer: float, quantile: float) -> float:
    """Normalized rank error of ``answer`` for ``quantile`` over values."""
    values = np.sort(values)
    target = quantile * values.size
    lo = np.searchsorted(values, answer, side="left")
    hi = np.searchsorted(values, answer, side="right")
    # distance from the closest admissible rank of the answer
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / values.size


class TestMergingSketch:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            MergingSketch(eps=0.0)

    def test_empty_query_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MergingSketch().query(0.5)

    def test_extremes_are_exact(self, rng):
        values = rng.standard_normal(10_000)
        sketch = MergingSketch(eps=0.01)
        sketch.update(values)
        assert sketch.query(0.0) == values.min()
        assert sketch.query(1.0) == values.max()

    def test_rank_error(self, rng):
        values = rng.standard_normal(50_000)
        sketch = MergingSketch(eps=0.01)
        # feed in batches to exercise compaction
        for chunk in np.array_split(values, 13):
            sketch.update(chunk)
        for q in np.linspace(0.05, 0.95, 10):
            assert rank_error(values, sketch.query(q), q) <= 0.02

    def test_merge_rank_error(self, rng):
        a_vals = rng.standard_normal(20_000)
        b_vals = 2 * rng.standard_normal(15_000) - 1
        a = MergingSketch(eps=0.01)
        b = MergingSketch(eps=0.01)
        a.update(a_vals)
        b.update(b_vals)
        merged = a.merge(b)
        combined = np.concatenate([a_vals, b_vals])
        assert merged.count == combined.size
        for q in (0.1, 0.5, 0.9):
            assert rank_error(combined, merged.query(q), q) <= 0.03

    def test_summary_stays_bounded(self, rng):
        sketch = MergingSketch(eps=0.02, buffer_size=512)
        for _ in range(20):
            sketch.update(rng.standard_normal(1000))
        sketch._fold_buffer()
        assert sketch.size <= sketch.max_summary + 1

    def test_quantiles_vector(self, rng):
        sketch = MergingSketch()
        sketch.update(rng.standard_normal(1000))
        out = sketch.quantiles([0.25, 0.5, 0.75])
        assert out.shape == (3,)
        assert np.all(np.diff(out) >= 0)

    def test_quantiles_equal_one_rank_query_each(self, rng):
        """The vectorized lookup answers what a cumulative sum and a
        ``searchsorted`` per probability answer, ends included."""
        values = np.round(rng.standard_normal(30_000), 2)
        sketch = MergingSketch(eps=0.01, buffer_size=4096)
        sketch.update(values)
        probs = np.r_[0.0, np.arange(1, 64) / 64, rng.random(20), 1.0]
        out = sketch.quantiles(probs)
        cum = np.cumsum(sketch._summary_weights)
        for p, got in zip(probs[1:-1], out[1:-1]):
            idx = min(int(np.searchsorted(cum, p * sketch.count)),
                      cum.size - 1)
            assert got == sketch._summary_values[idx] == sketch.query(p)
        assert (out[0], out[-1]) == (values.min(), values.max())

    def test_quantiles_reject_out_of_range(self):
        sketch = MergingSketch()
        sketch.update(np.arange(10.0))
        for bad in ([0.5, 1.5], [-0.1], [float("nan")]):
            with pytest.raises(ValueError):
                sketch.quantiles(bad)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(100, 5000),
    scale=st.floats(0.1, 100, allow_nan=False),
)
def test_property_merging_sketch_rank_error(seed, size, scale):
    """Median query error stays within 3x the nominal epsilon for arbitrary
    scales and sizes (the compaction is conservative)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * scale
    sketch = MergingSketch(eps=0.02)
    sketch.update(values)
    assert rank_error(values, sketch.query(0.5), 0.5) <= 0.06


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), splits=st.integers(2, 6))
def test_property_merge_preserves_count(seed, splits):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(4000)
    parts = np.array_split(values, splits)
    sketches = []
    for part in parts:
        sk = MergingSketch(eps=0.02)
        sk.update(part)
        sketches.append(sk)
    merged = sketches[0]
    for sk in sketches[1:]:
        merged = merged.merge(sk)
    assert merged.count == values.size
    assert merged.query(0.0) == values.min()
    assert merged.query(1.0) == values.max()
