"""Candidate-split proposal tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import apply_cuts
from repro.data.matrix import CSRMatrix
from repro.sketch.proposer import (propose_candidates,
                                   propose_candidates_exact)
from repro.sketch.quantile import MergingSketch


def bin_column(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Bin indexes :func:`apply_cuts` gives one column of ``values``."""
    n = values.size
    column = CSRMatrix(np.arange(n + 1), np.zeros(n, dtype=np.int32),
                       values, 1)
    return apply_cuts(column, [cuts]).values


class TestExactProposal:
    def test_strictly_increasing(self, rng):
        values = rng.standard_normal(1000)
        cuts = propose_candidates_exact(values, 20)
        assert np.all(np.diff(cuts) > 0)
        assert cuts.size <= 19

    def test_excludes_maximum(self, rng):
        values = rng.standard_normal(500)
        cuts = propose_candidates_exact(values, 10)
        assert cuts.max() < values.max()

    def test_few_distinct_values(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
        cuts = propose_candidates_exact(values, 20)
        # only one interior cut possible: at 1.0
        np.testing.assert_array_equal(cuts, [1.0])

    def test_constant_feature_has_no_cuts(self):
        cuts = propose_candidates_exact(np.full(100, 3.5), 20)
        assert cuts.size == 0

    def test_empty_input(self):
        assert propose_candidates_exact(np.empty(0), 20).size == 0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            propose_candidates_exact(np.arange(5.0), 0)

    def test_single_candidate_means_no_cuts(self, rng):
        cuts = propose_candidates_exact(rng.standard_normal(100), 1)
        assert cuts.size == 0


class TestSketchProposal:
    def test_matches_exact_roughly(self, rng):
        values = rng.standard_normal(20_000)
        sketch = MergingSketch(eps=0.005)
        sketch.update(values)
        approx = propose_candidates(sketch, 10)
        exact = propose_candidates_exact(values, 10)
        assert approx.size == exact.size
        # each approximate cut lands within a small rank band of the exact
        ranks_a = np.searchsorted(np.sort(values), approx) / values.size
        ranks_e = np.searchsorted(np.sort(values), exact) / values.size
        assert np.max(np.abs(ranks_a - ranks_e)) < 0.03

    def test_empty_sketch(self):
        assert propose_candidates(MergingSketch(), 8).size == 0


class TestBinning:
    def test_apply_cuts_semantics(self):
        cuts = np.array([1.0, 3.0, 7.0])
        values = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0])
        bins = bin_column(values, cuts)
        # bin b holds values in (cuts[b-1], cuts[b]]
        np.testing.assert_array_equal(bins, [0, 0, 1, 1, 2, 2, 3])

    def test_split_at_bin_b_means_leq_cut(self, rng):
        values = rng.standard_normal(400)
        cuts = propose_candidates_exact(values, 12)
        bins = bin_column(values, cuts)
        for b in range(cuts.size):
            np.testing.assert_array_equal(bins <= b, values <= cuts[b])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.integers(2, 32))
def test_property_binning_consistency(seed, q):
    """Bins are within range and reproduce threshold routing exactly."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(300)
    cuts = propose_candidates_exact(values, q)
    bins = bin_column(values, cuts)
    assert bins.min() >= 0
    assert bins.max() <= cuts.size
    for b in range(cuts.size):
        np.testing.assert_array_equal(bins <= b, values <= cuts[b])
