"""Split finding tests: vectorized search against brute-force enumeration
and against the full-histogram reference finder, default-direction
handling, and the determinism contract."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TrainConfig
from repro.core import split as split_module
from repro.core.histogram import Histogram
from repro.core.split import (SplitInfo, accepted_split, find_best_split,
                              leaf_weight, split_gain_of)

from .reference_split import reference_find_best_split


def one_node(hist, grad_total, hess_total, *args, **kwargs):
    """The finder on the stack of one."""
    found, = find_best_split([hist], [grad_total], [hess_total], *args,
                             **kwargs)
    return found


def random_histogram(rng, num_features=4, num_bins=5, gradient_dim=1,
                     missing=True):
    """Histogram with optional extra 'missing' gradient mass."""
    hist = Histogram(num_features, num_bins, gradient_dim)
    hist.grad[:] = rng.standard_normal(hist.grad.shape)
    hist.hess[:] = rng.random(hist.hess.shape) + 0.01
    grad_total = hist.grad_view().sum(axis=(0, 1)) / num_features
    hess_total = hist.hess_view().sum(axis=(0, 1)) / num_features
    # per-feature column sums must each equal the node totals; rescale so
    # the histogram is self-consistent (each feature summarizes the node)
    gv, hv = hist.grad_view(), hist.hess_view()
    for f in range(num_features):
        gv[f] += (grad_total - gv[f].sum(axis=0)) / num_bins
        hv[f] += (hess_total - hv[f].sum(axis=0)) / num_bins + 0.01
    grad_total = gv[0].sum(axis=0)
    hess_total = hv[0].sum(axis=0)
    if missing:
        grad_total = grad_total + rng.standard_normal(gradient_dim)
        hess_total = hess_total + rng.random(gradient_dim) + 0.05
    return hist, grad_total, hess_total


def brute_force_best(hist, grad_total, hess_total, lam, gamma, bins):
    best = None
    for f in range(hist.num_features):
        for b in range(int(bins[f]) - 1):
            for default_left in (False, True):
                gain = split_gain_of(hist, grad_total, hess_total, lam,
                                     gamma, f, b, default_left)
                # skip empty children like the vectorized search
                gl = hist.hess_view()[f, : b + 1].sum(axis=0)
                if default_left:
                    gl = gl + (hess_total
                               - hist.hess_view()[f].sum(axis=0))
                gr = hess_total - gl
                if gl.sum() <= 0 or gr.sum() <= 0:
                    continue
                cand = SplitInfo(f, b, default_left, gain)
                if gain > 0 and cand.better_than(best):
                    best = cand
    return best


class TestLeafWeight:
    def test_formula(self):
        w = leaf_weight(np.array([2.0]), np.array([3.0]), 1.0)
        assert w == pytest.approx(-0.5)

    def test_vector(self):
        w = leaf_weight(np.array([1.0, -2.0]), np.array([1.0, 3.0]), 1.0)
        np.testing.assert_allclose(w, [-0.5, 0.5])


class TestFindBestSplit:
    def test_matches_brute_force(self, rng):
        hist, g, h = random_histogram(rng)
        bins = np.full(4, 5)
        split = one_node(hist, g, h, 1.0, 0.0, bins)
        ref = brute_force_best(hist, g, h, 1.0, 0.0, bins)
        assert (split is None) == (ref is None)
        if split is not None:
            assert (split.feature, split.bin, split.default_left) == \
                (ref.feature, ref.bin, ref.default_left)
            assert split.gain == pytest.approx(ref.gain)

    def test_feature_offset(self, rng):
        hist, g, h = random_histogram(rng)
        bins = np.full(4, 5)
        base = one_node(hist, g, h, 1.0, 0.0, bins)
        shifted = one_node(hist, g, h, 1.0, 0.0, bins,
                                  feature_offset=100)
        assert shifted.feature == base.feature + 100

    def test_respects_bins_per_feature(self, rng):
        hist, g, h = random_histogram(rng)
        # features with a single bin can never split
        bins = np.array([1, 1, 1, 1])
        assert one_node(hist, g, h, 1.0, 0.0, bins) is None

    def test_gamma_subtracts_from_gain(self, rng):
        hist, g, h = random_histogram(rng)
        bins = np.full(4, 5)
        s0 = one_node(hist, g, h, 1.0, 0.0, bins)
        s1 = one_node(hist, g, h, 1.0, 0.1, bins)
        if s0 is not None and s1 is not None:
            assert s1.gain == pytest.approx(s0.gain - 0.1)

    def test_gain_decreases_with_lambda(self, rng):
        hist, g, h = random_histogram(rng)
        bins = np.full(4, 5)
        gains = []
        for lam in (0.1, 1.0, 10.0):
            s = one_node(hist, g, h, lam, 0.0, bins)
            gains.append(s.gain if s is not None else 0.0)
        assert gains[0] >= gains[1] >= gains[2]

    def test_huge_gamma_gives_no_split(self, rng):
        hist, g, h = random_histogram(rng)
        bins = np.full(4, 5)
        assert one_node(hist, g, h, 1.0, 1e9, bins) is None

    def test_pure_node_has_no_split(self):
        # all gradient mass in one bin of each feature: any split gives
        # an empty child on one side or no gain
        hist = Histogram(2, 3, 1)
        hist.grad_view()[:, 0, 0] = -5.0
        hist.hess_view()[:, 0, 0] = 2.0
        g = np.array([-5.0])
        h = np.array([2.0])
        assert one_node(hist, g, h, 1.0, 0.0,
                               np.array([3, 3])) is None

    def test_missing_values_can_matter(self):
        """A node where the winning arrangement routes missing right."""
        hist = Histogram(1, 2, 1)
        hist.grad_view()[0, 0, 0] = -4.0   # bin 0: negative gradients
        hist.hess_view()[0, 0, 0] = 2.0
        hist.grad_view()[0, 1, 0] = 1.0
        hist.hess_view()[0, 1, 0] = 1.0
        # node totals include missing mass aligned with bin-1 gradients
        g = np.array([-4.0 + 1.0 + 3.0])
        h = np.array([2.0 + 1.0 + 1.5])
        split = one_node(hist, g, h, 1.0, 0.0, np.array([2]))
        assert split is not None
        assert not split.default_left

    def test_bins_length_mismatch(self, rng):
        hist, g, h = random_histogram(rng)
        with pytest.raises(ValueError):
            one_node(hist, g, h, 1.0, 0.0, np.array([5]))


class TestDeterminismContract:
    def test_sort_key_order(self):
        a = SplitInfo(2, 1, False, 1.0)
        b = SplitInfo(1, 0, False, 0.5)
        assert a.better_than(b)          # higher gain wins
        c = SplitInfo(1, 3, False, 1.0)
        assert c.better_than(a)          # tie: lower feature wins
        d = SplitInfo(1, 2, False, 1.0)
        assert d.better_than(c)          # tie: lower bin wins
        e = SplitInfo(1, 2, True, 1.0)
        assert d.better_than(e)          # tie: default-right wins
        assert a.better_than(None)

    def test_exact_tie_resolution_in_search(self):
        """Two identical features: the lower id must be chosen."""
        hist = Histogram(3, 3, 1)
        for f in (1, 2):  # feature 0 is empty/useless
            hist.grad_view()[f, 0, 0] = -3.0
            hist.hess_view()[f, 0, 0] = 1.0
            hist.grad_view()[f, 1, 0] = 3.0
            hist.hess_view()[f, 1, 0] = 1.0
        g = np.array([0.0])
        h = np.array([2.0])
        split = one_node(hist, g, h, 1.0, 0.0, np.array([3, 3, 3]))
        assert split.feature == 1
        assert split.bin == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    lam=st.floats(0.01, 10.0),
    gradient_dim=st.integers(1, 3),
)
def test_property_matches_brute_force(seed, lam, gradient_dim):
    rng = np.random.default_rng(seed)
    hist, g, h = random_histogram(rng, gradient_dim=gradient_dim)
    bins = np.full(4, 5)
    split = one_node(hist, g, h, lam, 0.0, bins)
    ref = brute_force_best(hist, g, h, lam, 0.0, bins)
    if ref is None:
        assert split is None
    else:
        assert split is not None
        assert split.gain == pytest.approx(ref.gain)
        assert (split.feature, split.bin, split.default_left) == \
            (ref.feature, ref.bin, ref.default_left)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    num_features=st.integers(1, 12),
    num_bins=st.integers(1, 8),
    gradient_dim=st.sampled_from([1, 3]),
    dtype=st.sampled_from([np.float64, np.float32]),
    occupancy=st.sampled_from([1.0, 0.5, 0.05]),
    duplicate=st.booleans(),
    lam=st.sampled_from([0.0, 0.5, 1.0]),
    gamma=st.sampled_from([0.0, 0.01, 0.5]),
    feature_offset=st.integers(0, 5),
)
def test_property_equals_reference_finder(
        seed, num_features, num_bins, gradient_dim, dtype, occupancy,
        duplicate, lam, gamma, feature_offset):
    """Every route picks the split the full-histogram reference picks —
    same feature, bin, direction and gain bits, ties and all: the stacked
    scan, and node by node (``STACKED_MAX_SLOTS = 0``) both the scan of
    every bin and, at most half occupied, the scan of bin 0 and the
    nonzero bins."""
    rng = np.random.default_rng(seed)
    hist = Histogram(num_features, num_bins, gradient_dim, dtype=dtype)
    occupied = rng.random((num_features * num_bins, 1)) < occupancy
    hist.grad[:] = rng.standard_normal(hist.grad.shape) * occupied
    hist.hess[:] = (rng.random(hist.hess.shape) + 0.01) * occupied
    if duplicate:       # equal features tie on every bin
        hist.grad_view()[-1] = hist.grad_view()[0]
        hist.hess_view()[-1] = hist.hess_view()[0]
    if rng.random() < 0.3:
        hist.grad_view()[num_features // 2] = 0.0
        hist.hess_view()[num_features // 2] = 0.0
    grad_total = hist.grad_view()[0].sum(axis=0).astype(np.float64)
    hess_total = hist.hess_view()[0].sum(axis=0).astype(np.float64)
    if rng.random() < 0.7:
        grad_total += rng.standard_normal(gradient_dim)
        hess_total += rng.random(gradient_dim)
    bins = rng.integers(1, num_bins + 1, size=num_features)
    args = (hist, grad_total, hess_total, lam, gamma, bins, feature_offset)
    with np.errstate(all="ignore"):      # lam == 0 divides by empty bins
        expected = reference_find_best_split(*args)
        assert one_node(*args) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
            assert one_node(*args) == expected


def random_stack(rng, size, num_features, num_bins, gradient_dim,
                 dtype=np.float64):
    """``size`` histograms of one shape, each full, half or sparsely
    occupied; some repeat an earlier node (ties across nodes), some a
    feature (ties within a node), some have no useful split at all."""
    hists, grads, hesses = [], [], []
    for i in range(size):
        kind = rng.integers(5)
        if kind == 0 and hists:
            j = int(rng.integers(len(hists)))
            hists.append(hists[j])
            grads.append(grads[j])
            hesses.append(hesses[j])
            continue
        hist = Histogram(num_features, num_bins, gradient_dim, dtype=dtype)
        occupied = rng.random((num_features * num_bins, 1)) < \
            rng.choice([1.0, 0.5, 0.05])
        hist.grad[:] = rng.standard_normal(hist.grad.shape) * occupied
        hist.hess[:] = (rng.random(hist.hess.shape) + 0.01) * occupied
        if kind == 1:
            hist.grad_view()[-1] = hist.grad_view()[0]
            hist.hess_view()[-1] = hist.hess_view()[0]
        grad = hist.grad_view()[0].sum(axis=0).astype(np.float64)
        hess = hist.hess_view()[0].sum(axis=0).astype(np.float64)
        if kind == 2:        # all mass in one bin: no positive gain
            hist.grad[:] = 0.0
            hist.hess[:] = 0.0
            hist.grad_view()[:, 0] = grad
            hist.hess_view()[:, 0] = hess
        elif rng.random() < 0.7:
            grad = grad + rng.standard_normal(gradient_dim)
            hess = hess + rng.random(gradient_dim)
        hists.append(hist)
        grads.append(grad)
        hesses.append(hess)
    return hists, np.array(grads), np.array(hesses)


def spy_full_scans(monkeypatch):
    """The node count of every scan of all bins (``_Search.full``)."""
    counts = []
    full = split_module._Search.full

    def spy(search, prefix, *args):
        counts.append(prefix.shape[0])
        return full(search, prefix, *args)

    monkeypatch.setattr(split_module._Search, "full", spy)
    return counts


class TestStackedFinder:
    """One call over a layer's nodes equals one call per node and the
    full-histogram reference, ties and all, on both routes: the stacked
    scan (narrow histograms) and the node-by-node one (wide)."""

    @pytest.fixture(params=["stacked", "per-node"])
    def route(self, request, monkeypatch):
        if request.param == "per-node":
            monkeypatch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
        return request.param

    def test_empty_stack(self):
        assert find_best_split([], np.empty((0, 1)), np.empty((0, 1)),
                               1.0, 0.0, np.array([3])) == []

    def test_ties_across_nodes_keep_each_nodes_own_order(self, route):
        hist = Histogram(3, 3, 1)
        for f in (1, 2):  # feature 0 is empty/useless
            hist.grad_view()[f, 0, 0] = -3.0
            hist.hess_view()[f, 0, 0] = 1.0
            hist.grad_view()[f, 1, 0] = 3.0
            hist.hess_view()[f, 1, 0] = 1.0
        g, h = np.array([[0.0]] * 3), np.array([[2.0]] * 3)
        found = find_best_split([hist] * 3, g, h, 1.0, 0.0,
                                np.array([3, 3, 3]), feature_offset=10)
        assert [(s.feature, s.bin, s.default_left) for s in found] == \
            [(11, 0, False)] * 3
        assert len({s.gain for s in found}) == 1

    @pytest.mark.parametrize("stacked", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        size=st.integers(1, 9),
        num_features=st.integers(1, 10),
        num_bins=st.integers(1, 8),
        gradient_dim=st.sampled_from([1, 3]),
        dtype=st.sampled_from([np.float64, np.float32]),
        lam=st.sampled_from([0.0, 0.5, 1.0]),
        gamma=st.sampled_from([0.0, 0.01, 0.5]),
        feature_offset=st.integers(0, 5),
    )
    def test_property_equals_one_call_per_node(
            self, stacked, seed, size, num_features, num_bins,
            gradient_dim, dtype, lam, gamma, feature_offset):
        rng = np.random.default_rng(seed)
        hists, grads, hesses = random_stack(rng, size, num_features,
                                            num_bins, gradient_dim, dtype)
        bins = rng.integers(1, num_bins + 1, size=num_features)
        args = (lam, gamma, bins, feature_offset)
        with np.errstate(all="ignore"), \
                pytest.MonkeyPatch.context() as patch:
            # lam == 0 divides by empty bins
            if not stacked:
                patch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
            found = find_best_split(hists, grads, hesses, *args)
            single = [one_node(*node, *args)
                      for node in zip(hists, grads, hesses)]
            expected = [reference_find_best_split(*node, *args)
                        for node in zip(hists, grads, hesses)]
        assert found == single == expected

    @pytest.mark.parametrize("route", ["stacked", "per-node full",
                                       "per-node compact"])
    def test_tie_across_features_and_bins_keeps_feature_order(
            self, route, monkeypatch):
        """Exactly tied best gains at (feature 1, bin 2) and (feature 2,
        bin 0): the tie order picks the lower feature although its bin
        is higher, so no route may read gains in bin-major order."""
        hist = Histogram(3, 4, 1)
        grad, hess = hist.grad_view(), hist.hess_view()
        grad[1, 2:, 0], hess[1, 2:, 0] = [-3.0, 3.0], 1.0
        grad[2, :2, 0], hess[2, :2, 0] = [-3.0, 3.0], 1.0
        if route == "per-node full":   # more than half the bins occupied
            grad[0, :, 0], hess[0, :, 0] = [-1.0, 1.0, -1.0, 1.0], 0.5
        full_scans = spy_full_scans(monkeypatch)
        if route != "stacked":
            monkeypatch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
        args = (np.array([0.0]), np.array([2.0]), 1.0, 0.0, np.full(3, 4))
        split = one_node(hist, *args)
        assert (split.feature, split.bin, split.default_left) == \
            (1, 2, False)
        assert split == reference_find_best_split(hist, *args)
        assert full_scans == ([] if route == "per-node compact" else [1])

    def test_absorbed_bin_on_the_compact_route(self, monkeypatch):
        """A nonzero bin whose add leaves the prefix unchanged (``1e20 +
        1.0 == 1e20``) ties with the bin before it, gains equal bit for
        bit; the compact scan still equals the reference."""
        assert 1e20 + 1.0 == 1e20
        hist = Histogram(8, 5, 1)
        grad, hess = hist.grad_view(), hist.hess_view()
        grad[3, :4, 0] = [1e20, 1.0, -1e20, 2.0]   # bin 1 is absorbed
        hess[3, :4, 0] = [1.0, 0.0, 1.0, 1.0]
        full_scans = spy_full_scans(monkeypatch)
        monkeypatch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
        args = (np.array([3.0]), np.array([4.0]), 1.0, 0.0, np.full(8, 5))
        split = one_node(hist, *args)
        assert split == reference_find_best_split(hist, *args)
        assert split.gain.hex() == split_module.split_gain_of(
            hist, *args[:4], split.feature, 1, split.default_left).hex()
        assert (split.feature, split.bin) == (3, 0)
        assert full_scans == []

    def test_wide_stack_mixes_compact_and_full_nodes(self, rng):
        """Past the stacking width each node takes its own route; a
        sparse node and a dense one in one call both equal the
        reference."""
        width = split_module.STACKED_MAX_SLOTS // 4 + 1
        hists, grads, hesses = [], [], []
        for occupancy in (0.02, 1.0, 0.02):
            hist = Histogram(width, 4, 1)
            occupied = rng.random((width * 4, 1)) < occupancy
            hist.grad[:] = rng.standard_normal(hist.grad.shape) * occupied
            hist.hess[:] = (rng.random(hist.hess.shape) + 0.01) * occupied
            hists.append(hist)
            grads.append(hist.grad_view()[0].sum(axis=0) + 0.5)
            hesses.append(hist.hess_view()[0].sum(axis=0) + 0.5)
        bins = np.full(width, 4)
        found = find_best_split(hists, grads, hesses, 1.0, 0.0, bins)
        assert found == [
            reference_find_best_split(*node, 1.0, 0.0, bins)
            for node in zip(hists, grads, hesses)]
        assert all(split is not None for split in found)


class TestAcceptedSplit:
    def test_small_nodes_are_not_searched_and_weak_splits_dropped(self):
        config = TrainConfig(min_node_instances=5, min_split_gain=0.5)
        searched = []

        def search(eligible):
            searched.append(list(eligible))
            return [SplitInfo(0, 0, False, gain)
                    for gain in (1.0, 0.25, 0.5)]

        found = accepted_split(config, [10, 9, 12, 3, 30], search)
        assert searched == [[0, 2, 4]]
        assert found == [SplitInfo(0, 0, False, 1.0), None, None, None,
                         SplitInfo(0, 0, False, 0.5)]

    def test_nothing_eligible_searches_nothing(self):
        def search(eligible):
            raise AssertionError("searched")

        assert accepted_split(TrainConfig(), [1, 0], search) == [None, None]
