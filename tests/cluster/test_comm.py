"""Collective communication tests: correctness of the data movement plus
the cost-model byte accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import (SPLIT_INFO_BYTES, allreduce_histograms,
                                broadcast_bytes, exchange_split_infos,
                                gather_bytes, ps_push_histograms,
                                reduce_scatter_histograms,
                                scatter_features)
from repro.cluster.network import SimulatedNetwork
from repro.config import NetworkModel
from repro.core.histogram import Histogram


def random_hists(rng, num_workers=4, num_features=6, num_bins=5,
                 gradient_dim=2):
    hists = []
    for _ in range(num_workers):
        hist = Histogram(num_features, num_bins, gradient_dim)
        hist.grad[:] = rng.standard_normal(hist.grad.shape)
        hist.hess[:] = rng.random(hist.hess.shape)
        hists.append(hist)
    return hists


@pytest.fixture
def net():
    return SimulatedNetwork(NetworkModel(bandwidth_gbps=1.0,
                                         latency_s=0.0))


class TestAllReduce:
    def test_sums_elementwise(self, rng, net):
        hists = random_hists(rng)
        total = allreduce_histograms(hists, net)
        expected = sum(h.grad for h in hists)
        np.testing.assert_allclose(total.grad, expected)

    def test_ring_cost(self, rng, net):
        hists = random_hists(rng, num_workers=4)
        size = hists[0].nbytes
        allreduce_histograms(hists, net)
        # every worker sends 2 * (W-1)/W * size
        assert net.total_bytes == int(2 * 3 / 4 * size * 4)
        assert net.total_seconds == pytest.approx(
            2 * 3 / 4 * size / net.model.bytes_per_second
        )

    def test_single_worker_free(self, rng, net):
        hists = random_hists(rng, num_workers=1)
        allreduce_histograms(hists, net)
        assert net.total_bytes == 0

    def test_empty_raises(self, net):
        with pytest.raises(ValueError):
            allreduce_histograms([], net)


class TestReduceScatter:
    def test_shards_hold_summed_slices(self, rng, net):
        hists = random_hists(rng, num_features=6)
        shards = reduce_scatter_histograms(
            hists,
            [np.array([0, 1]), np.array([2, 3]), np.array([4]),
             np.array([5])],
            net,
        )
        total = sum(h.grad for h in hists).reshape(6, 5, 2)
        np.testing.assert_allclose(
            shards[0].grad_view(), total[[0, 1]]
        )
        np.testing.assert_allclose(
            shards[2].grad_view(), total[[4]]
        )

    def test_cost_is_half_of_allreduce(self, rng):
        hists = random_hists(rng, num_workers=4)
        net_rs = SimulatedNetwork(NetworkModel(latency_s=0.0))
        reduce_scatter_histograms(
            hists, [np.array([i]) for i in range(4)], net_rs
        )
        net_ar = SimulatedNetwork(NetworkModel(latency_s=0.0))
        allreduce_histograms(hists, net_ar)
        assert net_ar.total_bytes == 2 * net_rs.total_bytes

    def test_empty_feature_shard(self, rng, net):
        hists = random_hists(rng)
        shards = reduce_scatter_histograms(
            hists, [np.arange(6), np.array([], dtype=np.int64)], net
        )
        assert np.all(shards[1].grad == 0)

    SHARDS = [np.arange(0, 2), np.arange(2, 2), np.arange(2, 5),
              np.arange(5, 6)]

    def test_pieces_are_read_only_views_of_the_aggregate(self, rng):
        total = random_hists(rng, num_workers=1)[0]
        pieces = scatter_features(total, self.SHARDS)
        for features, piece in zip(self.SHARDS, pieces):
            if features.size == 0:
                continue
            for got, parent in ((piece.grad, total.grad),
                                (piece.hess, total.hess)):
                assert np.shares_memory(got, parent)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 1.0
            assert piece.num_features == features.size

    def test_pieces_equal_the_take_path_bit_for_bit(self, rng):
        total = random_hists(rng, num_workers=1)[0]
        pieces = scatter_features(total, self.SHARDS)
        for features, piece in zip(self.SHARDS, pieces):
            if features.size == 0:
                assert piece.grad_view().shape == (1, 5, 2)
                assert not piece.grad.any() and not piece.hess.any()
                continue
            for got, parent in ((piece.grad_view(), total.grad_view()),
                                (piece.hess_view(), total.hess_view())):
                assert got.tobytes() == np.take(parent, features,
                                                axis=0).tobytes()

    def test_pieces_alias_the_fresh_sum_not_the_inputs(self, rng, net):
        hists = random_hists(rng)
        pieces = reduce_scatter_histograms(hists, self.SHARDS, net)
        for piece in pieces:
            assert not any(np.shares_memory(piece.grad, hist.grad)
                           or np.shares_memory(piece.hess, hist.hess)
                           for hist in hists)

    @pytest.mark.parametrize("features", [
        [0, 2], [3, 2], [1, 1], [5, 6], [-1, 0], [6]],
        ids=["gap", "descending", "repeated", "past-the-end", "negative",
             "out-of-range"])
    def test_a_shard_that_is_not_an_in_range_run_raises(self, rng,
                                                        features):
        total = random_hists(rng, num_workers=1)[0]
        with pytest.raises(ValueError):
            scatter_features(total, [np.arange(0, 0), np.array(features)])


class TestPSPush:
    def test_sums(self, rng, net):
        hists = random_hists(rng)
        total = ps_push_histograms(hists, net)
        np.testing.assert_allclose(total.grad,
                                   sum(h.grad for h in hists))

    def test_cost_full_size_per_worker(self, rng, net):
        hists = random_hists(rng, num_workers=4)
        size = hists[0].nbytes
        ps_push_histograms(hists, net)
        assert net.total_bytes == size * 4
        # elapsed is one full histogram per server link
        assert net.total_seconds == pytest.approx(
            size / net.model.bytes_per_second
        )


class TestSmallCollectives:
    def test_broadcast(self, net):
        seconds = broadcast_bytes(1000, 5, net)
        assert net.total_bytes == 4000
        assert seconds == net.total_seconds

    def test_broadcast_single_worker(self, net):
        assert broadcast_bytes(1000, 1, net) == 0.0
        assert net.total_bytes == 0

    def test_gather(self, net):
        gather_bytes(100, 5, net)
        assert net.total_bytes == 400

    def test_exchange_split_infos(self, net):
        exchange_split_infos(3, 4, net)
        assert net.total_bytes == 3 * SPLIT_INFO_BYTES * 3

    def test_validation(self, net):
        with pytest.raises(ValueError):
            broadcast_bytes(10, 0, net)
        with pytest.raises(ValueError):
            gather_bytes(10, 0, net)
