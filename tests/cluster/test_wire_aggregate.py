"""Accumulate-decode against the wire path it replaced.

``reference_wire`` is the parent's path (row-reduction mask, allocate-and-
scatter decode, copy-and-add sum).  The accumulate-decoding path must hand
the collective the same aggregate bit for bit, ship the same ``Encoded``
sizes, leave the ledger and the trained model unchanged, never touch the
stores' histograms, and refuse a malformed payload before it writes.
Placement, index and varint payloads fail closed the same way: a
truncated or bit-flipped one raises ``CodecPayloadError`` or decodes to
what an unbounded-int reference decoder reads from it.
"""

from __future__ import annotations

from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (ClusterConfig, TrainConfig, get_plan,
                   make_classification)
from repro.cluster.bitmap import bitmap_nbytes
from repro.cluster.codecs import (AdaptivePlacementCodec,
                                  BitmapPlacementCodec, CodecPayloadError,
                                  DeltaIndexCodec, DenseHistogramCodec,
                                  Encoded, LowPrecisionHistogramCodec,
                                  SparseHistogramCodec, get_codec_stack,
                                  varint_decode, varint_encode)
from repro.cluster.network import SimulatedNetwork
from repro.core.histogram import Histogram
from repro.core.serialize import ensemble_to_dict
from repro.data.dataset import bin_dataset
from repro.systems import strategies
from repro.systems.base import WorkerClock

from .reference_wire import (reference_aggregate, reference_decode,
                             reference_encode,
                             reference_layer_hists_over_wire,
                             reference_occupied)

#: every stack whose histograms take the codec round trip
STACKS = ("sparse", "delta", "f32", "f16")
OCCUPANCIES = (0.0, 0.05, 0.5, 0.85, 1.0)


def hist_bytes(hist: Histogram) -> bytes:
    return hist.grad.tobytes() + hist.hess.tobytes()


def worker_hist(features, bins, dim, occupancy, rng) -> Histogram:
    """Occupied slots hold values spread over seven decades, so a sum
    taken in another order differs in its last bits."""
    hist = Histogram(features, bins, dim)
    slots = features * bins
    idx = rng.choice(slots, size=int(round(occupancy * slots)),
                     replace=False)
    scale = 10.0 ** rng.integers(-3, 4, size=(idx.size, dim))
    hist.grad[idx] = rng.standard_normal((idx.size, dim)) * scale
    hist.hess[idx] = (rng.random((idx.size, dim)) + 0.01) * scale
    return hist


class _Store:
    def __init__(self, hist):
        self.hist = hist

    def get(self, node):
        return self.hist


def over_wire(stack: str, hists):
    """One node through the real ``_layer_hists_over_wire`` on a stub
    executor: what the collective is handed, and the ledger."""
    cluster = ClusterConfig(len(hists))
    ex = SimpleNamespace(cluster=cluster, codec=get_codec_stack(stack),
                         stores=[_Store(hist) for hist in hists],
                         net=SimulatedNetwork(cluster.network))
    clock = WorkerClock(len(hists))
    ((_, received),) = strategies._layer_hists_over_wire(
        ex, [0], clock, "reducescatter")
    return received, ex.net.records


# -- (i) the aggregate ------------------------------------------------------

class TestAggregateEqualsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(stack=st.sampled_from(STACKS), dim=st.sampled_from((1, 3)),
           occupancies=st.lists(st.sampled_from(OCCUPANCIES),
                                min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_sum_sizes_and_untouched_inputs(
            self, stack, dim, occupancies, seed):
        rng = np.random.default_rng(seed)
        hists = [worker_hist(6, 5, dim, occupancy, rng)
                 for occupancy in occupancies]
        before = [hist_bytes(hist) for hist in hists]
        codec = get_codec_stack(stack).histogram

        expected, shipped = reference_aggregate(codec, hists)
        aggregate, records = over_wire(stack, hists)

        assert isinstance(aggregate, Histogram)
        assert hist_bytes(aggregate) == hist_bytes(expected)
        assert aggregate.grad.dtype == np.float64
        assert all(aggregate is not hist for hist in hists)
        assert [hist_bytes(hist) for hist in hists] == before
        for hist, old in zip(hists, shipped):
            new = codec.encode(hist)
            assert (new.codec, new.nbytes, new.raw_nbytes) \
                == (old.codec, old.nbytes, old.raw_nbytes)
        if len(hists) > 1:
            (record,) = records
            share = (len(hists) - 1) / len(hists)
            assert record.nbytes == int(sum(share * enc.nbytes
                                            for enc in shipped))

    def test_sparse_and_dense_fallback_payloads_mix_in_one_sum(self):
        rng = np.random.default_rng(5)
        hists = [worker_hist(6, 5, 1, occupancy, rng)
                 for occupancy in (0.05, 1.0, 0.5, 0.85, 0.0)]
        codec = SparseHistogramCodec()
        assert [codec.encode(hist).codec for hist in hists] == [
            "sparse", "sparse/dense-fallback", "sparse",
            "sparse/dense-fallback", "sparse"]
        expected, _ = reference_aggregate(codec, hists)
        aggregate, _ = over_wire("sparse", hists)
        assert hist_bytes(aggregate) == hist_bytes(expected)

    @pytest.mark.parametrize("stack", STACKS)
    def test_decode_without_into_is_the_old_decode(self, stack):
        codec = get_codec_stack(stack).histogram
        rng = np.random.default_rng(3)
        for occupancy in OCCUPANCIES:
            hist = worker_hist(6, 5, 3, occupancy, rng)
            enc = codec.encode(hist)
            fresh = codec.decode(enc)
            assert fresh is not hist
            assert hist_bytes(fresh) == hist_bytes(reference_decode(enc))

    def test_identity_stack_is_not_aggregated(self):
        rng = np.random.default_rng(1)
        hists = [worker_hist(6, 5, 1, 0.5, rng) for _ in range(3)]
        received, _ = over_wire("none", hists)
        assert all(got is hist for got, hist in zip(received, hists))


# -- (ii) the occupancy scan ------------------------------------------------

def _special_hists(dim):
    nan = Histogram(4, 3, dim)
    nan.grad[2, dim - 1] = np.nan
    nan.hess[7, 0] = np.nan
    negative_zero = Histogram(4, 3, dim)
    negative_zero.grad[:] = -0.0
    negative_zero.hess[5, 0] = -0.0
    negative_zero.grad[9, dim - 1] = 1.5
    grad_only = Histogram(4, 3, dim)
    grad_only.grad[[1, 6], dim - 1] = (0.25, -3.0)
    hess_only = Histogram(4, 3, dim)
    hess_only.hess[[0, 11], dim - 1] = (2.0, 1e-300)
    full = Histogram(4, 3, dim)
    full.grad[:] = 1.0
    full.hess[:] = 2.0
    return {"nan": nan, "negative-zero": negative_zero,
            "grad-only": grad_only, "hess-only": hess_only,
            "all-zero": Histogram(4, 3, dim), "full": full}


class TestOccupancyScan:
    @pytest.mark.parametrize("dim", (1, 3))
    @pytest.mark.parametrize("case", ("nan", "negative-zero", "grad-only",
                                      "hess-only", "all-zero", "full"))
    def test_same_occupied_set_and_payload_as_the_row_reduction(
            self, case, dim):
        hist = _special_hists(dim)[case]
        codec = SparseHistogramCodec()
        new, old = codec.encode(hist), reference_encode(codec, hist)
        assert (new.codec, new.nbytes, new.raw_nbytes) \
            == (old.codec, old.nbytes, old.raw_nbytes)
        if new.codec == "sparse":
            assert new.payload[0].dtype == np.int32
            assert new.payload[0].tolist() \
                == reference_occupied(hist).tolist()
            for got, want in zip(new.payload[:3], old.payload[:3]):
                assert got.tobytes() == want.tobytes()
            assert new.payload[3] == old.payload[3]
        else:
            assert new.payload[0] is hist

    def test_expected_occupied_sets(self):
        occupied = {case: reference_occupied(hist).tolist()
                    for case, hist in _special_hists(3).items()}
        assert occupied["nan"] == [2, 7]
        assert occupied["negative-zero"] == [9]
        assert occupied["grad-only"] == [1, 6]
        assert occupied["hess-only"] == [0, 11]
        assert occupied["all-zero"] == []


# -- (iv) ledger and model --------------------------------------------------

class TestLedgerAndModelUnchanged:
    #: shape -> the floor the sparse stack's hist-aggregation raw / wire
    #: ratio must clear on it.  ``rcv1-like`` is the shape
    #: ``bench/comm_bench.py`` reports (1% density: a node's rows touch
    #: few of the D x q slots); 5%-dense ``small-sparse`` barely shrinks
    SPARSE_FLOOR = {"small-sparse": 1.0, "rcv1-like": 3.0}

    @pytest.fixture(scope="class", params=list(SPARSE_FLOOR))
    def workload(self, request, small_sparse):
        if request.param == "small-sparse":
            binned = bin_dataset(small_sparse, 8)
        else:
            binned = bin_dataset(
                make_classification(600, 800, density=0.01, seed=7), 16)
        return binned, self.SPARSE_FLOOR[request.param]

    @staticmethod
    def _fit(plan, stack, binned):
        config = TrainConfig(num_trees=2, num_layers=4,
                             num_candidates=binned.num_bins, codec=stack)
        system = get_plan(plan).build(config, ClusterConfig(4))
        result = system.fit(binned)
        ledger = [(r.nbytes, r.raw_nbytes, r.seconds)
                  for r in system.net.records
                  if r.kind == "hist-aggregation"]
        return ledger, ensemble_to_dict(result.ensemble)

    @pytest.mark.parametrize("stack", STACKS)
    @pytest.mark.parametrize("plan", ("qd1", "qd2", "qd2-ps"))
    def test_equal_to_the_oracle_path(self, plan, stack, workload,
                                      monkeypatch):
        binned, sparse_floor = workload
        ledger, model = self._fit(plan, stack, binned)
        monkeypatch.setattr(strategies, "_layer_hists_over_wire",
                            reference_layer_hists_over_wire)
        old_ledger, old_model = self._fit(plan, stack, binned)
        assert ledger and ledger == old_ledger
        assert model == old_model
        if stack == "sparse":
            wire = sum(nbytes for nbytes, _, _ in ledger)
            raw = sum(raw_nbytes for _, raw_nbytes, _ in ledger)
            assert raw >= sparse_floor * wire


# -- (v) fail closed --------------------------------------------------------

def _sparse_payload(dim=1):
    """A well-formed 3-entry payload of a 4 x 3 histogram."""
    idx = np.array([1, 4, 10], dtype=np.int32)
    grad = np.arange(1.0, 1.0 + 3 * dim).reshape(3, dim)
    return idx, grad, grad + 0.5, (4, 3, dim)


def _encoded(idx, grad, hess, shape) -> Encoded:
    return Encoded("sparse", 0, 0, (idx, grad, hess, shape))


def _accumulator(shape=(4, 3, 1), dtype=np.float64) -> Histogram:
    into = Histogram(*shape, dtype=dtype)
    into.grad[:] = 7.0
    into.hess[:] = 9.0
    return into


class TestFailClosed:
    def test_a_well_formed_payload_adds_into_the_accumulator(self):
        idx, grad, hess, shape = _sparse_payload()
        into = _accumulator()
        out = SparseHistogramCodec().decode(
            _encoded(idx, grad, hess, shape), into=into)
        assert out is into
        expected = np.full((12, 1), 7.0)
        expected[idx] += grad
        assert into.grad.tobytes() == expected.tobytes()
        expected = np.full((12, 1), 9.0)
        expected[idx] += hess
        assert into.hess.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("defect, bad_idx", [
        ("duplicate", np.array([1, 4, 4], dtype=np.int32)),
        ("descending", np.array([10, 4, 1], dtype=np.int32)),
        ("negative", np.array([-1, 4, 10], dtype=np.int32)),
        ("past-the-end", np.array([1, 4, 12], dtype=np.int32)),
        ("int64", np.array([1, 4, 10], dtype=np.int64)),
        ("float", np.array([1.0, 4.0, 10.0])),
        ("2-D", np.array([[1], [4], [10]], dtype=np.int32)),
    ])
    @pytest.mark.parametrize("accumulate", (True, False))
    def test_bad_indices(self, defect, bad_idx, accumulate):
        _, grad, hess, shape = _sparse_payload()
        into = _accumulator() if accumulate else None
        before = hist_bytes(into) if accumulate else None
        with pytest.raises(CodecPayloadError, match="sparse"):
            SparseHistogramCodec().decode(
                _encoded(bad_idx, grad, hess, shape), into=into)
        if accumulate:
            assert hist_bytes(into) == before

    @pytest.mark.parametrize("defect", ("short-grad", "short-hess",
                                        "wrong-width"))
    def test_ragged_values(self, defect):
        idx, grad, hess, shape = _sparse_payload()
        if defect == "short-grad":
            grad = grad[:2]
        elif defect == "short-hess":
            hess = hess[:2]
        else:
            grad, hess = np.hstack([grad, grad]), np.hstack([hess, hess])
        into = _accumulator()
        before = hist_bytes(into)
        with pytest.raises(CodecPayloadError, match="sparse"):
            SparseHistogramCodec().decode(
                _encoded(idx, grad, hess, shape), into=into)
        assert hist_bytes(into) == before

    @pytest.mark.parametrize("codec", [
        SparseHistogramCodec(), DenseHistogramCodec(),
        LowPrecisionHistogramCodec(np.float32, "f32"),
        LowPrecisionHistogramCodec(np.float16, "f16"),
    ], ids=lambda codec: codec.name)
    @pytest.mark.parametrize("occupancy", (0.05, 1.0))
    @pytest.mark.parametrize("into_shape, into_dtype", [
        ((4, 4, 1), np.float64), ((3, 3, 1), np.float64),
        ((4, 3, 3), np.float64), ((4, 3, 1), np.float32),
    ])
    def test_mismatched_accumulator(self, codec, occupancy, into_shape,
                                    into_dtype):
        hist = worker_hist(4, 3, 1, occupancy, np.random.default_rng(2))
        into = _accumulator(into_shape, into_dtype)
        before = hist_bytes(into)
        with pytest.raises(CodecPayloadError, match=codec.name):
            codec.decode(codec.encode(hist), into=into)
        assert hist_bytes(into) == before

    def test_the_error_is_a_value_error(self):
        assert issubclass(CodecPayloadError, ValueError)


# -- (vi) placement, index and varint payloads fail closed ------------------

def reference_varints(payload: bytes, count: int):
    """Python-int LEB128: the ``count`` values, or ``None`` unless the
    payload is exactly ``count`` varints of at most 10 bytes / 64 bits."""
    values, value, shift, length = [], 0, 0, 0
    for byte in payload:
        value |= (byte & 0x7F) << shift
        shift += 7
        length += 1
        if byte < 0x80:
            if length > 10 or value >= 2 ** 64:
                return None
            values.append(value)
            value, shift, length = 0, 0, 0
    if length or len(values) != count:
        return None
    return values


def reference_placement(enc: Encoded, count: int):
    """What a sound placement decoder returns, or ``None`` where it must
    refuse — computed on unbounded ints, so no index can wrap."""
    if enc.codec == "bitmap":
        (payload,) = enc.payload
        if len(payload) != (count + 7) // 8:
            return None
        return np.array([payload[i // 8] >> (7 - i % 8) & 1
                         for i in range(count)], dtype=bool)
    packed, nnz, minority_left = enc.payload
    deltas = reference_varints(packed, nnz)
    if deltas is None:
        return None
    rows = list(accumulate(deltas))
    if any(b <= a for a, b in zip(rows, rows[1:])) \
            or any(row >= count for row in rows):
        return None
    out = np.full(count, not minority_left)
    out[rows] = minority_left
    return out


MUTATIONS = ("truncate", "flip", "append")


def mutate(data: bytes, mutation: str, where: int) -> bytes:
    if mutation == "truncate" and data:
        return data[:where % len(data)]
    if mutation == "flip" and data:
        bit = where % (8 * len(data))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        return bytes(flipped)
    return data + bytes([where % 256])


def with_bytes(enc: Encoded, data: bytes) -> Encoded:
    return Encoded(enc.codec, enc.nbytes, enc.raw_nbytes,
                   (data, *enc.payload[1:]))


def sparse_placement(deltas, count=100) -> Encoded:
    packed = varint_encode(np.array(deltas, dtype=np.uint64))
    return Encoded("placement-sparse", 0, bitmap_nbytes(count),
                   (packed, len(deltas), True))


class TestPlacementAndIndexFailClosed:
    @pytest.mark.parametrize("deltas, defect", [
        ([3, 47, 2 ** 64 - 10], "not strictly increasing"),  # wraps to 40
        ([3, 0, 70], "not strictly increasing"),             # repeats 3
        ([3, 97], "outside"),                                # index 100
    ], ids=["negative-wrap", "repeated", "past-the-end"])
    def test_pinned_minority_index_defects(self, deltas, defect):
        with pytest.raises(CodecPayloadError, match=f"adaptive.*{defect}"):
            AdaptivePlacementCodec().decode(sparse_placement(deltas), 100)

    @pytest.mark.parametrize("payload, defect", [
        (b"\xff" * 10 + b"\x01", "longer than 10 bytes"),
        (b"\xff" * 9 + b"\x02", "wider than 64 bits"),
        (b"\x05\x07", "bytes past"),
        (b"\x05\x80", "bytes past"),
        (b"\x80", "bytes past"),
    ], ids=["11-byte", "65-bit", "trailing-value", "trailing-byte",
            "nothing-requested"])
    def test_pinned_varint_defects(self, payload, defect):
        count = 0 if payload == b"\x80" else 1
        with pytest.raises(CodecPayloadError, match=f"varint.*{defect}"):
            varint_decode(payload, count)

    def test_the_widest_varint_still_decodes(self):
        assert varint_decode(b"\xff" * 9 + b"\x01", 1).tolist() \
            == [2 ** 64 - 1]

    @pytest.mark.parametrize("codec", [BitmapPlacementCodec(),
                                       AdaptivePlacementCodec()],
                             ids=lambda codec: codec.name)
    @pytest.mark.parametrize("nbytes", (1, 3))
    def test_a_bitmap_of_the_wrong_length(self, codec, nbytes):
        enc = Encoded("bitmap", 2, 2, (bytes(nbytes),))
        with pytest.raises(CodecPayloadError, match=codec.name):
            codec.decode(enc, 16)

    @pytest.mark.parametrize("shift", (-1, 1))
    def test_a_delta_index_payload_of_the_wrong_count(self, shift):
        enc = DeltaIndexCodec().encode(np.repeat(np.arange(8,
                                                           dtype=np.int32),
                                                 50))
        packed, count, dtype = enc.payload
        bad = Encoded(enc.codec, enc.nbytes, enc.raw_nbytes,
                      (packed, count + shift, dtype))
        with pytest.raises(CodecPayloadError, match="varint"):
            DeltaIndexCodec().decode(bad)

    @settings(max_examples=300, deadline=None)
    @given(go_left=hnp.arrays(bool, st.integers(1, 300)),
           skew=st.integers(0, 40),
           adaptive=st.booleans(),
           mutation=st.sampled_from(MUTATIONS),
           where=st.integers(0, 2 ** 16))
    def test_mangled_placements_refuse_or_decode_soundly(
            self, go_left, skew, adaptive, mutation, where):
        if skew:
            # a skewed split makes the adaptive codec ship indices
            go_left = go_left & (np.arange(go_left.size) % skew == 0)
        codec = AdaptivePlacementCodec() if adaptive \
            else BitmapPlacementCodec()
        enc = codec.encode(go_left)
        enc = with_bytes(enc, mutate(enc.payload[0], mutation, where))
        expected = reference_placement(enc, go_left.size)
        try:
            out = codec.decode(enc, go_left.size)
        except CodecPayloadError:
            assert expected is None
            return
        assert expected is not None
        assert out.dtype == bool and out.shape == go_left.shape
        assert out.tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(steps=hnp.arrays(np.int32, st.integers(1, 200),
                            elements=st.integers(-3, 3)),
           mutation=st.sampled_from(MUTATIONS),
           where=st.integers(0, 2 ** 16))
    def test_mangled_index_payloads_refuse_or_decode_soundly(
            self, steps, mutation, where):
        values = np.cumsum(steps, dtype=np.int32)
        codec = DeltaIndexCodec()
        enc = codec.encode(values)
        assert enc.codec == "delta"
        enc = with_bytes(enc, mutate(enc.payload[0], mutation, where))
        packed, count, dtype = enc.payload
        try:
            out = codec.decode(enc)
        except CodecPayloadError:
            assert reference_varints(packed, count) is None
            return
        assert reference_varints(packed, count) is not None
        assert out.dtype == dtype and out.shape == (count,)
