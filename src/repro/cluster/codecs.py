"""Wire-format codecs for every byte on the simulated network.

The simulator converts accounted bytes directly into simulated seconds,
so shrinking payloads is a first-class, measurable speedup — the
block-distributed GBDT argument (Vasiloudis et al., arXiv:1904.10522):
on sparse datasets most histogram bins are empty, and shipping
``(index, value)`` pairs instead of the dense buffer cuts aggregation
traffic by an order of magnitude.  DimBoost ships low-precision
histograms for a further 2-4x at bounded accuracy cost.

This module packages both ideas (plus varint/delta integer packing and
the packed-bitmap placements of :mod:`repro.cluster.bitmap`) behind one
:class:`CodecStack` that the aggregation strategies negotiate per payload
kind.  Encoding and decoding run as real numpy kernels and are measured
on the worker clock, so the compute-vs-comm trade-off the paper discusses
in Section 3 is actually paid, not assumed.

Lossless stacks (``none``, ``sparse``, ``delta``) preserve the repo's
bit-identical-model invariant: ``decode(encode(x))`` reproduces ``x``
exactly (same floats, same dtypes), so trained models match the dense
baseline bit for bit.  Lossy stacks (``f32``, ``f16``) quantize histogram
values and are opt-in only — convergence validation lives in the codec
test suite and the Figure 11 harness.

Density cutoff
--------------
A sparse histogram entry costs ``4 + 16 * C`` bytes (int32 slot index
plus one float64 grad and hess per class) against ``16 * C`` dense bytes
per slot, so sparse encoding wins exactly when the occupied-slot density
is below ``16 C / (4 + 16 C)`` (0.8 for binary, ~0.98 for wide
multiclass).  :class:`SparseHistogramCodec` measures the density of each
payload and falls back to the dense layout above the cutoff, so its
output is never larger than the dense baseline (plus one scheme byte).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.histogram import Histogram
from .bitmap import bitmap_nbytes, decode_placement, encode_placement

#: per-entry cost of the sparse histogram layout: int32 slot index plus
#: one float64 grad and one float64 hess per gradient dimension
SPARSE_INDEX_BYTES = 4
#: fixed header of an encoded histogram payload (shape + entry count)
HISTOGRAM_HEADER_BYTES = 16
#: one scheme byte disambiguates sparse vs dense placement payloads
PLACEMENT_SCHEME_BYTES = 1


def sparse_entry_bytes(gradient_dim: int) -> int:
    """Wire bytes of one occupied slot in the sparse layout."""
    return SPARSE_INDEX_BYTES + 2 * 8 * gradient_dim


def sparse_cutoff_density(gradient_dim: int) -> float:
    """Density above which the sparse layout stops paying for itself:
    ``16 C / (4 + 16 C)`` (the docstring's cutoff math)."""
    dense_slot = 2 * 8 * gradient_dim
    return dense_slot / sparse_entry_bytes(gradient_dim)


class CodecOverflowError(OverflowError):
    """A lossy codec was handed a finite value its narrow wire dtype
    cannot represent (e.g. a bin sum above 65,504 for ``f16``)."""


class CodecPayloadError(ValueError):
    """A histogram, placement, index, varint or model-delta payload is
    malformed, or a histogram does not match the ``into=`` accumulator
    it is to be added to; raised before anything is written."""


def _narrow(values: np.ndarray, dtype: np.dtype, codec: str) -> np.ndarray:
    """``values`` rounded to the narrow wire ``dtype``; fails loud when
    that turns a finite value into ``inf``, which would otherwise flow
    silently into split finding."""
    with np.errstate(over="ignore"):
        narrow = values.astype(dtype)
    finite = np.isfinite(narrow)
    if not finite.all() and np.isfinite(values[~finite]).any():
        raise CodecOverflowError(
            f"codec {codec!r}: a finite value exceeds the largest finite "
            f"{dtype.name} ({np.finfo(dtype).max:g}); use a wider codec"
        )
    return narrow


def _check_into(into: Histogram, shape: tuple, dtype, codec: str) -> None:
    """``Histogram._check_compatible``'s rule, as the typed error."""
    have = (into.num_features, into.num_bins, into.gradient_dim)
    if have != tuple(shape) or into.dtype != dtype:
        raise CodecPayloadError(
            f"codec {codec!r}: cannot accumulate a {tuple(shape)} "
            f"{np.dtype(dtype).name} payload into a {have} "
            f"{into.dtype.name} histogram")


@dataclass(frozen=True)
class Encoded:
    """One encoded payload: wire size, dense baseline, decode inputs.

    ``payload`` is codec-private decode state (numpy arrays — the *real*
    encoded representation, not just a byte count); ``nbytes`` is what
    the simulated network charges and ``raw_nbytes`` what the dense
    baseline would have charged, so the ledger can account both.
    """

    codec: str
    nbytes: int
    raw_nbytes: int
    payload: tuple

    @property
    def saved_bytes(self) -> int:
        return self.raw_nbytes - self.nbytes


# ---------------------------------------------------------------------------
# varint / zigzag integer packing (real kernels, vectorized)
# ---------------------------------------------------------------------------

def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed to unsigned so small magnitudes stay small:
    ``0, -1, 1, -2 -> 0, 1, 2, 3``."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)
            ^ -(v & np.uint64(1)).astype(np.int64))


_VARINT_THRESHOLDS = (np.uint64(1)
                      << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))


def varint_length(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length of each value (1..10), exactly."""
    v = np.asarray(values, dtype=np.uint64)
    return 1 + (v[:, None] >= _VARINT_THRESHOLDS[None, :]).sum(axis=1)


def varint_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128: 7 payload bits per byte, msb = continuation."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    lengths = varint_length(v)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    for k in range(int(lengths.max())):
        mask = lengths > k
        chunk = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = np.where(lengths[mask] > k + 1, 0x80, 0)
        out[offsets[mask] + k] = chunk.astype(np.uint8) | cont.astype(
            np.uint8)
    return out.tobytes()


def varint_decode(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`varint_encode`: the payload must be exactly
    ``count`` varints of at most 10 bytes / 64 bits."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    ends = np.flatnonzero(raw < 0x80)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if not 0 <= count <= ends.size:
        defect = f"payload holds {ends.size} varints, {count} requested"
    elif ends.size > count or (raw.size and raw[-1] >= 0x80):
        defect = f"bytes past the {count} requested varints"
    elif (lengths > 10).any():
        defect = "a varint longer than 10 bytes"
    elif (raw[ends[lengths == 10]] > 1).any():
        defect = "a varint wider than 64 bits"
    else:
        values = np.zeros(count, dtype=np.uint64)
        for k in range(int(lengths.max(initial=0))):
            mask = lengths > k
            chunk = raw[starts[mask] + k].astype(np.uint64) & np.uint64(0x7F)
            values[mask] |= chunk << np.uint64(7 * k)
        return values
    raise CodecPayloadError(f"codec 'varint': {defect}")


# ---------------------------------------------------------------------------
# histogram codecs
# ---------------------------------------------------------------------------

class HistogramCodec:
    """Encode/decode one node's gradient histogram.

    ``decode(enc)`` returns the payload as a fresh histogram;
    ``decode(enc, into=acc)`` **adds** it to ``acc`` in place and returns
    ``acc`` — the receiving end of an aggregation sums payloads as they
    arrive, a sparse one at the cost of its occupied slots.  An ``acc``
    that does not match raises :class:`CodecPayloadError`, untouched.
    """

    name: str = "abstract"
    #: whether ``decode(encode(h))`` is bit-identical to ``h``
    lossless: bool = True

    def encode(self, hist: Histogram) -> Encoded:
        raise NotImplementedError

    def decode(self, enc: Encoded,
               into: Optional[Histogram] = None) -> Histogram:
        raise NotImplementedError


class DenseHistogramCodec(HistogramCodec):
    """Identity codec: the float64 buffers ship as-is (today's wire
    format — QD1/QD2's dense all-reduce payloads)."""

    name = "dense"

    def encode(self, hist: Histogram) -> Encoded:
        return Encoded("dense", hist.nbytes, hist.nbytes,
                       (hist.to_dense(),))

    def decode(self, enc: Encoded,
               into: Optional[Histogram] = None) -> Histogram:
        hist = enc.payload[0]
        if into is not None:
            _check_into(into, (hist.num_features, hist.num_bins,
                               hist.gradient_dim), hist.dtype, enc.codec)
            return into.add_inplace(hist)
        out = Histogram(hist.num_features, hist.num_bins,
                        hist.gradient_dim)
        out.grad[:] = hist.grad
        out.hess[:] = hist.hess
        return out


class SparseHistogramCodec(HistogramCodec):
    """Zero-suppressed sparse layout with a density-cutoff dense fallback.

    Occupied slots (any nonzero grad or hess component: NaN is, ``-0.0``
    is not) ship as ``(int32 index, float64 grad[C], float64 hess[C])``;
    payloads whose density exceeds :func:`sparse_cutoff_density` fall back
    to the dense layout, so the encoded size never exceeds dense + 1
    scheme byte.  Decoding scatters into a zeroed histogram — exact zeros
    restore as exact zeros, so the round trip is bit-identical — or adds
    the occupied slots to ``into`` without materializing the empty ones.
    """

    name = "sparse"

    def encode(self, hist: Histogram) -> Encoded:
        raw = hist.nbytes
        # flat compares, column by column: ``any(axis=1)`` over an axis
        # of length C pays a reduction per slot.  A basis histogram is
        # scanned over its basis only: every other slot is zero
        mask = hist.grad[:, 0] != 0
        for column in (*hist.grad.T[1:], *hist.hess.T):
            mask |= column != 0
        occupied = np.flatnonzero(mask)
        nnz = occupied.size
        sparse_nbytes = (HISTOGRAM_HEADER_BYTES
                         + nnz * sparse_entry_bytes(hist.gradient_dim))
        if sparse_nbytes >= raw:
            return Encoded("sparse/dense-fallback", raw, raw,
                           (hist.to_dense(),))
        idx = (occupied if hist.slots is None
               else hist.slots[occupied]).astype(np.int32, copy=False)
        return Encoded(
            "sparse", sparse_nbytes, raw,
            (idx, hist.grad[occupied], hist.hess[occupied],
             (hist.num_features, hist.num_bins, hist.gradient_dim)),
        )

    def decode(self, enc: Encoded,
               into: Optional[Histogram] = None) -> Histogram:
        if enc.codec == "sparse/dense-fallback":
            return DenseHistogramCodec().decode(enc, into)
        idx, grad, hess, shape = enc.payload
        self._check_entries(idx, grad, hess, shape)
        if into is None:
            out = Histogram(*shape)
            out.grad[idx] = grad
            out.hess[idx] = hess
            return out
        _check_into(into, shape, np.float64, self.name)
        # the indices are distinct, so the fancy ``+=`` adds every entry
        into.grad[idx] += grad
        into.hess[idx] += hess
        return into

    def _check_entries(self, idx, grad, hess, shape) -> None:
        """A repeated index would drop mass under the fancy ``+=`` and a
        negative one wrap around: fail before anything is written."""
        slots, dim = shape[0] * shape[1], shape[2]
        if idx.dtype != np.int32 or idx.ndim != 1:
            defect = f"slot indices are {idx.ndim}-D {idx.dtype.name}"
        elif not grad.shape == hess.shape == (idx.size, dim):
            defect = (f"{idx.size} slot indices with grad {grad.shape} "
                      f"and hess {hess.shape}")
        elif (idx[1:] <= idx[:-1]).any():
            defect = "slot indices are not strictly increasing"
        elif idx.size and not 0 <= idx[0] <= idx[-1] < slots:
            defect = f"slot index outside [0, {slots})"
        else:
            return
        raise CodecPayloadError(f"codec {self.name!r}: {defect}")


class LowPrecisionHistogramCodec(HistogramCodec):
    """Lossy quantization to float32/float16 (the DimBoost idea).

    Values round to the narrow dtype on encode and widen back to float64
    on decode, so split decisions downstream see the quantization error —
    the convergence cost is real and measured, not modeled.
    """

    lossless = False

    def __init__(self, dtype, name: str) -> None:
        self.dtype = np.dtype(dtype)
        self.name = name

    def encode(self, hist: Histogram) -> Encoded:
        raw = hist.nbytes
        hist = hist.to_dense()
        grad = _narrow(hist.grad, self.dtype, self.name)
        hess = _narrow(hist.hess, self.dtype, self.name)
        nbytes = (HISTOGRAM_HEADER_BYTES + grad.nbytes + hess.nbytes)
        return Encoded(
            self.name, nbytes, raw,
            (grad, hess,
             (hist.num_features, hist.num_bins, hist.gradient_dim)),
        )

    def decode(self, enc: Encoded,
               into: Optional[Histogram] = None) -> Histogram:
        grad, hess, shape = enc.payload
        if into is not None:
            _check_into(into, shape, np.float64, self.name)
            # widening is exact, so the ufunc's own cast is the decode
            into.grad += grad
            into.hess += hess
            return into
        out = Histogram(*shape)
        out.grad[:] = grad.astype(np.float64)
        out.hess[:] = hess.astype(np.float64)
        return out


# ---------------------------------------------------------------------------
# placement codec (bitmap vs varint-packed minority indices)
# ---------------------------------------------------------------------------

def _decode_bitmap(payload: bytes, count: int, codec: str) -> np.ndarray:
    """:func:`decode_placement`, failing with the typed error."""
    try:
        return decode_placement(payload, count)
    except ValueError as err:
        raise CodecPayloadError(f"codec {codec!r}: {err}") from None


class PlacementCodec:
    """Encode one node's ``go_left`` boolean placement array."""

    name: str = "abstract"
    lossless = True

    def encode(self, go_left: np.ndarray) -> Encoded:
        raise NotImplementedError

    def decode(self, enc: Encoded, count: int) -> np.ndarray:
        raise NotImplementedError


class BitmapPlacementCodec(PlacementCodec):
    """Pure packed bitmap (Section 4.2.2) — today's wire format."""

    name = "bitmap"

    def encode(self, go_left: np.ndarray) -> Encoded:
        nbytes = bitmap_nbytes(len(go_left))
        return Encoded("bitmap", nbytes, nbytes,
                       (encode_placement(go_left),))

    def decode(self, enc: Encoded, count: int) -> np.ndarray:
        return _decode_bitmap(enc.payload[0], count, self.name)


class AdaptivePlacementCodec(PlacementCodec):
    """Bitmap or delta-varint minority indices, whichever is smaller.

    Splits are often skewed (a node sends most instances one way); then
    shipping the minority side's instance indices — delta-encoded, so
    consecutive indices varint to one byte — beats one bit per instance.
    The decoder tells the schemes apart by size: a sparse payload is only
    chosen when strictly smaller than the bitmap, so the encoded size
    never exceeds the Section 3.1.3 ``ceil(N/8)`` baseline.
    """

    name = "adaptive"

    def encode(self, go_left: np.ndarray) -> Encoded:
        go_left = np.asarray(go_left, dtype=bool)
        raw = bitmap_nbytes(go_left.size)
        left = int(go_left.sum())
        minority_left = left * 2 <= go_left.size
        minority = np.flatnonzero(go_left if minority_left else ~go_left)
        deltas = np.diff(minority, prepend=0)
        packed = varint_encode(deltas)
        sparse_nbytes = PLACEMENT_SCHEME_BYTES + len(packed)
        if sparse_nbytes < raw:
            return Encoded("placement-sparse", sparse_nbytes, raw,
                           (packed, minority.size, minority_left))
        return Encoded("bitmap", raw, raw, (encode_placement(go_left),))

    def decode(self, enc: Encoded, count: int) -> np.ndarray:
        if enc.codec == "bitmap":
            return _decode_bitmap(enc.payload[0], count, self.name)
        packed, nnz, minority_left = enc.payload
        # a delta past 2**63 wraps the sum; the order check catches it
        minority = np.cumsum(varint_decode(packed, nnz).astype(np.int64))
        if (minority[1:] <= minority[:-1]).any():
            defect = "minority indices are not strictly increasing"
        elif minority.size and not 0 <= minority[0] <= minority[-1] < count:
            defect = f"minority index outside [0, {count})"
        else:
            out = np.full(count, not minority_left, dtype=bool)
            out[minority] = minority_left
            return out
        raise CodecPayloadError(f"codec {self.name!r}: {defect}")


# ---------------------------------------------------------------------------
# integer index codec (checkpoint / node-to-instance payloads)
# ---------------------------------------------------------------------------

class IndexCodec:
    """Encode an integer array (e.g. ``node_of_instance`` state)."""

    name: str = "abstract"
    lossless = True

    def encode(self, values: np.ndarray) -> Encoded:
        raise NotImplementedError

    def decode(self, enc: Encoded) -> np.ndarray:
        raise NotImplementedError


class RawIndexCodec(IndexCodec):
    """Identity: the array's own bytes."""

    name = "raw"

    def encode(self, values: np.ndarray) -> Encoded:
        return Encoded("raw", values.nbytes, values.nbytes,
                       (values.copy(),))

    def decode(self, enc: Encoded) -> np.ndarray:
        return enc.payload[0].copy()


class DeltaIndexCodec(IndexCodec):
    """Zigzag-delta varint: spatially correlated ids (neighboring
    instances usually share a tree node) delta down to mostly-zero and
    varint to about one byte each, ~4x under the int32 baseline."""

    name = "delta"

    def encode(self, values: np.ndarray) -> Encoded:
        values = np.asarray(values)
        raw = values.nbytes
        deltas = np.diff(values.astype(np.int64), prepend=np.int64(0))
        packed = varint_encode(zigzag_encode(deltas))
        if len(packed) >= raw:
            return Encoded("raw", raw, raw, (values.copy(),))
        return Encoded("delta", len(packed), raw,
                       (packed, values.size, values.dtype))

    def decode(self, enc: Encoded) -> np.ndarray:
        if enc.codec == "raw":
            return enc.payload[0].copy()
        packed, count, dtype = enc.payload
        deltas = zigzag_decode(varint_decode(packed, count))
        return np.cumsum(deltas).astype(dtype)


# ---------------------------------------------------------------------------
# model-version delta codec (deploy:model rollouts)
# ---------------------------------------------------------------------------

def encode_model_delta(prev_payload: dict,
                       new_payload: dict) -> Optional[dict]:
    """Delta between two serialized-ensemble payload dicts.

    Boosted ensembles are append-mostly: successive versions usually
    share a tree prefix, so a rollout only needs the appended suffix plus
    the scalar metadata.  Returns ``None`` when the versions share no
    usable prefix (changed metadata or rewritten trees) — callers fall
    back to a full-payload deploy.  The delta is exact:
    :func:`apply_model_delta` reconstructs ``new_payload`` verbatim.
    """
    prev_trees = prev_payload.get("trees", [])
    new_trees = new_payload.get("trees", [])
    meta_keys = set(prev_payload) | set(new_payload)
    meta_keys.discard("trees")
    if any(prev_payload.get(k) != new_payload.get(k) for k in meta_keys):
        return None
    prefix = 0
    for old, new in zip(prev_trees, new_trees):
        if old != new:
            break
        prefix += 1
    if prefix == 0 and prev_trees:
        return None
    return {
        "delta_format": 1,
        "base_trees": prefix,
        "dropped_trees": len(prev_trees) - prefix,
        "trees": new_trees[prefix:],
    }


def _is_count(value) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def apply_model_delta(prev_payload: dict, delta: dict) -> dict:
    """Inverse of :func:`encode_model_delta`: exact reconstruction.

    Fails closed: a delta that is not a well-formed tree-suffix edit of
    ``prev_payload`` raises :class:`CodecPayloadError` naming the defect
    instead of building some other model."""
    if not isinstance(delta, dict) or delta.get("delta_format") != 1:
        raise CodecPayloadError(f"unknown delta format: {delta!r}")
    missing = [key for key in ("base_trees", "dropped_trees", "trees")
               if key not in delta]
    if missing:
        raise CodecPayloadError(f"model delta lacks {', '.join(missing)}")
    base, dropped, trees = (delta["base_trees"], delta["dropped_trees"],
                            delta["trees"])
    prev_trees = prev_payload.get("trees", [])
    if not _is_count(base) or base < 0:
        raise CodecPayloadError(
            f"model delta base_trees must be a non-negative int, got "
            f"{base!r}")
    if base > len(prev_trees):
        raise CodecPayloadError(
            f"delta needs {base} base trees, predecessor has "
            f"{len(prev_trees)}")
    if not _is_count(dropped) or dropped != len(prev_trees) - base:
        raise CodecPayloadError(
            f"model delta dropped_trees {dropped!r} != {len(prev_trees)} "
            f"predecessor trees - {base} base trees")
    if not isinstance(trees, list):
        raise CodecPayloadError(
            f"model delta trees must be a list, got {type(trees).__name__}")
    out = {k: v for k, v in prev_payload.items() if k != "trees"}
    out["trees"] = list(prev_trees[:base]) + trees
    return out


# ---------------------------------------------------------------------------
# the codec stack: one codec per payload kind, negotiated by name
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecStack:
    """What each payload kind ships as, for one ``--codec`` choice.

    Aggregation strategies negotiate against this: histogram collectives
    use :attr:`histogram`, placement broadcasts :attr:`placement`,
    checkpoint/index payloads :attr:`index`.  ``is_identity`` marks the
    ``none`` stack, which must take the exact pre-codec code paths so the
    default wire accounting stays bit-identical to the seed.
    """

    name: str
    lossless: bool
    histogram: HistogramCodec
    placement: PlacementCodec
    index: IndexCodec

    @property
    def is_identity(self) -> bool:
        return self.name == "none"


def _build_stacks() -> Dict[str, CodecStack]:
    dense = DenseHistogramCodec()
    sparse = SparseHistogramCodec()
    bitmap = BitmapPlacementCodec()
    adaptive = AdaptivePlacementCodec()
    raw = RawIndexCodec()
    delta = DeltaIndexCodec()
    return {
        "none": CodecStack("none", True, dense, bitmap, raw),
        "sparse": CodecStack("sparse", True, sparse, adaptive, delta),
        "delta": CodecStack("delta", True, dense, adaptive, delta),
        "f32": CodecStack(
            "f32", False,
            LowPrecisionHistogramCodec(np.float32, "f32"), adaptive,
            delta),
        "f16": CodecStack(
            "f16", False,
            LowPrecisionHistogramCodec(np.float16, "f16"), adaptive,
            delta),
    }


#: registered codec stacks, by ``--codec`` name
CODEC_STACKS: Dict[str, CodecStack] = _build_stacks()


def codec_names() -> Tuple[str, ...]:
    return tuple(CODEC_STACKS)


def get_codec_stack(name: str) -> CodecStack:
    """Resolve a ``--codec`` name (case-insensitive; '' means none)."""
    canonical = (name or "none").lower()
    try:
        return CODEC_STACKS[canonical]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; known: "
            f"{', '.join(sorted(CODEC_STACKS))}"
        ) from None
