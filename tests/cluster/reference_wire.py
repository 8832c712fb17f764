"""The histogram wire path as it stood before accumulate-decode: a per-row
``any(axis=1)`` occupancy mask, a decode that allocates a dense histogram
and scatters the payload into it, one decoded histogram per worker, and a
collective that copies the first and adds the rest.

Kept as the reference the accumulate-decoding path is compared against —
same aggregate bit for bit, same ``Encoded`` sizes and tags, same ledger.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.cluster.codecs import (HISTOGRAM_HEADER_BYTES, Encoded,
                                  HistogramCodec, SparseHistogramCodec,
                                  sparse_entry_bytes)
from repro.cluster.comm import record_collective
from repro.core.histogram import Histogram


def reference_occupied(hist: Histogram) -> np.ndarray:
    """Slots with any nonzero grad or hess component, by row reduction."""
    return np.flatnonzero(hist.grad.any(axis=1) | hist.hess.any(axis=1))


def reference_encode(codec: HistogramCodec, hist: Histogram) -> Encoded:
    """``codec.encode`` with the sparse codec's mask built the old way
    (the dense and low-precision encoders did not change)."""
    if not isinstance(codec, SparseHistogramCodec):
        return codec.encode(hist)
    raw = hist.nbytes
    occupied = reference_occupied(hist)
    sparse_nbytes = (HISTOGRAM_HEADER_BYTES
                     + occupied.size * sparse_entry_bytes(hist.gradient_dim))
    if sparse_nbytes >= raw:
        return Encoded("sparse/dense-fallback", raw, raw, (hist,))
    return Encoded(
        "sparse", sparse_nbytes, raw,
        (occupied.astype(np.int32), hist.grad[occupied].copy(),
         hist.hess[occupied].copy(),
         (hist.num_features, hist.num_bins, hist.gradient_dim)),
    )


def reference_decode(enc: Encoded) -> Histogram:
    """Allocate a dense float64 histogram and write the payload into it."""
    if enc.codec in ("dense", "sparse/dense-fallback"):
        hist = enc.payload[0]
        out = Histogram(hist.num_features, hist.num_bins,
                        hist.gradient_dim)
        out.grad[:] = hist.grad
        out.hess[:] = hist.hess
        return out
    if enc.codec == "sparse":
        idx, grad, hess, shape = enc.payload
        out = Histogram(*shape)
        out.grad[idx] = grad
        out.hess[idx] = hess
        return out
    grad, hess, shape = enc.payload         # f32 / f16
    out = Histogram(*shape)
    out.grad[:] = grad.astype(np.float64)
    out.hess[:] = hess.astype(np.float64)
    return out


def reference_sum(hists: Sequence[Histogram]) -> Histogram:
    """Copy the first, add the rest densely, in worker order."""
    total = hists[0].copy()
    for hist in hists[1:]:
        total.add_inplace(hist)
    return total


def reference_aggregate(codec: HistogramCodec,
                        hists: Sequence[Histogram],
                        ) -> Tuple[Histogram, List[Encoded]]:
    """One node's aggregate over the old wire path, plus every worker's
    encoded payload."""
    encoded = [reference_encode(codec, hist) for hist in hists]
    return reference_sum([reference_decode(enc) for enc in encoded]), encoded


def reference_layer_hists_over_wire(
    ex, nodes: Sequence[int], clock, pattern: str,
) -> Iterator[Tuple[int, List[Histogram]]]:
    """``strategies._layer_hists_over_wire`` as it was: one decoded
    histogram per worker, summed by the collective it is handed to.  The
    stores' histograms are read dense (:meth:`Histogram.to_dense`), as
    they were stored then."""
    num_workers = ex.cluster.num_workers
    codec = None if ex.codec.is_identity else ex.codec.histogram
    enc_bytes = None if codec is None else [0] * num_workers
    payload = 0
    for node in nodes:
        hists = [store.get(node).to_dense() for store in ex.stores]
        payload += hists[0].nbytes
        if codec is not None:
            for worker, hist in enumerate(hists):
                with clock.timed(worker, "codec"):
                    enc = reference_encode(codec, hist)
                enc_bytes[worker] += enc.nbytes
                with clock.timed(None, "codec"):
                    hists[worker] = reference_decode(enc)
        yield node, hists
    record_collective(ex.net, "hist-aggregation", payload, num_workers,
                      pattern, encoded_worker_bytes=enc_bytes)
