"""Communication collectives with exact cost accounting.

Each helper physically performs the data movement (in process) and charges
the :class:`~repro.cluster.network.SimulatedNetwork` with the bytes and the
simulated wall time of the collective, using the standard cost
decompositions [36 in the paper]:

* **ring all-reduce** — every worker sends ``2 * (W-1)/W * size`` bytes;
  elapsed time is that amount over the per-link bandwidth.  Used by QD1
  (XGBoost-style histogram aggregation).
* **reduce-scatter** — every worker sends ``(W-1)/W * size`` bytes and ends
  up owning one shard of the reduction.  Used by QD2 (LightGBM-style).
* **parameter-server push** — every worker pushes its full payload, sharded
  across ``W`` servers in parallel; the per-server receive bottleneck is
  ``size / W * W = size`` bytes per round but spread over ``W`` links, so
  elapsed time is ``size / W`` over one link times the congestion factor 1.
  Used by the DimBoost flavour of QD2.
* **broadcast / gather** — flat-tree models for the small split metadata
  and the instance-placement bitmaps of the vertical quadrants.

All byte counts use the paper's conventions: 8-byte doubles for histogram
bins, bitmap placements at one bit per instance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.histogram import Histogram
from .network import SimulatedNetwork

#: serialized size of one SplitInfo (feature id, bin, default flag, gain)
SPLIT_INFO_BYTES = 4 + 4 + 1 + 8


class Collective:
    """Cost decomposition of one collective pattern [36].

    A pattern knows how many payload bytes each worker puts on the wire
    and how many latency rounds the collective takes; the simulated wall
    time follows from the network model.  The registered patterns back
    :func:`record_collective`, which the aggregation strategies of
    :mod:`repro.systems.strategies` use to charge a layer's histogram
    traffic in a single batched operation.
    """

    pattern: str = "abstract"

    def per_worker_bytes(self, payload_bytes: int,
                         num_workers: int) -> float:
        """Bytes each worker sends for ``payload_bytes`` of payload."""
        raise NotImplementedError

    def latency_rounds(self, num_workers: int) -> int:
        """Sequential message rounds (each paying one latency)."""
        raise NotImplementedError

    def seconds(self, payload_bytes: int, num_workers: int,
                model) -> float:
        return (
            self.per_worker_bytes(payload_bytes, num_workers)
            / model.bytes_per_second
            + self.latency_rounds(num_workers) * model.latency_s
        )


class RingAllReduce(Collective):
    """Ring all-reduce: each worker sends ``2 (W-1)/W`` of the payload
    and every worker ends up with the full reduction (QD1)."""

    pattern = "allreduce"

    def per_worker_bytes(self, payload_bytes, num_workers):
        return 2 * (num_workers - 1) / num_workers * payload_bytes

    def latency_rounds(self, num_workers):
        return 2 * (num_workers - 1)


class RingReduceScatter(Collective):
    """Ring reduce-scatter: the all-reduce's first half — ``(W-1)/W`` of
    the payload per worker, each owning one shard of the result (QD2)."""

    pattern = "reducescatter"

    def per_worker_bytes(self, payload_bytes, num_workers):
        return (num_workers - 1) / num_workers * payload_bytes

    def latency_rounds(self, num_workers):
        return num_workers - 1


class ParameterServerPush(Collective):
    """Parameter-server push: the full payload per worker, range-sharded
    over ``W`` servers in parallel (the DimBoost flavour of QD2)."""

    pattern = "ps"

    def per_worker_bytes(self, payload_bytes, num_workers):
        return payload_bytes

    def latency_rounds(self, num_workers):
        return num_workers


#: registered collective cost models, by pattern name
COLLECTIVES = {
    coll.pattern: coll
    for coll in (RingAllReduce(), RingReduceScatter(),
                 ParameterServerPush())
}


def record_collective(
    net: SimulatedNetwork,
    kind: str,
    payload_bytes: int,
    num_workers: int,
    pattern: str,
    encoded_worker_bytes: Optional[Sequence[int]] = None,
) -> float:
    """Charge one collective operation over ``payload_bytes`` of payload.

    Real systems batch all histograms of a tree layer into a single
    collective, so latency is paid once per layer, not once per node —
    callers accumulate a layer's payload and charge it here.  ``pattern``
    names a :data:`COLLECTIVES` cost model (``allreduce``,
    ``reducescatter`` or ``ps``).

    When a codec compressed the payload, ``encoded_worker_bytes`` gives
    each worker's encoded size for the same logical payload.  Worker
    ``w`` then puts ``per_worker_bytes(e_w, W)`` on the wire, elapsed
    time follows the *largest* encoded payload (a collective finishes
    with its slowest participant), and ``payload_bytes`` — the dense
    baseline — is accounted as the operation's raw size so the
    ``codec:`` ledger dimension can report the saving.  Without it the
    accounting is byte- and float-identical to the pre-codec ledger.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    collective = COLLECTIVES.get(pattern)
    if collective is None:
        raise ValueError(f"unknown collective pattern: {pattern!r}")
    if num_workers == 1 or payload_bytes == 0:
        return 0.0
    per_worker = collective.per_worker_bytes(payload_bytes, num_workers)
    if encoded_worker_bytes is None:
        seconds = collective.seconds(payload_bytes, num_workers,
                                     net.model)
        net.record(kind, int(per_worker * num_workers), seconds)
        return seconds
    if len(encoded_worker_bytes) != num_workers:
        raise ValueError(
            f"need one encoded size per worker: got "
            f"{len(encoded_worker_bytes)} for {num_workers} workers"
        )
    wire = int(sum(
        collective.per_worker_bytes(enc, num_workers)
        for enc in encoded_worker_bytes
    ))
    raw = int(per_worker * num_workers)
    seconds = collective.seconds(max(encoded_worker_bytes),
                                 num_workers, net.model)
    net.record(kind, wire, seconds, raw_nbytes=max(raw, wire))
    return seconds


def _sum_histograms(hists: Union[Histogram, Sequence[Histogram]],
                    what: str) -> Histogram:
    """Element-wise sum in worker order (the order fixes the floats).  A
    single :class:`Histogram` is a sum the receiving end already took, in
    that order, while decoding (``HistogramCodec.decode(enc, into=)``):
    it is handed back as it is, not copied again."""
    if isinstance(hists, Histogram):
        return hists
    if not hists:
        raise ValueError(f"{what} requires at least one histogram")
    total = hists[0].copy()
    for hist in hists[1:]:
        total.add_inplace(hist)
    return total


def scatter_features(total: Histogram,
                     feature_shards: Sequence[np.ndarray],
                     ) -> List[Histogram]:
    """Slice ``total`` by feature: piece ``w`` holds the features in
    ``feature_shards[w]`` (a contiguous ascending range, else this
    raises), renumbered from 0, as a read-only view of ``total`` — the
    fresh aggregate, never a store's histogram.  An empty shard gets a
    zero one-feature piece."""
    shards: List[Histogram] = []
    for features in feature_shards:
        features = np.asarray(features, dtype=np.int64)
        if features.size == 0:
            shards.append(Histogram(1, total.num_bins, total.gradient_dim,
                                    dtype=total.dtype))
            continue
        lo = int(features[0])
        if not np.array_equal(features, np.arange(lo, lo + features.size)):
            raise ValueError("a feature shard must be a contiguous "
                             "ascending range of feature ids")
        shards.append(total.feature_view(lo, lo + features.size))
    return shards


def allreduce_histograms(
    hists: Union[Histogram, Sequence[Histogram]],
) -> Histogram:
    """Element-wise sum of per-worker histograms, result on every worker.

    Data movement only: the caller charges the layer's traffic through
    :func:`record_collective`.  Like the two collectives below it also
    takes the one histogram an accumulate-decoding receiver already
    summed.
    """
    return _sum_histograms(hists, "allreduce")


def reduce_scatter_histograms(
    hists: Union[Histogram, Sequence[Histogram]],
    feature_shards: Sequence[np.ndarray],
) -> List[Histogram]:
    """Sum per-worker histograms; worker ``w`` receives the features in
    ``feature_shards[w]`` of the sum (renumbered from 0).  Data movement
    only, like :func:`allreduce_histograms`."""
    total = _sum_histograms(hists, "reduce-scatter")
    return scatter_features(total, feature_shards)


def ps_push_histograms(
    hists: Union[Histogram, Sequence[Histogram]],
) -> Histogram:
    """Parameter-server aggregation (DimBoost flavour).  Data movement
    only, like :func:`allreduce_histograms`."""
    return _sum_histograms(hists, "ps push")


def broadcast_bytes(
    nbytes: int, num_workers: int, net: SimulatedNetwork,
    kind: str = "broadcast",
    raw_nbytes: Optional[int] = None,
) -> float:
    """Flat-tree broadcast from one owner to the other ``W - 1`` workers.

    ``raw_nbytes`` is the per-receiver dense baseline when ``nbytes``
    is an encoded payload (see ``SimulatedNetwork.record``).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    receivers = num_workers - 1
    if receivers == 0 or nbytes == 0:
        return 0.0
    seconds = (
        receivers * nbytes / net.model.bytes_per_second
        + net.model.latency_s
    )
    net.record(kind, receivers * nbytes, seconds,
               None if raw_nbytes is None else receivers * raw_nbytes)
    return seconds


def gather_bytes(
    nbytes_each: int, num_workers: int, net: SimulatedNetwork,
    kind: str = "gather",
) -> float:
    """Master gathers ``nbytes_each`` from every other worker."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    senders = num_workers - 1
    if senders == 0 or nbytes_each == 0:
        return 0.0
    seconds = (
        senders * nbytes_each / net.model.bytes_per_second
        + net.model.latency_s
    )
    net.record(kind, senders * nbytes_each, seconds)
    return seconds


def exchange_split_infos(
    num_candidates: int, num_workers: int, net: SimulatedNetwork,
    kind: str = "split-exchange",
) -> float:
    """Account the exchange of ``num_candidates`` local best splits."""
    nbytes = num_candidates * SPLIT_INFO_BYTES
    if num_workers <= 1 or nbytes == 0:
        return 0.0
    seconds = (
        nbytes * (num_workers - 1) / net.model.bytes_per_second
        + net.model.latency_s
    )
    net.record(kind, nbytes * (num_workers - 1), seconds)
    return seconds
