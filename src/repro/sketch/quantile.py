"""Quantile sketches for candidate-split proposal.

Step 1 of the horizontal-to-vertical transformation (Section 4.2.1, Figure 8)
has each worker build one quantile sketch per feature; the local sketches of
one feature are then merged into a global sketch from which candidate splits
are derived.  We provide two mergeable sketches:

* :class:`GKSketch` — the classic Greenwald-Khanna summary [15 in the paper].
  Exact epsilon guarantees, one-at-a-time insertion; used as the reference
  implementation and on small data.
* :class:`MergingSketch` — a numpy-vectorized weighted summary that buffers
  batches and compacts to a bounded number of weighted points.  It is the
  workhorse of the transformation pipeline: orders of magnitude faster in
  pure Python, with rank error empirically well inside the requested epsilon
  (validated by property-based tests).

Both support ``update``, ``merge`` and ``query`` (rank -> value), and report
``serialized_nbytes`` so the cluster simulator can account sketch traffic.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np


class GKSketch:
    """Greenwald-Khanna epsilon-approximate quantile summary.

    The summary is a sorted list of tuples ``(v, g, delta)`` where ``g`` is
    the gap in minimum rank to the previous tuple and ``delta`` bounds the
    uncertainty.  The invariant ``max(g + delta) <= 2 * eps * n`` guarantees
    every rank query is answered within ``eps * n``.
    """

    def __init__(self, eps: float = 0.005) -> None:
        if not 0 < eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = eps
        self._tuples: List[Tuple[float, int, int]] = []
        self._count = 0
        self._inserts_since_compress = 0

    # -- updates -----------------------------------------------------------

    def insert(self, value: float) -> None:
        """Insert a single observation."""
        value = float(value)
        threshold = math.floor(2 * self.eps * self._count)
        keys = [t[0] for t in self._tuples]
        pos = bisect.bisect_left(keys, value)
        if pos == 0 or pos == len(self._tuples):
            delta = 0  # new minimum or maximum is always exact
        else:
            delta = max(threshold - 1, 0)
        self._tuples.insert(pos, (value, 1, delta))
        self._count += 1
        self._inserts_since_compress += 1
        if self._inserts_since_compress >= max(int(1.0 / (2 * self.eps)), 1):
            self.compress()

    def update(self, values: Iterable[float]) -> None:
        for v in values:
            self.insert(v)

    def compress(self) -> None:
        """Merge adjacent tuples while the GK invariant allows it."""
        self._inserts_since_compress = 0
        if len(self._tuples) < 3:
            return
        threshold = math.floor(2 * self.eps * self._count)
        merged: List[Tuple[float, int, int]] = [self._tuples[0]]
        # Never merge into the last tuple: maximum must stay exact.
        for i in range(1, len(self._tuples) - 1):
            v, g, delta = self._tuples[i]
            pv, pg, pdelta = merged[-1]
            if len(merged) > 1 and pg + g + delta <= threshold:
                merged[-1] = (v, pg + g, delta)
            else:
                merged.append((v, g, delta))
        merged.append(self._tuples[-1])
        self._tuples = merged

    def merge(self, other: "GKSketch") -> "GKSketch":
        """Combine two summaries; the result has error ``eps1 + eps2``."""
        result = GKSketch(eps=self.eps + other.eps)
        result._count = self._count + other._count
        combined = sorted(self._tuples + other._tuples, key=lambda t: t[0])
        result._tuples = combined
        result.compress()
        return result

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def size(self) -> int:
        """Number of stored tuples."""
        return len(self._tuples)

    @property
    def serialized_nbytes(self) -> int:
        """8-byte value + 4-byte g + 4-byte delta per tuple."""
        return 16 * len(self._tuples)

    def query(self, quantile: float) -> float:
        """Value whose rank is within ``eps * n`` of ``quantile * n``."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self._tuples:
            raise ValueError("cannot query an empty sketch")
        if quantile <= 0.0:
            return self._tuples[0][0]
        if quantile >= 1.0:
            return self._tuples[-1][0]
        target = quantile * self._count
        budget = self.eps * self._count
        rmin = 0
        prev = self._tuples[0][0]
        for v, g, delta in self._tuples:
            rmin += g
            if rmin + delta > target + budget:
                return prev
            prev = v
        return self._tuples[-1][0]

    def quantiles(self, probs: Sequence[float]) -> np.ndarray:
        return np.array([self.query(p) for p in probs])


#: rank accuracy every binning path sketches at (``bin_dataset``'s
#: sketch method, the horizontal-to-vertical transform, weighted
#: proposals)
SKETCH_EPS = 0.005


class MergingSketch:
    """Vectorized mergeable weighted quantile summary.

    Observations accumulate in a buffer; when the buffer exceeds
    ``buffer_size`` it is folded into a compact summary of at most
    ``max_summary`` weighted points placed at evenly spaced weighted ranks.
    Merging concatenates summaries and re-compacts.
    """

    def __init__(self, eps: float = SKETCH_EPS,
                 buffer_size: int = 8192) -> None:
        if not 0 < eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = eps
        self.max_summary = max(int(math.ceil(2.0 / eps)), 8)
        self.buffer_size = buffer_size
        self._buffer: List[Tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._summary_values = np.empty(0, dtype=np.float64)
        self._summary_weights = np.empty(0, dtype=np.float64)
        self._count = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- updates -----------------------------------------------------------

    def update(self, values: np.ndarray,
               weights: np.ndarray = None) -> None:
        """Fold a batch of observations into the sketch.

        ``weights`` enables *weighted* quantiles — e.g. the
        hessian-weighted candidate proposal of XGBoost, where each value
        counts with its second-order gradient.  Omitted weights default
        to 1 per observation.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if weights is None:
            weights = np.ones(values.size)
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.size != values.size:
                raise ValueError("weights must align with values")
            if np.any(weights < 0):
                raise ValueError("weights must be >= 0")
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self._count += float(weights.sum())
        self._buffer.append((values, weights))
        self._buffered += values.size
        if self._buffered >= self.buffer_size:
            self._fold_buffer()

    def _fold_buffer(self) -> None:
        if not self._buffer:
            return
        batch_values = np.concatenate([v for v, _ in self._buffer])
        batch_weights = np.concatenate([w for _, w in self._buffer])
        self._buffer = []
        self._buffered = 0
        values = np.concatenate([self._summary_values, batch_values])
        weights = np.concatenate(
            [self._summary_weights, batch_weights]
        )
        self._summary_values, self._summary_weights = _compact(
            values, weights, self.max_summary
        )

    def merge(self, other: "MergingSketch") -> "MergingSketch":
        result = MergingSketch(eps=min(self.eps, other.eps),
                               buffer_size=self.buffer_size)
        self._fold_buffer()
        other._fold_buffer()
        result._count = self._count + other._count
        result._min = min(self._min, other._min)
        result._max = max(self._max, other._max)
        values = np.concatenate(
            [self._summary_values, other._summary_values]
        )
        weights = np.concatenate(
            [self._summary_weights, other._summary_weights]
        )
        result._summary_values, result._summary_weights = _compact(
            values, weights, result.max_summary
        )
        return result

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> float:
        return self._count

    @property
    def size(self) -> int:
        return self._summary_values.size + self._buffered

    @property
    def serialized_nbytes(self) -> int:
        """8-byte value + 8-byte weight per summary point."""
        self._fold_buffer()
        return 16 * self._summary_values.size

    def query(self, quantile: float) -> float:
        return float(self.quantiles((quantile,))[0])

    def quantiles(self, probs: Sequence[float]) -> np.ndarray:
        """Values at the weighted ranks ``probs * count``, all from one
        fold and one cumulative sum; ``0`` and ``1`` answer the exact
        minimum and maximum."""
        probs = np.asarray(probs, dtype=np.float64)
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError(f"quantiles must be in [0, 1], got {probs}")
        if self._count == 0:
            raise ValueError("cannot query an empty sketch")
        self._fold_buffer()
        cum = np.cumsum(self._summary_weights)
        idx = np.searchsorted(cum, probs * self._count, side="left")
        idx = np.minimum(idx, self._summary_values.size - 1)
        values = self._summary_values[idx]
        values[probs <= 0.0] = self._min
        values[probs >= 1.0] = self._max
        return values


def _compact(
    values: np.ndarray, weights: np.ndarray, max_points: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce a weighted point set to at most ``max_points`` points.

    Points are kept at evenly spaced weighted ranks; the weight between two
    kept points is attributed to the right one, preserving total weight and
    keeping every answer within one stride of the true weighted rank.
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    if values.size <= max_points:
        return values, weights
    cum = np.cumsum(weights)
    total = cum[-1]
    targets = np.linspace(total / max_points, total, max_points)
    idx = np.searchsorted(cum, targets, side="left")
    idx = np.minimum(idx, values.size - 1)
    idx = np.unique(idx)
    if idx[-1] != values.size - 1:
        idx = np.append(idx, values.size - 1)  # keep the maximum exact
    kept_values = values[idx]
    boundaries = np.concatenate(([0.0], cum[idx]))
    kept_weights = np.diff(boundaries)
    return kept_values, kept_weights
