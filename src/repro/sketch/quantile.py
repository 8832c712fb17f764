"""Mergeable quantile sketch for candidate-split proposal.

Step 1 of the horizontal-to-vertical transformation (Section 4.2.1, Figure 8)
has each worker build one quantile sketch per feature; the local sketches of
one feature are then merged into a global sketch from which candidate splits
are derived.  :class:`MergingSketch` is a numpy-vectorized summary that
buffers batches and compacts to a bounded number of weighted points — orders
of magnitude faster in pure Python than one-at-a-time Greenwald-Khanna
insertion, with rank error empirically well inside the requested epsilon
(validated by property-based tests).

It supports ``update``, ``merge`` and ``query`` (rank -> value), and reports
``serialized_nbytes`` so the cluster simulator can account sketch traffic.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


#: rank accuracy the horizontal-to-vertical transform sketches at
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

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of observations (weight 1 each) into the sketch."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        weights = np.ones(values.size)
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
