"""Candidate-split proposal from quantile sketches (Section 2.1.2, 4.2.1).

Step 2 of the transformation pipeline: the merged global sketch of each
feature yields up to ``q - 1`` interior cut points at evenly spaced
quantiles, partitioning the feature's present values into at most ``q``
histogram bins.  Duplicate cuts (features with few distinct values) are
dropped, so a feature may legitimately end up with fewer than ``q`` bins.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .quantile import MergingSketch


def propose_candidates(sketch: MergingSketch,
                       num_candidates: int) -> np.ndarray:
    """Interior cut points for one feature from its merged sketch.

    Returns a strictly increasing float array of length ``<= q - 1``.  A
    value ``v`` is assigned bin ``searchsorted(cuts, v, side='left')`` —
    bin ``b`` holds values in ``(cuts[b-1], cuts[b]]`` and a split "at bin
    ``b``" sends ``value <= cuts[b]`` to the left child.
    """
    if num_candidates < 1:
        raise ValueError(
            f"num_candidates must be >= 1, got {num_candidates}"
        )
    if sketch.count == 0:
        return np.empty(0, dtype=np.float64)
    probs = np.arange(1, num_candidates) / num_candidates
    cuts = sketch.quantiles(probs)
    cuts = np.unique(cuts)
    # An interior cut equal to the global maximum would create an empty
    # right-most bin; drop it.
    maximum = sketch.query(1.0)
    return cuts[cuts < maximum]


def propose_candidates_exact(
    values: np.ndarray, num_candidates: int
) -> np.ndarray:
    """Exact-quantile cuts: the rule :func:`~repro.data.dataset.bin_dataset`
    applies (column-batched), so every trainer fed a binned dataset — the
    oracle and every plan — splits on these cuts.

    Same shape as :func:`propose_candidates` (``q - 1`` evenly spaced
    quantiles, deduplicated, strictly below the maximum) but not the same
    rank rule.  For ``p = k / q`` numpy's ``"lower"`` quantile picks the
    sorted value of rank ``floor(p * (n - 1))``, while a
    :class:`MergingSketch` holding all ``n`` values exactly answers rank
    ``ceil(p * n) - 1``.  The cuts agree only where every pair of ranks
    coincides: at ``q = 20`` over ``n`` distinct values, for ``n <= 21``
    and a few larger ``n`` (40, 41, 60, 61, ...).  Elsewhere the cuts the
    transformation pipeline sketches (``fit_from_raw``) sit up to one
    rank higher than these, even when its sketch is exact.
    """
    if num_candidates < 1:
        raise ValueError(
            f"num_candidates must be >= 1, got {num_candidates}"
        )
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return np.empty(0, dtype=np.float64)
    probs = np.arange(1, num_candidates) / num_candidates
    cuts = np.quantile(values, probs, method="lower")
    cuts = np.unique(cuts)
    return cuts[cuts < values.max()]


def distinct_cuts_below(picked: np.ndarray,
                        maximum: np.ndarray) -> List[np.ndarray]:
    """Per row of ``picked`` — ``(features, q - 1)`` quantile values,
    ascending along each row — what ``np.unique`` then the "strictly
    below the feature's maximum" filter of :func:`propose_candidates`
    keep, as one array per row; ``maximum`` is ``(features, 1)``."""
    keep = picked < maximum
    keep[:, 1:] &= picked[:, 1:] != picked[:, :-1]
    return np.split(picked[keep], np.cumsum(keep.sum(axis=1))[:-1])
