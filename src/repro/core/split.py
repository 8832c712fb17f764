"""Split finding on gradient histograms (Equations 1 and 2).

Given a node's histograms and its total gradient/hessian, the best split is
the (feature, bin, default-direction) triple maximizing the gain of
Equation 2.  Instances whose feature value is missing (absent in the sparse
shard) follow a *default direction* chosen per split — both directions are
enumerated, following the treatment of [17] the paper adopts.

Determinism contract: all quadrants must pick identical splits, so ties are
broken by a total order — higher gain, then default-right before
default-left, then lower global feature id, then lower bin.  Worker-local
argmax and the master's cross-worker comparison both honour this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TrainConfig
from .histogram import Histogram


@dataclass(frozen=True)
class SplitInfo:
    """The best split of one node.

    ``feature`` is a *global* feature id; ``bin`` means "values in bins
    ``<= bin`` go to the left child"; ``default_left`` tells where instances
    with a missing value go.
    """

    feature: int
    bin: int
    default_left: bool
    gain: float

    def sort_key(self) -> Tuple[float, int, int, int]:
        """Key implementing the determinism contract (smaller is better)."""
        return (-self.gain, int(self.default_left), self.feature, self.bin)

    def better_than(self, other: Optional["SplitInfo"]) -> bool:
        if other is None:
            return True
        return self.sort_key() < other.sort_key()


def leaf_weight(grad_total: np.ndarray, hess_total: np.ndarray,
                reg_lambda: float) -> np.ndarray:
    """Optimal leaf weight vector ``-G / (H + lambda)`` (Equation 1)."""
    return -np.asarray(grad_total) / (np.asarray(hess_total) + reg_lambda)


def node_score(grad: np.ndarray, hess: np.ndarray,
               reg_lambda: float) -> np.ndarray:
    """``G^2 / (H + lambda)`` summed over gradient dimensions (the node
    term of Equation 2)."""
    return (grad * grad / (hess + reg_lambda)).sum(axis=-1)


#: histograms of at most this many (feature, bin) slots are searched as
#: one stack per call; wider ones (high-D) node by node, where sparse
#: nodes scan just their occupied bins
STACKED_MAX_SLOTS = 1024


def stacked(num_features: int, num_bins: int) -> bool:
    """Whether :func:`find_best_split` searches histograms of this shape
    as one stack (else node by node)."""
    return num_features * num_bins <= STACKED_MAX_SLOTS


def accepted_split(config: TrainConfig, counts: Sequence[int],
                   search: Callable[[List[int]],
                                    Sequence[Optional[SplitInfo]]],
                   ) -> List[Optional[SplitInfo]]:
    """The split-acceptance rule every trainer and plan shares.

    Node ``i`` of a stack holds ``counts[i]`` instances.  Only nodes of
    at least ``max(2, 2 * min_node_instances)`` instances are searched:
    ``search(eligible)`` returns the best split (or ``None``) of each
    eligible position, in order.  A found split below
    ``min_split_gain`` is dropped.  ``None`` means the node becomes a
    leaf.
    """
    floor = max(2, 2 * config.min_node_instances)
    eligible = [i for i, count in enumerate(counts) if count >= floor]
    splits: List[Optional[SplitInfo]] = [None] * len(counts)
    if eligible:
        for i, split in zip(eligible, search(eligible)):
            if split is not None and split.gain >= config.min_split_gain:
                splits[i] = split
    return splits


def decide_split(
    config: TrainConfig,
    hists: Sequence[Histogram],
    stats: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts: Sequence[int],
    bins_per_feature: np.ndarray,
) -> List[Optional[SplitInfo]]:
    """Accepted best split of each node of a stack (``hists[i]``, with
    totals ``stats[i]`` over ``counts[i]`` instances) under
    :func:`accepted_split`: one finder call over the eligible nodes."""
    def search(eligible: List[int]) -> List[Optional[SplitInfo]]:
        return find_best_split(
            [hists[i] for i in eligible],
            [stats[i][0] for i in eligible],
            [stats[i][1] for i in eligible],
            config.reg_lambda, config.reg_gamma, bins_per_feature)

    return accepted_split(config, counts, search)


def find_best_split(
    hists: Sequence[Histogram],
    grad_totals: np.ndarray,
    hess_totals: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    bins_per_feature: np.ndarray,
    feature_offset: int = 0,
) -> List[Optional[SplitInfo]]:
    """Best split of each node of a stack, over every feature its
    histogram summarizes (one node is the stack of one).

    ``hists`` share one shape; ``grad_totals`` / ``hess_totals`` hold each
    node's full gradient sums (shape ``(nodes, C)``), which may exceed the
    histogram's column sums when values are missing — the surplus is the
    "missing bucket" routed by the default direction.
    ``bins_per_feature`` gives the number of *valid* bins of each feature
    (features may have fewer than ``q`` distinct quantiles);
    ``feature_offset`` converts local column ids into global feature ids
    for vertically partitioned shards.  A histogram in a shard's slot
    basis is searched as its :meth:`~Histogram.to_dense`.

    Every route reads one bin-major prefix buffer
    (:meth:`_Search.prefixes`).  Histograms up to
    :data:`STACKED_MAX_SLOTS` wide are searched as one stack.  Wider
    ones are searched node by node, and a node with at most half of its
    bins nonzero — the usual case on high-dimensional sparse data —
    scans only those bins, plus bin 0: a zero bin leaves the ``(grad,
    hess)`` prefix as it was, so its gains equal bit for bit those of a
    lower bin, which the tie order picks.  Every route returns the same
    splits, gains equal bit for bit.

    A node gets ``None`` when no split has positive gain.
    """
    if len(hists) == 0:
        return []
    hists = [hist.to_dense() for hist in hists]
    num_features, num_bins = hists[0].num_features, hists[0].num_bins
    bins_per_feature = np.asarray(bins_per_feature)
    if bins_per_feature.size != num_features:
        raise ValueError(
            "bins_per_feature length must equal the histogram feature count"
        )
    search = _Search(num_features, num_bins, hists[0].gradient_dim,
                     reg_lambda, reg_gamma, feature_offset)
    shape = (len(hists), 1, *search.classes)
    totals = np.concatenate([   # (k, 2, *classes): grad, hess
        np.asarray(grad_totals, dtype=np.float64).reshape(shape),
        np.asarray(hess_totals, dtype=np.float64).reshape(shape)], axis=1)
    parents = search.score(totals[:, 0], totals[:, 1])
    # A split at bin b needs b <= bins(f) - 2.
    valid = np.arange(num_bins) < bins_per_feature[:, None] - 1  # (D, q)
    if stacked(num_features, num_bins):
        prefix = search.prefixes(np.stack([hist.grad for hist in hists]),
                                 np.stack([hist.hess for hist in hists]))
        return search.full(prefix, totals, parents, ~valid)
    return [search.node(hist, total, parent, valid)
            for hist, total, parent in zip(hists, totals, parents)]


class _Search:
    """The Equation 2 scan shared by :func:`find_best_split`'s routes.

    Scalar gradients (``C == 1``) carry no class axis and sum over none;
    otherwise the class axis is the trailing, contiguous one of every
    array, so each sum over classes runs as in the reference finder.
    """

    def __init__(self, num_features: int, num_bins: int,
                 gradient_dim: int, reg_lambda: float, reg_gamma: float,
                 feature_offset: int) -> None:
        self.num_features, self.num_bins = num_features, num_bins
        self.classes = (gradient_dim,) if gradient_dim > 1 else ()
        self.reg_lambda, self.reg_gamma = reg_lambda, reg_gamma
        self.feature_offset = feature_offset

    def over_classes(self, values: np.ndarray) -> np.ndarray:
        return values.sum(axis=-1) if self.classes else values

    def score(self, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """``G^2 / (H + lambda)`` summed over classes."""
        return self.over_classes(grad * grad / (hess + self.reg_lambda))

    def prefixes(self, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """Running sums over the bins of ``(k, D·q, C)`` histogram
        stacks, bin-major: ``(k, q, 2, D, *classes)`` in the histograms'
        dtype, ``[:, b, 0]`` the grad and ``[:, b, 1]`` the hess
        prefixes of bin ``b``.

        Wide histograms add bin ``b - 1``'s row into bin ``b``'s, one
        contiguous ``2·D·C`` add per bin; narrow (:func:`stacked`) ones
        take one ``np.cumsum`` along the bin axis, cheaper than ``q -
        1`` short adds.  Both are the sequential sum ``np.cumsum``
        takes along each feature's bins.
        """
        k, q, d = grad.shape[0], self.num_bins, self.num_features
        prefix = np.empty((k, q, 2, d, *self.classes),
                          np.result_type(grad, hess))
        for half, values in enumerate((grad, hess)):
            prefix[:, :, half] = values.reshape(
                k, d, q, *self.classes).swapaxes(1, 2)
        if stacked(d, q):
            np.cumsum(prefix, axis=1, out=prefix)
        else:
            rows = list(prefix.swapaxes(0, 1))
            for previous, row in zip(rows, rows[1:]):
                row += previous
        return prefix

    def gains(self, scan: np.ndarray, left: Sequence[np.ndarray],
              totals: np.ndarray, parents: np.ndarray,
              masked: Optional[np.ndarray]) -> np.ndarray:
        """Equation 2 for both default directions, written in place.

        ``scan`` is ``(2, child, direction, ...)``, grad sums then hess
        sums, each half contiguous.  On entry ``scan[:, 0]`` holds the
        left child's: direction 0 sends missing values right (left =
        prefix), direction 1 left (left = prefix + missing bucket).
        ``left`` is direction 0's ``(grad, hess)`` prefix in its own
        dtype; ``totals[0]`` / ``totals[1]`` broadcast against a half's
        right child, ``parents`` and ``masked`` (bins no split may use)
        against the returned ``(direction, ...)`` gains.  Each float op
        and its order are the reference finder's: ``gl·gl/(hl+λ) +
        gr·gr/(hr+λ) - parent``, then ``·0.5``, then ``- γ``; a child
        without hessian mass gives ``-inf``.
        """
        grad, hess = scan
        np.subtract(totals[0], grad[0], out=grad[1])
        np.subtract(totals[1], hess[0], out=hess[1])
        # Empty children, before ``+ λ`` overwrites the hess sums.
        empty = self.over_classes(hess) <= 0.0      # (child, direction, ...)
        narrow = left[0].dtype != scan.dtype
        if narrow:      # narrow accumulators score the prefix at their width
            empty[0, 0] = self.over_classes(left[1]) <= 0.0
        empty = np.logical_or(empty[0], empty[1], out=empty[0])
        if masked is not None:
            empty |= masked
        np.add(hess, self.reg_lambda, out=hess)
        np.multiply(grad, grad, out=grad)
        np.divide(grad, hess, out=grad)
        scores = self.over_classes(grad)            # (child, direction, ...)
        if narrow:
            scores[0, 0] = self.score(*left)
        gains = np.add(scores[0], scores[1], out=scores[0])
        np.subtract(gains, parents, out=gains)
        np.multiply(gains, 0.5, out=gains)
        if self.reg_gamma != 0.0:   # x - 0.0 == x, bit for bit
            np.subtract(gains, self.reg_gamma, out=gains)
        np.copyto(gains, -np.inf, where=empty)
        return gains

    def split_of(self, gain: float, direction: int,
                 slot: int) -> Optional[SplitInfo]:
        """The split of ``gain`` at ``slot`` (``feature * q + bin``)."""
        if not math.isfinite(gain) or gain <= 0.0:
            return None
        feature, bin_id = divmod(slot, self.num_bins)
        return SplitInfo(
            feature=feature + self.feature_offset,
            bin=bin_id,
            default_left=bool(direction == 1),
            gain=gain,
        )

    def full(self, prefix: np.ndarray, totals: np.ndarray,
             parents: np.ndarray,
             invalid: np.ndarray) -> List[Optional[SplitInfo]]:
        """Every bin of every node of ``(k, q, 2, D, *classes)``
        prefixes: one scan of the stack, feature-major, and one argmax
        per node over its ``(direction, feature, bin)`` gains."""
        k = prefix.shape[0]
        # (2, k, D, q, *classes): one copy turns the prefixes feature-major
        left = prefix.transpose(2, 0, 3, 1, *range(4, prefix.ndim))
        totals = totals.swapaxes(0, 1)[:, :, None]   # (2, k, 1, *classes)
        scan = np.empty((2, 2, 2, *left.shape[1:]))
        scan[:, 0, 0] = left
        missing = totals - left[:, :, :, -1]           # (2, k, D, *classes)
        np.add(scan[:, 0, 0], missing[:, :, :, None], out=scan[:, 0, 1])
        gains = self.gains(scan, left, totals[:, :, :, None],
                           parents[:, None, None], invalid)  # (2, k, D, q)
        gains = gains.swapaxes(0, 1).reshape(k, -1)
        best = np.argmax(gains, axis=1)
        width = self.num_features * self.num_bins
        return [self.split_of(gain, *divmod(position, width))
                for gain, position in zip(
                    gains[np.arange(k), best].tolist(), best.tolist())]

    def node(self, hist: Histogram, totals: np.ndarray,
             parent: np.ndarray, valid: np.ndarray) -> Optional[SplitInfo]:
        """One node of a wide stack: bin 0 and the nonzero bins of each
        feature in ``(feature, bin)`` order, or — when more than half of
        the bins are — every bin.  A zero bin leaves the prefix as the
        previous bin's, so both its gains too, and the tie order prefers
        the previous bin."""
        scanned = (hist.grad != 0.0) | (hist.hess != 0.0)
        if self.classes:
            scanned = scanned.any(axis=1)
        scanned = scanned.reshape(self.num_features, self.num_bins)
        scanned[:, 0] = True
        scanned &= valid
        prefix = self.prefixes(hist.grad[None], hist.hess[None])[0]
        if 2 * np.count_nonzero(scanned) > scanned.size:
            return self.full(prefix[None], totals[None], parent[None],
                             ~valid)[0]
        positions = np.flatnonzero(scanned)              # feature * q + bin
        if positions.size == 0:
            return None
        features = positions // self.num_bins
        bins = positions - features * self.num_bins
        # Bin-major rows of the grad prefixes; the hess rows are D on.
        index = bins * (2 * self.num_features) + features
        rows = prefix.reshape(-1, *self.classes)
        missing = totals[:, None] - prefix[-1]           # (2, D, *classes)
        left = [rows[first:].take(index, axis=0)
                for first in (0, self.num_features)]
        scan = np.empty((2, 2, 2, positions.size, *self.classes))
        for half, prefix_sums, bucket in zip(scan, left, missing):
            half[0, 0] = prefix_sums
            np.add(prefix_sums, bucket.take(features, axis=0),
                   out=half[0, 1])
        gains = self.gains(scan, left, totals, parent, None)  # (2, P)
        direction, i = divmod(int(np.argmax(gains)), positions.size)
        return self.split_of(float(gains[direction, i]), direction,
                             int(positions[i]))

