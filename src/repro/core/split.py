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
#: nodes scan just their occupied bins.  Measured on 16-node stacks:
#: 0.27x the per-node time at 360 slots, 0.63-0.93x at 1,000, a loss
#: (1.7-2.0x) from 2,000 up
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

    Histograms up to :data:`STACKED_MAX_SLOTS` wide are searched as one
    stack.  Wider ones are searched node by node, and a node whose
    histogram is at most half occupied — the usual case on
    high-dimensional sparse data — scans only bins whose ``(grad,
    hess)`` prefix differs from the previous bin's, plus bin 0: an
    unchanged prefix means a gain equal bit for bit at a higher bin
    index, which the tie order never picks.  Every route returns the
    same splits, gains equal bit for bit.

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
    shape = (len(hists), hists[0].gradient_dim)
    grad_totals = np.asarray(grad_totals, dtype=np.float64).reshape(shape)
    hess_totals = np.asarray(hess_totals, dtype=np.float64).reshape(shape)
    # A split at bin b needs b <= bins(f) - 2.
    valid = np.arange(num_bins) < bins_per_feature[:, None] - 1
    search = _Search(num_features, num_bins, hists[0].gradient_dim,
                     reg_lambda, reg_gamma, feature_offset)
    if stacked(num_features, num_bins):
        return search.full(np.stack([h.grad for h in hists]),
                           np.stack([h.hess for h in hists]),
                           grad_totals, hess_totals, valid)
    return [
        search.compact(hist, grad, hess, valid)
        if 2 * np.count_nonzero(hist.hess) <= hist.hess.size
        else search.full(hist.grad[None], hist.hess[None], grad[None],
                         hess[None], valid)[0]
        for hist, grad, hess in zip(hists, grad_totals, hess_totals)
    ]


class _Search:
    """The Equation 2 scan shared by :func:`find_best_split`'s routes.

    Scalar gradients (``C == 1``) carry no class axis and sum over none.
    """

    def __init__(self, num_features: int, num_bins: int,
                 gradient_dim: int, reg_lambda: float, reg_gamma: float,
                 feature_offset: int) -> None:
        self.num_features, self.num_bins = num_features, num_bins
        self.classes = (gradient_dim,) if gradient_dim > 1 else ()
        self.reg_lambda, self.reg_gamma = reg_lambda, reg_gamma
        self.feature_offset = feature_offset

    def prefixes(self, grad: np.ndarray, hess: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-feature running sums over the bins of ``(k, D*q, C)``
        histogram stacks, shaped ``(k, D, q, *classes)``."""
        shape = (grad.shape[0], self.num_features, self.num_bins,
                 *self.classes)
        return (np.cumsum(grad.reshape(shape), axis=2),
                np.cumsum(hess.reshape(shape), axis=2))

    def gains(self, grad_left: np.ndarray, hess_left: np.ndarray,
              missing_grad: np.ndarray, missing_hess: np.ndarray,
              grad_total: np.ndarray, hess_total: np.ndarray) -> np.ndarray:
        """Gains of both default directions, stacked on a new leading
        axis: row 0 — missing goes right (left = prefix); row 1 —
        missing goes left (left = prefix + missing bucket)."""
        over_classes = ((lambda values: values.sum(axis=-1))
                        if self.classes else (lambda values: values))

        def score(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
            return over_classes(grad * grad / (hess + self.reg_lambda))

        parent_score = score(grad_total, hess_total)

        def gains_of(grad_left, hess_left) -> np.ndarray:
            grad_right = grad_total - grad_left
            hess_right = hess_total - hess_left
            gains = 0.5 * (
                score(grad_left, hess_left) + score(grad_right, hess_right)
                - parent_score
            ) - self.reg_gamma
            # Children must both receive some hessian mass; empty
            # children give a spurious "gain" equal to -gamma and are
            # never useful.
            gains[(over_classes(hess_left) <= 0.0)
                  | (over_classes(hess_right) <= 0.0)] = -np.inf
            return gains

        return np.stack([
            gains_of(grad_left, hess_left),
            gains_of(grad_left + missing_grad, hess_left + missing_hess),
        ])

    def split_of(self, gains: np.ndarray, position: int,
                 slot: int) -> Optional[SplitInfo]:
        """The split at flat ``position`` of one node's ``(2, P)``
        gains, ``slot`` being its ``feature * q + bin``."""
        option = position // gains.shape[1]
        best_gain = float(gains.reshape(-1)[position])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return None
        feature, bin_id = divmod(slot, self.num_bins)
        return SplitInfo(
            feature=feature + self.feature_offset,
            bin=bin_id,
            default_left=bool(option == 1),
            gain=best_gain,
        )

    def full(self, grad: np.ndarray, hess: np.ndarray,
             grad_totals: np.ndarray, hess_totals: np.ndarray,
             valid: np.ndarray) -> List[Optional[SplitInfo]]:
        """Every bin of every node: one scan of the ``(k, ...)`` stack,
        one argmax per node over (direction, feature, bin)."""
        k = grad.shape[0]
        grad_prefix, hess_prefix = self.prefixes(grad, hess)
        extra = (slice(None),) + (None,) * 2   # (k, 1, 1, *classes)
        if not self.classes:
            grad_totals, hess_totals = grad_totals[:, 0], hess_totals[:, 0]
        grad_total, hess_total = grad_totals[extra], hess_totals[extra]
        missing_grad = grad_total - grad_prefix[:, :, -1:]
        missing_hess = hess_total - hess_prefix[:, :, -1:]
        gains = self.gains(grad_prefix, hess_prefix, missing_grad,
                           missing_hess, grad_total,
                           hess_total)              # (2, k, D, q)
        gains[:, :, ~valid] = -np.inf
        gains = gains.transpose(1, 0, 2, 3).reshape(k, 2, -1)
        width = gains.shape[2]
        best = np.argmax(gains.reshape(k, -1), axis=1)
        return [self.split_of(gains[i], int(best[i]),
                              int(best[i]) % width)
                for i in range(k)]

    def compact(self, hist: Histogram, grad_total: np.ndarray,
                hess_total: np.ndarray,
                valid: np.ndarray) -> Optional[SplitInfo]:
        """One sparse node: only bins with a prefix of their own."""
        grad_prefix, hess_prefix = self.prefixes(hist.grad[None],
                                                 hist.hess[None])
        grad_prefix, hess_prefix = grad_prefix[0], hess_prefix[0]
        if not self.classes:
            grad_total, hess_total = grad_total[0], hess_total[0]
        changed = ((grad_prefix[:, 1:] != grad_prefix[:, :-1])
                   | (hess_prefix[:, 1:] != hess_prefix[:, :-1]))
        scanned = valid.copy()
        scanned[:, 1:] &= changed.any(axis=-1) if self.classes else changed
        positions = np.flatnonzero(scanned)
        if positions.size == 0:
            return None
        features = positions // self.num_bins
        gains = self.gains(
            grad_prefix.reshape(-1, *self.classes)[positions],
            hess_prefix.reshape(-1, *self.classes)[positions],
            (grad_total - grad_prefix[:, -1])[features],
            (hess_total - hess_prefix[:, -1])[features],
            grad_total, hess_total)                 # (2, P)
        best = int(np.argmax(gains))
        return self.split_of(gains, best,
                             int(positions[best % positions.size]))


def split_gain_of(
    hist: Histogram,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    feature: int,
    bin_id: int,
    default_left: bool,
) -> float:
    """Gain of one specific split — used by tests against the brute force."""
    grad = hist.grad_view()[feature]
    hess = hist.hess_view()[feature]
    gl = grad[: bin_id + 1].sum(axis=0)
    hl = hess[: bin_id + 1].sum(axis=0)
    if default_left:
        gl = gl + (np.asarray(grad_total) - grad.sum(axis=0))
        hl = hl + (np.asarray(hess_total) - hess.sum(axis=0))
    gr = np.asarray(grad_total) - gl
    hr = np.asarray(hess_total) - hl
    parent = node_score(np.asarray(grad_total), np.asarray(hess_total),
                        reg_lambda)
    return float(
        0.5 * (node_score(gl, hl, reg_lambda)
               + node_score(gr, hr, reg_lambda) - parent) - reg_gamma
    )
