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
from typing import Callable, Optional, Tuple

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


def accepted_split(config: TrainConfig, count: int,
                   search: Callable[..., Optional[SplitInfo]],
                   *args) -> Optional[SplitInfo]:
    """The split-acceptance rule every trainer and plan shares.

    A node of ``count`` instances is searched (``search(*args)``, which
    returns its best split or ``None``) only when it holds at least
    ``max(2, 2 * min_node_instances)`` instances, and a found split
    below ``min_split_gain`` is dropped.  ``None`` means the node
    becomes a leaf.
    """
    if count < max(2, 2 * config.min_node_instances):
        return None
    split = search(*args)
    if split is not None and split.gain < config.min_split_gain:
        return None
    return split


def find_best_split(
    hist: Histogram,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    bins_per_feature: np.ndarray,
    feature_offset: int = 0,
) -> Optional[SplitInfo]:
    """Best split over every feature summarized in ``hist``.

    ``grad_total`` / ``hess_total`` are the node's full gradient sums (shape
    ``(C,)``), which may exceed the histogram's column sums when values are
    missing — the surplus is the "missing bucket" routed by the default
    direction.  ``bins_per_feature`` gives the number of *valid* bins of each
    feature (features may have fewer than ``q`` distinct quantiles);
    ``feature_offset`` converts local column ids into global feature ids for
    vertically partitioned shards.

    When at most half of the histogram is occupied — the usual case on
    high-dimensional sparse data — only bins whose ``(grad, hess)`` prefix
    differs from the previous bin's are scanned, plus bin 0: an unchanged
    prefix means a gain equal bit for bit at a higher bin index, which the
    tie order never picks.

    Returns ``None`` when no split has positive gain.
    """
    grad_total = np.asarray(grad_total, dtype=np.float64)
    hess_total = np.asarray(hess_total, dtype=np.float64)
    bins_per_feature = np.asarray(bins_per_feature)
    num_features, num_bins = hist.num_features, hist.num_bins
    if bins_per_feature.size != num_features:
        raise ValueError(
            "bins_per_feature length must equal the histogram feature count"
        )

    # scalar gradients: no class axis to carry, none to sum over
    classes = (hist.gradient_dim,) if hist.gradient_dim > 1 else ()
    if not classes:
        grad_total, hess_total = grad_total.reshape(()), hess_total.reshape(())

    def over_classes(values: np.ndarray) -> np.ndarray:
        return values.sum(axis=-1) if classes else values

    grad_prefix = np.cumsum(
        hist.grad.reshape(num_features, num_bins, *classes), axis=1)
    hess_prefix = np.cumsum(
        hist.hess.reshape(num_features, num_bins, *classes), axis=1)
    missing_grad = grad_total - grad_prefix[:, -1]     # (D, *classes)
    missing_hess = hess_total - hess_prefix[:, -1]

    # A split at bin b needs b <= bins(f) - 2.
    scanned = np.arange(num_bins) < bins_per_feature[:, None] - 1
    compact = 2 * np.count_nonzero(hist.hess) <= hist.hess.size
    if compact:
        # ... and, to be scanned, a prefix of its own.
        changed = ((grad_prefix[:, 1:] != grad_prefix[:, :-1])
                   | (hess_prefix[:, 1:] != hess_prefix[:, :-1]))
        scanned[:, 1:] &= changed.any(axis=-1) if classes else changed
        positions = np.flatnonzero(scanned)
        if positions.size == 0:
            return None
        features = positions // num_bins
        grad_left = grad_prefix.reshape(-1, *classes)[positions]
        hess_left = hess_prefix.reshape(-1, *classes)[positions]
        missing_grad = missing_grad[features]
        missing_hess = missing_hess[features]
    else:
        # most bins are occupied: finding and gathering the rest would
        # cost more than scanning them all
        grad_left, hess_left = grad_prefix, hess_prefix
        missing_grad = missing_grad[:, None]
        missing_hess = missing_hess[:, None]

    def score(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        return over_classes(grad * grad / (hess + reg_lambda))

    parent_score = score(grad_total, hess_total)

    def gains_of(grad_left: np.ndarray, hess_left: np.ndarray) -> np.ndarray:
        grad_right = grad_total - grad_left
        hess_right = hess_total - hess_left
        gains = 0.5 * (
            score(grad_left, hess_left) + score(grad_right, hess_right)
            - parent_score
        ) - reg_gamma
        # Children must both receive some hessian mass; empty children give
        # a spurious "gain" equal to -gamma and are never useful.
        gains[(over_classes(hess_left) <= 0.0)
              | (over_classes(hess_right) <= 0.0)] = -np.inf
        return gains

    # Row 0 — missing goes right: left = prefix.  Row 1 — missing goes
    # left: left = prefix + missing bucket.
    missing_right = gains_of(grad_left, hess_left).reshape(-1)
    gains = np.empty((2, missing_right.size))
    gains[0] = missing_right
    gains[1] = gains_of(grad_left + missing_grad,
                        hess_left + missing_hess).reshape(-1)
    if not compact:
        gains[:, ~scanned.reshape(-1)] = -np.inf

    option, position = divmod(int(np.argmax(gains)), gains.shape[1])
    best_gain = float(gains[option, position])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feature, bin_id = divmod(
        int(positions[position]) if compact else position, num_bins)
    return SplitInfo(
        feature=feature + feature_offset,
        bin=bin_id,
        default_left=bool(option == 1),
        gain=best_gain,
    )


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
