"""The split finder as it stood before the occupied-bin scan: every op runs
over the full ``(D, q, C)`` histogram, trailing ``C`` axis included.

Kept as the reference ``repro.core.split.find_best_split`` is compared
against — same :class:`SplitInfo` (gain bit for bit) or both ``None`` —
with the gain of one named split and the ``(D, q, C)`` views and
tolerance comparison the histogram tests read a :class:`Histogram`
through.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.histogram import Histogram
from repro.core.split import SplitInfo, node_score


def grad_view(hist: Histogram) -> np.ndarray:
    """``(num_features, num_bins, gradient_dim)`` view of the dense
    ``grad``: writes land in ``hist`` unless it holds a slot basis."""
    return hist.to_dense().grad.reshape(
        hist.num_features, hist.num_bins, hist.gradient_dim)


def hess_view(hist: Histogram) -> np.ndarray:
    return hist.to_dense().hess.reshape(
        hist.num_features, hist.num_bins, hist.gradient_dim)


def allclose(a: Histogram, b: Histogram, rtol: float = 1e-9,
             atol: float = 1e-12) -> bool:
    """Dense ``grad`` and ``hess`` agree within ``rtol`` / ``atol``."""
    a, b = a.to_dense(), b.to_dense()
    return (np.allclose(a.grad, b.grad, rtol=rtol, atol=atol)
            and np.allclose(a.hess, b.hess, rtol=rtol, atol=atol))


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
    """Gain of one specific split, for checks against the finder."""
    grad = grad_view(hist)[feature]
    hess = hess_view(hist)[feature]
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


def _score(grad: np.ndarray, hess: np.ndarray,
           reg_lambda: float) -> np.ndarray:
    """``G^2 / (H + lambda)`` summed over gradient dimensions."""
    return (grad * grad / (hess + reg_lambda)).sum(axis=-1)


def reference_find_best_split(
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

    Returns ``None`` when no split has positive gain.
    """
    grad_total = np.asarray(grad_total, dtype=np.float64)
    hess_total = np.asarray(hess_total, dtype=np.float64)
    bins_per_feature = np.asarray(bins_per_feature)
    if bins_per_feature.size != hist.num_features:
        raise ValueError(
            "bins_per_feature length must equal the histogram feature count"
        )

    grad = grad_view(hist)          # (D, q, C)
    hess = hess_view(hist)
    grad_prefix = np.cumsum(grad, axis=1)
    hess_prefix = np.cumsum(hess, axis=1)
    present_grad = grad_prefix[:, -1:, :]   # (D, 1, C)
    present_hess = hess_prefix[:, -1:, :]
    missing_grad = grad_total - present_grad
    missing_hess = hess_total - present_hess

    parent_score = _score(grad_total, hess_total, reg_lambda)

    # Option 0 — missing goes right: left = prefix.
    gl_right = grad_prefix
    hl_right = hess_prefix
    # Option 1 — missing goes left: left = prefix + missing bucket.
    gl_left = grad_prefix + missing_grad
    hl_left = hess_prefix + missing_hess

    gains = np.empty((2, hist.num_features, hist.num_bins), dtype=np.float64)
    for option, (gl, hl) in enumerate(
        ((gl_right, hl_right), (gl_left, hl_left))
    ):
        gr = grad_total - gl
        hr = hess_total - hl
        gains[option] = 0.5 * (
            _score(gl, hl, reg_lambda) + _score(gr, hr, reg_lambda)
            - parent_score
        ) - reg_gamma
        # Children must both receive some hessian mass; empty children give
        # a spurious "gain" equal to -gamma and are never useful.
        hl_sum = hl.sum(axis=-1)
        hr_sum = hr.sum(axis=-1)
        gains[option][(hl_sum <= 0.0) | (hr_sum <= 0.0)] = -np.inf

    # Mask invalid bins: a split at bin b needs b <= bins(f) - 2.
    bin_ids = np.arange(hist.num_bins)
    invalid = bin_ids[None, :] >= (bins_per_feature[:, None] - 1)
    gains[:, invalid] = -np.inf

    flat = int(np.argmax(gains))
    best_gain = float(gains.reshape(-1)[flat])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    option, rest = divmod(flat, hist.num_features * hist.num_bins)
    feature, bin_id = divmod(rest, hist.num_bins)
    return SplitInfo(
        feature=feature + feature_offset,
        bin=bin_id,
        default_left=bool(option == 1),
        gain=best_gain,
    )
