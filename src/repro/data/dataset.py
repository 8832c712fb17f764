"""Dataset abstraction and the quantile binning step.

A :class:`Dataset` couples a raw sparse feature matrix (CSR) with labels.
Before training, features are quantized into histogram-bin indexes against
per-feature candidate splits (Section 2.1.2); the result is a
:class:`BinnedDataset`, the representation every trainer operates on — the
paper's transformation (Section 4.2.1 step 3) ships exactly these bin
indexes over the network.

Exact zeros in the sparse matrix are treated as *missing* values, matching
the sparse-dataset convention of the paper; dense datasets simply store all
entries.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..sketch.proposer import distinct_cuts_below
from .matrix import CSCMatrix, CSRMatrix

#: bounds the ``(columns, n)`` block one ``np.quantile`` call of
#: :func:`_exact_cuts` gathers: a long column goes alone
EXACT_BLOCK_ENTRIES = 1 << 16


class Dataset:
    """Raw features + labels.

    ``task`` is one of ``"binary"`` (labels in {0, 1}), ``"multiclass"``
    (labels in {0..C-1}) or ``"regression"`` (float labels).
    """

    def __init__(
        self,
        features: CSRMatrix,
        labels: np.ndarray,
        task: str = "binary",
        num_classes: int = 2,
        name: str = "dataset",
    ) -> None:
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size != features.num_rows:
            raise ValueError(
                f"labels must be 1-D with length {features.num_rows}"
            )
        if task not in ("binary", "multiclass", "regression"):
            raise ValueError(f"unknown task: {task!r}")
        # the row-store kernels find feature f of a row by its position
        step = np.diff(features.indices.astype(np.int64))
        bounds = features.indptr[1:-1]  # pairs that straddle two rows
        step[bounds[(bounds > 0) & (bounds <= step.size)] - 1] = 1
        if step.size and step.min() <= 0:
            raise ValueError("feature ids must ascend strictly within a "
                             "row (no repeated or unsorted ids)")
        if task == "binary" and not np.isin(labels, (0, 1)).all():
            raise ValueError("binary task requires labels in {0, 1}")
        if task == "multiclass":
            if num_classes < 3:
                raise ValueError("multiclass task requires num_classes >= 3")
            if labels.min() < 0 or labels.max() >= num_classes:
                raise ValueError(
                    f"multiclass labels must lie in [0, {num_classes})"
                )
        self.features = features
        self.labels = labels
        self.task = task
        self.num_classes = num_classes if task == "multiclass" else 2
        self.name = name
        self._csc: Optional[CSCMatrix] = None

    @property
    def num_instances(self) -> int:
        return self.features.num_rows

    @property
    def num_features(self) -> int:
        return self.features.num_cols

    @property
    def density(self) -> float:
        total = self.num_instances * self.num_features
        return self.features.nnz / total if total else 0.0

    def csc(self) -> CSCMatrix:
        """Column-store view of the raw features (cached; prediction path)."""
        if self._csc is None:
            self._csc = self.features.to_csc()
        return self._csc

    def split(self, train_fraction: float,
              seed: int = 0) -> Tuple["Dataset", "Dataset"]:
        """Shuffled train/validation split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.num_instances)
        cut = int(round(train_fraction * self.num_instances))
        train_ids, valid_ids = np.sort(order[:cut]), np.sort(order[cut:])
        make = lambda ids, suffix: Dataset(  # noqa: E731
            self.features.select_rows(ids), self.labels[ids], self.task,
            self.num_classes, f"{self.name}-{suffix}"
        )
        return make(train_ids, "train"), make(valid_ids, "valid")

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, N={self.num_instances}, "
            f"D={self.num_features}, task={self.task}, "
            f"classes={self.num_classes}, density={self.density:.4f})"
        )


class BinnedDataset:
    """Features quantized to histogram-bin indexes.

    ``binned`` stores ``int32`` bin indexes as CSR values; ``cuts[f]`` is
    the strictly increasing array of interior cut points of feature ``f``
    (``bins_per_feature[f] == len(cuts[f]) + 1``).  ``num_bins`` is the
    uniform histogram width ``q`` — features with fewer distinct values
    leave their trailing bins empty.
    """

    def __init__(
        self,
        binned: CSRMatrix,
        cuts: List[np.ndarray],
        labels: np.ndarray,
        num_bins: int,
        task: str,
        num_classes: int,
        name: str = "binned",
    ) -> None:
        if len(cuts) != binned.num_cols:
            raise ValueError("one cuts array per feature required")
        self.binned = binned
        self.cuts = cuts
        self.labels = np.asarray(labels)
        self.num_bins = num_bins
        self.task = task
        self.num_classes = num_classes
        self.name = name
        self.bins_per_feature = np.array(
            [c.size + 1 for c in cuts], dtype=np.int64
        )
        if self.bins_per_feature.max(initial=1) > num_bins:
            raise ValueError("a feature has more bins than num_bins")
        self._csc: Optional[CSCMatrix] = None

    @property
    def num_instances(self) -> int:
        return self.binned.num_rows

    @property
    def num_features(self) -> int:
        return self.binned.num_cols

    def csc(self) -> CSCMatrix:
        """Column-store copy of the binned matrix (cached)."""
        if self._csc is None:
            self._csc = self.binned.to_csc()
        return self._csc

    def threshold_of(self, feature: int, bin_id: int) -> float:
        """Raw cut value of a split "bins <= bin_id go left"."""
        cuts = self.cuts[feature]
        if not 0 <= bin_id < cuts.size:
            raise ValueError(
                f"bin {bin_id} is not a valid split of feature {feature}"
            )
        return float(cuts[bin_id])

    def select_features(self, feature_ids: np.ndarray,
                        name: Optional[str] = None) -> "BinnedDataset":
        """Vertical slice keeping ``feature_ids`` renumbered from 0 —
        the per-worker column group of vertical partitioning."""
        feature_ids = np.asarray(feature_ids, dtype=np.int64)
        return BinnedDataset(
            self.binned.select_cols(feature_ids),
            [self.cuts[int(f)] for f in feature_ids],
            self.labels,
            self.num_bins,
            self.task,
            self.num_classes,
            name or f"{self.name}-cols",
        )

    def select_instances(self, row_ids: np.ndarray,
                         name: Optional[str] = None) -> "BinnedDataset":
        """Horizontal slice keeping ``row_ids`` — the per-worker shard of
        horizontal partitioning."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return BinnedDataset(
            self.binned.select_rows(row_ids),
            self.cuts,
            self.labels[row_ids],
            self.num_bins,
            self.task,
            self.num_classes,
            name or f"{self.name}-rows",
        )

    def __repr__(self) -> str:
        return (
            f"BinnedDataset({self.name!r}, N={self.num_instances}, "
            f"D={self.num_features}, q={self.num_bins})"
        )


def apply_cuts(csr: CSRMatrix, cuts: List[np.ndarray]) -> CSRMatrix:
    """Quantize a raw CSR matrix into bin indexes against ``cuts``.

    Vectorized: the per-feature cut arrays are padded to a ``(D, q-1)``
    matrix with ``+inf`` and each entry's bin is the count of cuts strictly
    below its value (equivalent to ``searchsorted`` side='left').
    """
    if len(cuts) != csr.num_cols:
        raise ValueError("one cuts array per feature required")
    sizes = np.fromiter((c.size for c in cuts), np.int64, len(cuts))
    max_cuts = int(sizes.max(initial=0))
    binned_vals = np.zeros(csr.nnz, dtype=np.int32)
    if max_cuts > 0 and csr.nnz > 0:
        cut_matrix = np.full((csr.num_cols, max_cuts), np.inf)
        cut_matrix[np.arange(max_cuts) < sizes[:, None]] = \
            np.concatenate(cuts)
        chunk = 1 << 16     # bounds the (chunk, q-1) float temporary
        for lo in range(0, csr.nnz, chunk):
            hi = min(lo + chunk, csr.nnz)
            rows_cuts = cut_matrix[csr.indices[lo:hi]]
            binned_vals[lo:hi] = (
                rows_cuts < csr.values[lo:hi, None]
            ).sum(axis=1)
    return CSRMatrix(csr.indptr.copy(), csr.indices.copy(), binned_vals,
                     csr.num_cols)


def _exact_cuts(csc: CSCMatrix, num_bins: int) -> List[np.ndarray]:
    """:func:`~repro.sketch.proposer.propose_candidates_exact` of every
    column, at one ``np.quantile`` call per distinct column length: the
    columns storing ``n`` values are ranked together as a ``(columns, n)``
    block — the same rank arithmetic on the same values, so every cut is
    identical."""
    if num_bins < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_bins}")
    probs = np.arange(1, num_bins) / num_bins
    values = csc.values.astype(np.float64, copy=False)
    lengths = csc.col_lengths()
    cuts = [np.empty(0, dtype=np.float64)] * csc.num_cols
    for n in np.unique(lengths[lengths > 0]).tolist():
        cols = np.flatnonzero(lengths == n)
        step = max(EXACT_BLOCK_ENTRIES // n, 1)
        for lo in range(0, cols.size, step):
            part = cols[lo:lo + step]
            block = values[csc.indptr[part][:, None] + np.arange(n)]
            picked = np.quantile(block, probs, axis=1, method="lower").T
            pieces = distinct_cuts_below(
                picked, block.max(axis=1, keepdims=True))
            for j, piece in zip(part.tolist(), pieces):
                cuts[j] = piece
    return cuts


def bin_dataset(dataset: Dataset, num_bins: int) -> BinnedDataset:
    """Quantize a dataset into at most ``num_bins`` bins per feature at
    exact per-feature quantiles (the oracle path; the distributed
    transformation sketches instead, :mod:`repro.cluster.transform`)."""
    cuts = _exact_cuts(dataset.csc(), num_bins)
    binned = apply_cuts(dataset.features, cuts)
    return BinnedDataset(
        binned, cuts, dataset.labels, num_bins, dataset.task,
        dataset.num_classes, name=dataset.name,
    )
