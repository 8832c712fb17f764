"""Gradient histograms and their construction kernels (Section 2.1.2).

A gradient histogram summarizes, for every feature and candidate-split bin,
the sum of first- and second-order gradients of the instances whose feature
value falls in that bin.  Its size — ``Sizehist = 2 * D * q * C * 8`` bytes
per tree node (Section 3.1.1) — drives the memory and communication analysis
of the whole paper.

This module provides the :class:`Histogram` container, the subtraction
technique of Section 2.1.2 (:meth:`HistogramBuilder.subtract`),
:func:`subtraction_schedule` — the one rule,
shared by the oracle and every plan, for which sibling is built and which
derived — and the construction kernels for each storage pattern and index
combination analyzed in Section 3.2:

* :meth:`HistogramBuilder.build_rowstore` — row-store + node-to-instance
  index (QD2 / QD4): gather the rows of one node, one pass over their
  entries.
* :meth:`HistogramBuilder.build_colstore_layer` — column-store +
  instance-to-node index (QD1 / XGBoost): one pass over *all* entries per
  tree layer, scattering into one histogram of every active node's bins,
  handed back as one zero-copy view per node; no subtraction possible.
* :meth:`HistogramBuilder.build_colstore_hybrid` — column-store +
  node-to-instance index, the hybrid kernel of Section 5.2.2 (our QD3):
  per column, either linear-scan the column and filter by instance-to-node
  lookups, or binary-search the node's instance list inside the column —
  whichever is predicted cheaper.
* :meth:`HistogramBuilder.build_colstore_columnwise` — column-store +
  column-wise node-to-instance index (pure Yggdrasil mode, Appendix C):
  direct slices, but the index itself costs ``O(nnz)`` per layer to
  maintain.

Histogram construction dominates GBDT computation (Section 3.2.4).  A
:class:`Histogram` is just two arrays: kernels allocate one per node
(un-zeroed via :meth:`Histogram.empty` when the scatter writes every
bin) and callers drop it when the node retires, so the retained
histograms are exactly the ones the paper counts (Section 3.1.2).

On high-dimensional sparse data most of the ``D·q`` slots of every node
are empty.  A binned row-store shard whose occupied slots cover at most
half of ``D·q`` carries a fixed *slot basis*
(:meth:`~repro.data.matrix.CSRMatrix.hist_basis`); every node of that
shard occupies a subset of it, so :meth:`HistogramBuilder.build_rowstore`
scatters into ``len(slots)`` rows and :meth:`HistogramBuilder.subtract`
runs over them, with no per-node slot discovery.  A basis histogram
carries the shard's ``slots``; :attr:`Histogram.nbytes` stays the
logical dense ``Sizehist`` either way, and consumers that need all
``D·q`` rows (collectives, the dense and low-precision codecs, the split
finder) read :meth:`Histogram.to_dense`.

* :class:`HistogramBuilder` implements all four kernels, with a
  dedicated **root fast path** (a node holding every shard row keys
  directly off the shard's cached entry keys);
* the innermost scatter-add dispatches to the one entry point of a
  pluggable :class:`~repro.core.kernels.KernelBackend`,
  :meth:`~repro.core.kernels.KernelBackend.scatter` — the numpy default's
  **fused scatter** collapses the 2·C per-class ``bincount`` calls into C
  single passes over stacked gradient/hessian weights, while the
  optional numba backend compiles unrolled per-entry loops with a
  no-hessian fast path for constant-hessian objectives.

Each kernel has one entry point, its :class:`HistogramBuilder` method;
:func:`default_builder` is the process-wide builder for callers that hold
none.  All kernels are instrumented: they return the number of stored
entries touched so tests can verify the complexity claims of Section 3.2.4.
"""

from __future__ import annotations

from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.matrix import CSCMatrix, CSRMatrix

BYTES_PER_DOUBLE = 8


def histogram_size_bytes(num_features: int, num_bins: int,
                         gradient_dim: int) -> int:
    """``Sizehist`` of Section 3.1.1 for one tree node."""
    return 2 * num_features * num_bins * gradient_dim * BYTES_PER_DOUBLE


class Histogram:
    """First- and second-order gradient histograms of one tree node.

    ``grad`` and ``hess`` are ``(num_features * num_bins, gradient_dim)``
    arrays stored flat so construction kernels can scatter with a single
    ``bincount`` per gradient dimension.  The accumulator ``dtype``
    defaults to float64 (the lossless path every bit-identity contract
    is stated against); backends may request float32 accumulators for
    ablations.

    A histogram built on a sparse row-store shard lives in the shard's
    *basis* (:meth:`~repro.data.matrix.CSRMatrix.hist_basis`): ``slots``
    is the sorted ``int32`` list of the ``(feature, bin)`` slots the
    shard occupies, row ``i`` of ``grad`` / ``hess`` is slot
    ``slots[i]``, and every other slot is exactly zero.  ``slots`` is
    ``None`` for a dense histogram.  :meth:`to_dense` is the one way
    from the basis to all ``D·q`` rows.
    """

    __slots__ = ("grad", "hess", "num_features", "num_bins",
                 "gradient_dim", "dtype", "slots")

    def __init__(self, num_features: int, num_bins: int,
                 gradient_dim: int, dtype=np.float64, *,
                 alloc=np.zeros, slots: Optional[np.ndarray] = None,
                 ) -> None:
        if num_features < 1 or num_bins < 1 or gradient_dim < 1:
            raise ValueError(
                "num_features, num_bins and gradient_dim must be >= 1"
            )
        self.num_features = num_features
        self.num_bins = num_bins
        self.gradient_dim = gradient_dim
        self.dtype = np.dtype(dtype)
        self.slots = slots
        rows = num_features * num_bins if slots is None else slots.size
        self.grad = alloc((rows, gradient_dim), dtype=self.dtype)
        self.hess = alloc((rows, gradient_dim), dtype=self.dtype)

    @classmethod
    def empty(cls, num_features: int, num_bins: int, gradient_dim: int,
              dtype=np.float64, *,
              slots: Optional[np.ndarray] = None) -> "Histogram":
        """A histogram with undefined bins, for kernels that write every
        bin (the backend scatters and :meth:`HistogramBuilder.subtract`)."""
        return cls(num_features, num_bins, gradient_dim, dtype,
                   alloc=np.empty, slots=slots)

    def to_dense(self) -> "Histogram":
        """This histogram over all ``D·q`` slots: itself when dense,
        else a new one holding the basis rows and zeros elsewhere."""
        if self.slots is None:
            return self
        dense = Histogram(self.num_features, self.num_bins,
                          self.gradient_dim, self.dtype)
        dense.grad[self.slots] = self.grad
        dense.hess[self.slots] = self.hess
        return dense

    # -- views ---------------------------------------------------------------

    def feature_view(self, lo: int, hi: int) -> "Histogram":
        """Read-only view of features ``[lo, hi)`` of the dense
        histogram, renumbered from 0: a feature is ``num_bins``
        consecutive rows, so nothing is copied."""
        if not 0 <= lo < hi <= self.num_features:
            raise ValueError(f"features [{lo}, {hi}) are not a non-empty "
                             f"part of [0, {self.num_features})")
        dense = self.to_dense()
        piece = Histogram.__new__(Histogram)
        piece.num_features, piece.num_bins = hi - lo, self.num_bins
        piece.gradient_dim, piece.dtype = self.gradient_dim, self.dtype
        piece.slots = None
        rows = slice(lo * self.num_bins, hi * self.num_bins)
        piece.grad, piece.hess = dense.grad[rows], dense.hess[rows]
        piece.grad.flags.writeable = piece.hess.flags.writeable = False
        return piece

    @property
    def nbytes(self) -> int:
        """Logical bytes: the dense ``Sizehist`` of Section 3.1.1 for
        this feature count and dtype, whatever the layout held.  Store
        accounting, collective payloads and codec baselines all price
        this, so a basis histogram costs what the paper's dense one
        does; the arrays themselves may be smaller."""
        return (2 * self.num_features * self.num_bins * self.gradient_dim
                * self.dtype.itemsize)

    # -- algebra ---------------------------------------------------------------

    def add_inplace(self, other: "Histogram") -> "Histogram":
        self._check_compatible(other)
        self.grad += other.grad
        self.hess += other.hess
        return self

    def copy(self) -> "Histogram":
        result = Histogram.empty(self.num_features, self.num_bins,
                                 self.gradient_dim, dtype=self.dtype,
                                 slots=self.slots)
        result.grad[:] = self.grad
        result.hess[:] = self.hess
        return result

    def _check_compatible(self, other: "Histogram") -> None:
        if (self.num_features, self.num_bins, self.gradient_dim,
                self.dtype) != (other.num_features, other.num_bins,
                                other.gradient_dim, other.dtype):
            raise ValueError("histogram shapes do not match")
        if not (self.slots is other.slots
                or (self.slots is not None and other.slots is not None
                    and np.array_equal(self.slots, other.slots))):
            raise ValueError("histogram slot bases do not match")

    def __repr__(self) -> str:
        return (
            f"Histogram(features={self.num_features}, bins={self.num_bins}, "
            f"classes={self.gradient_dim})"
        )


# ---------------------------------------------------------------------------
# Histogram builder: the four kernels
# ---------------------------------------------------------------------------

class HistogramBuilder:
    """Engine behind the four construction kernels.

    One builder serves one trainer (the in-process simulator shares it
    across simulated workers).  The innermost scatter-add runs on a
    pluggable :class:`~repro.core.kernels.KernelBackend` (``backend``
    accepts a registry name, an instance, or ``None`` for the portable
    numpy default); the builder keeps the gather/key-composition
    machinery and hands the backend precomposed keys plus un-zeroed
    output histograms.  Trainers with a constant-hessian objective set
    ``constant_hessian`` so loop backends can take the no-hessian fast
    path (bin count times the constant — taken only when bit-identical,
    i.e. at 1.0).
    """

    def __init__(self, backend=None) -> None:
        from .kernels import make_backend

        self.backend = make_backend(backend)
        #: per-instance hessian value when the objective's hessian is
        #: constant (e.g. 1.0 for square loss); ``None`` otherwise
        self.constant_hessian: Optional[float] = None

    def subtract(self, parent: Histogram, child: Histogram) -> Histogram:
        """``parent - child`` as a new histogram.

        With ``child`` one child of ``parent``, the result is the sibling
        child (Section 2.1.2): children partition the parent's
        instances, and histogram bins are plain sums of gradients.
        """
        parent._check_compatible(child)
        out = Histogram.empty(parent.num_features, parent.num_bins,
                              parent.gradient_dim, dtype=parent.dtype,
                              slots=parent.slots)
        np.subtract(parent.grad, child.grad, out=out.grad)
        np.subtract(parent.hess, child.hess, out=out.hess)
        return out

    # -- the scatter dispatch -------------------------------------------------

    def _scatter(self, hist: Histogram, keys: np.ndarray,
                 entry_rows: np.ndarray, grad: np.ndarray,
                 hess: np.ndarray) -> None:
        """Scatter-add gradients and hessians of ``entry_rows`` at ``keys``.

        Dispatches to the builder's kernel backend (see
        :meth:`repro.core.kernels.KernelBackend.scatter` — the numpy
        default fuses the grad/hess passes into one ``bincount`` over
        stacked weights for small scatters).  Every row of ``hist`` is
        assigned, so callers may pass a :meth:`Histogram.empty` one.
        """
        self.backend.scatter(hist, keys, entry_rows, grad, hess,
                             hess_const=self.constant_hessian)

    # -- row-store kernel (QD2 / QD4) -----------------------------------------

    def build_rowstore(
        self,
        shard: CSRMatrix,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        num_bins: int,
    ) -> Tuple[Histogram, int]:
        """Histogram of one node from a binned row-store shard.

        ``rows`` are node memberships and therefore assumed distinct.
        Returns the histogram and the number of stored entries touched.
        A node holding every shard row (each tree's root) takes the fast
        path: scatter keys and entry-row ids come straight from the shard's
        cached invariants, skipping the gather machinery entirely.  On a
        full shard (every row stores all ``D`` features) any other node
        takes its keys as whole ``D``-entry rows of the shard's keys.

        On a shard with a :meth:`~repro.data.matrix.CSRMatrix.hist_basis`
        the histogram lives in that basis (its ``slots`` is the shard's):
        the scatter writes ``len(slots)`` rows instead of ``D·q``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == shard.num_rows and rows.size:
            return self._rowstore_root(shard, grad, hess, num_bins)
        return self._rowstore_gather(shard, rows, grad, hess, num_bins)

    @staticmethod
    def _rowstore_keys(shard: CSRMatrix, num_bins: int,
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-entry scatter keys of ``shard`` and the slots they index:
        basis positions and the basis when the shard has one, else the
        dense ``feature * num_bins + bin`` keys and ``None``."""
        basis = shard.hist_basis(num_bins)
        if basis is None:
            return shard.hist_keys(num_bins), None
        slots, positions = basis
        return positions, slots

    def _rowstore_root(self, shard: CSRMatrix, grad: np.ndarray,
                       hess: np.ndarray,
                       num_bins: int) -> Tuple[Histogram, int]:
        """Root fast path: the node's entries are the whole shard."""
        gradient_dim = grad.shape[1]
        keys, slots = self._rowstore_keys(shard, num_bins)
        total = int(shard.nnz)
        if total == 0:
            return Histogram(shard.num_cols, num_bins, gradient_dim,
                             slots=slots), 0
        hist = Histogram.empty(shard.num_cols, num_bins, gradient_dim,
                               slots=slots)
        self._scatter(hist, keys, shard.row_of_entries(), grad, hess)
        return hist, total

    def _rowstore_gather(self, shard: CSRMatrix, rows: np.ndarray,
                         grad: np.ndarray, hess: np.ndarray,
                         num_bins: int) -> Tuple[Histogram, int]:
        """Non-root path: gather the node's entries, then scatter."""
        gradient_dim = grad.shape[1]
        shard_keys, slots = self._rowstore_keys(shard, num_bins)
        full = shard.nnz == shard.num_rows * shard.num_cols
        lengths = shard.num_cols if full else shard.row_lengths()[rows]
        total = int(rows.size * shard.num_cols if full else lengths.sum())
        if total == 0:
            return Histogram(shard.num_cols, num_bins, gradient_dim,
                             slots=slots), 0
        hist = Histogram.empty(shard.num_cols, num_bins, gradient_dim,
                               slots=slots)
        # gather precomposed scatter keys from the shard cache: one take
        # instead of re-deriving feature*num_bins + bin per entry
        if full:
            # every row holds all D entries: take the node's rows whole
            keys = shard_keys.reshape(-1, shard.num_cols).take(
                rows, axis=0).ravel()
        else:
            # position of each selected entry: repeat each row's start
            # shifted by the entries already emitted, then add a ramp
            entry_pos = np.repeat(
                shard.indptr[rows] - np.cumsum(lengths) + lengths, lengths)
            entry_pos += np.arange(total)
            keys = shard_keys.take(entry_pos)
        self._scatter(hist, keys, np.repeat(rows, lengths), grad, hess)
        return hist, total

    # -- column-store + instance-to-node kernel (QD1) -------------------------

    def build_colstore_layer(
        self,
        shard: CSCMatrix,
        slot_of_instance: np.ndarray,
        num_slots: int,
        grad: np.ndarray,
        hess: np.ndarray,
        num_bins: int,
    ) -> Tuple[List[Histogram], int]:
        """Histograms of every active node of one layer, one shard pass.

        ``slot_of_instance`` maps each shard-local row to a dense slot id
        in ``[0, num_slots)`` — the position of its node within the active
        layer — or ``-1`` for rows no longer on any active node.  This is
        the instance-to-node index of Section 3.2.3: the whole shard is
        scanned and histogram subtraction cannot skip any entries.

        The entries scatter at slot-prefixed keys into one
        ``num_slots·D``-feature histogram; slot ``s`` comes back as its
        read-only, zero-copy :meth:`Histogram.feature_view` of features
        ``[s·D, (s+1)·D)``.
        """
        if num_slots == 0:
            return [], 0
        num_features = shard.num_cols
        size = num_features * num_bins
        layer = Histogram.empty(num_slots * num_features, num_bins,
                                grad.shape[1])
        slot_arr = np.asarray(slot_of_instance)
        if slot_arr.dtype != np.int64:
            slot_arr = slot_arr.astype(np.int64)
        slots = slot_arr.take(shard.indices)
        base_keys = shard.hist_keys(num_bins)
        active = slots >= 0
        if active.all():
            keys = slots * size
            keys += base_keys
            entry_rows: np.ndarray = shard.indices
        else:
            keys = slots[active]
            keys *= size
            keys += base_keys[active]
            entry_rows = shard.indices[active]
        self._scatter(layer, keys, entry_rows, grad, hess)
        return [layer.feature_view(s * num_features, (s + 1) * num_features)
                for s in range(num_slots)], int(shard.nnz)

    # -- column-store + node-to-instance: the hybrid kernel (QD3) -------------

    def build_colstore_hybrid(
        self,
        shard: CSCMatrix,
        node_rows: np.ndarray,
        node_of_instance: np.ndarray,
        node_id: int,
        grad: np.ndarray,
        hess: np.ndarray,
        num_bins: int,
    ) -> Tuple[Histogram, int, int]:
        """Histogram of one node from a binned column-store shard.

        Per column the kernel picks the cheaper of two strategies
        (Section 5.2.2):

        * *linear scan* — read every entry of the column and keep those
          whose instance currently sits on ``node_id`` (instance-to-node
          index); cost ``nnz(column)``.
        * *binary search* — locate each of the node's instances inside the
          column's sorted row-index array (node-to-instance index); cost
          ``|node| * log(nnz(column))``.

        The selected entries of all columns are batched into one fused
        scatter instead of 2·C ``bincount`` calls per column.

        Returns ``(histogram, entries_scanned, searches_performed)``.
        """
        node_rows = np.asarray(node_rows, dtype=np.int64)
        gradient_dim = grad.shape[1]
        hist = Histogram(shard.num_cols, num_bins, gradient_dim)
        scanned = 0
        searched = 0
        node_size = node_rows.size
        col_lengths = shard.col_lengths()
        rows_parts: List[np.ndarray] = []
        keys_parts: List[np.ndarray] = []
        for j in range(shard.num_cols):
            nnz = int(col_lengths[j])
            if nnz == 0:
                continue
            col_rows, col_bins = shard.col(j)
            log_cost = node_size * max(int(np.log2(nnz)), 1)
            if nnz <= log_cost:
                # linear scan, filter via the instance-to-node index
                scanned += nnz
                keep = node_of_instance[col_rows] == node_id
                rows = col_rows[keep]
                bins = col_bins[keep]
            else:
                # binary search each node instance inside the column
                searched += node_size
                pos = np.searchsorted(col_rows, node_rows)
                pos = np.minimum(pos, nnz - 1)
                keep = col_rows[pos] == node_rows
                rows = node_rows[keep]
                bins = col_bins[pos[keep]]
            if rows.size == 0:
                continue
            rows_parts.append(rows)
            keys_parts.append(bins.astype(np.int64) + j * num_bins)
        if keys_parts:
            self._scatter(hist, np.concatenate(keys_parts),
                          np.concatenate(rows_parts), grad, hess)
        return hist, scanned, searched

    # -- column-store + column-wise index kernel (Yggdrasil mode) -------------

    def build_colstore_columnwise(
        self,
        index: "ColumnwiseIndex",
        node_id: int,
        grad: np.ndarray,
        hess: np.ndarray,
        num_bins: int,
    ) -> Tuple[Histogram, int]:
        """Histogram of one node using the column-wise index: direct
        slices, batched into one fused scatter."""
        shard = index.shard
        gradient_dim = grad.shape[1]
        hist = Histogram(shard.num_cols, num_bins, gradient_dim)
        touched = 0
        rows_parts: List[np.ndarray] = []
        keys_parts: List[np.ndarray] = []
        for j in range(shard.num_cols):
            rows, bins = index.node_entries(j, node_id)
            if rows.size == 0:
                continue
            touched += rows.size
            rows_parts.append(rows)
            keys_parts.append(bins + j * num_bins)
        if keys_parts:
            self._scatter(hist, np.concatenate(keys_parts),
                          np.concatenate(rows_parts), grad, hess)
        return hist, touched


#: the process-wide builder (see :func:`default_builder`)
_DEFAULT_BUILDER = HistogramBuilder()


def default_builder() -> HistogramBuilder:
    """The process-wide builder used when callers pass no explicit one."""
    return _DEFAULT_BUILDER


def subtraction_schedule(
    nodes: Sequence[int], counts: Dict[int, int],
    have_parent: Container[int],
) -> List[Tuple[str, int, int]]:
    """Plan one layer's histogram construction (the master's "schema").

    Returns a list of ``("build", node, -1)`` and
    ``("subtract", node, sibling)`` actions: for each sibling pair whose
    parent histogram is retained (``parent in have_parent``), build only
    the child with fewer instances (the left one on a tie) and derive
    the other as ``parent - sibling`` with
    :meth:`HistogramBuilder.subtract` (Section 2.1.2); every other node
    is built directly.  Each subtract directly follows the build of its
    sibling.
    """
    actions: List[Tuple[str, int, int]] = []
    done: Set[int] = set()
    node_set = set(nodes)
    for node in nodes:
        if node in done:
            continue
        if node == 0:
            actions.append(("build", node, -1))
            done.add(node)
            continue
        parent = (node - 1) // 2
        sibling = node + 1 if node % 2 == 1 else node - 1
        if sibling in node_set and parent in have_parent:
            left, right = min(node, sibling), max(node, sibling)
            small = left if counts.get(left, 0) <= counts.get(right, 0) \
                else right
            large = right if small == left else left
            actions.append(("build", small, -1))
            actions.append(("subtract", large, small))
            done.update((small, large))
        else:
            actions.append(("build", node, -1))
            done.add(node)
    return actions


# ---------------------------------------------------------------------------
# Column-store + column-wise node-to-instance index (pure Yggdrasil mode)
# ---------------------------------------------------------------------------

class ColumnwiseIndex:
    """Column-wise node-to-instance index (Section 3.2.3, Figure 6).

    Every column's entries are kept grouped by tree node, so the entries of
    one node on one column are a contiguous slice — histogram construction
    needs no search at all.  The price is paid at node splitting: every
    column must be reordered, an ``O(nnz)`` pass per layer (``D`` times the
    bookkeeping of the other indexes, Section 3.2.4).

    The per-column row/bin arrays are cached as ``int64`` once at
    construction, so neither histogram reads nor index updates re-fetch
    column views or re-cast dtypes.
    """

    def __init__(self, shard: CSCMatrix) -> None:
        self.shard = shard
        lengths = shard.col_lengths()
        # per-column row ids and bin values, cast once (read-only caches)
        self._col_rows: List[np.ndarray] = []
        self._col_bins: List[np.ndarray] = []
        for j in range(shard.num_cols):
            rows, bins = shard.col(j)
            self._col_rows.append(rows.astype(np.int64))
            self._col_bins.append(bins.astype(np.int64))
        # per-column permuted entry order, grouped by node
        self.order = [
            np.arange(int(n), dtype=np.int64) for n in lengths
        ]
        # per-column {node_id: (start, end)} slices into ``order``
        self.slices: List[Dict[int, Tuple[int, int]]] = [
            {0: (0, int(n))} for n in lengths
        ]

    def node_entries(self, col: int,
                     node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, bins)`` of one node's entries on one column."""
        lo_hi = self.slices[col].get(node_id)
        if lo_hi is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lo, hi = lo_hi
        sel = self.order[col][lo:hi]
        return self._col_rows[col][sel], self._col_bins[col][sel]

    def update_after_split(self, node_of_instance: np.ndarray,
                           active_nodes: Sequence[int]) -> int:
        """Regroup every column after a layer split; returns entries moved."""
        moved = 0
        active = set(int(n) for n in active_nodes)
        for col in range(self.shard.num_cols):
            col_rows = self._col_rows[col]
            if col_rows.size == 0:
                self.slices[col] = {}
                continue
            nodes = node_of_instance[col_rows]
            order = np.argsort(nodes, kind="stable")
            self.order[col] = order
            moved += order.size
            sorted_nodes = nodes[order]
            bounds = np.flatnonzero(
                np.concatenate(
                    ([True], sorted_nodes[1:] != sorted_nodes[:-1])
                )
            )
            ends = np.concatenate((bounds[1:], [sorted_nodes.size]))
            self.slices[col] = {
                int(sorted_nodes[lo]): (int(lo), int(hi))
                for lo, hi in zip(bounds, ends)
                if int(sorted_nodes[lo]) in active
            }
        return moved
