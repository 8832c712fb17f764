"""Ensemble compiler: flatten trees into struct-of-arrays form.

``Tree.predict`` walks the node dictionary with one boolean mask per
split node — fine for training-time evaluation, hopeless for serving heavy
traffic.  :func:`compile_ensemble` lowers a
:class:`~repro.core.tree.TreeEnsemble` into a :class:`CompiledEnsemble`:
every node of every tree becomes one slot of parallel arrays (``int32``
feature ids, ``float64`` thresholds, absolute left/right child offsets,
default directions, a leaf-weight matrix), laid out breadth-first per
tree so the two children of any split occupy adjacent slots.

Prediction is level-synchronous over a ``(trees x rows)`` position
matrix: all rows of a batch advance one layer of *every* tree of a block
per step, so an ensemble costs ``O(depth)`` vectorized operations per
block — not per tree, which is what a six-row serving batch needs —
instead of ``O(nodes)`` mask scans.  On numpy one step is 7 calls
(:meth:`KernelBackend.walk <repro.core.kernels.KernelBackend.walk>`),
because three tables route with nothing else:

* every slot stores its left child; children are adjacent, so routing
  is ``left + go_right`` — no second child gather and no ``where``;
* every slot stores the batch column it reads, and a missing-right
  split reads an *extension column*: a copy of its feature with
  ``NaN`` mapped to ``+inf`` (:class:`~repro.core.kernels.WalkTables`),
  so ``value > threshold`` alone sends missing values their default
  way (``NaN > cut`` is false, ``+inf > cut`` true);
* leaves self-loop with a ``+inf`` threshold, which parks finished rows
  without any per-row bookkeeping (``value > +inf`` is false for every
  value, NaN included).

Rows walk in blocks of about 2 MB of batch, and each block of trees
folds into the accumulator in one ``np.add.accumulate`` call.  The loop
backends (pyloop, numba) read the same three tables over the same row
blocks, one row and one tree at a time: there is one table set and one
missing rule for every backend.

The compiled predictor is *bit-identical* to
:meth:`TreeEnsemble.raw_scores`: the traversal routes on the same
``value <= threshold`` comparison (expressed as its exact complement
``value > threshold`` on non-NaN floats), missing values follow the same
default direction, and scores accumulate tree by tree in the same order;
the shrinkage product ``learning_rate * weight`` is precomputed per leaf
at compile time — the same two float64 operands, hence the same product
— so the running sum sees literally the same values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.kernels import MISSING_BIN, WalkTables, make_backend
from ..core.tree import Tree, TreeEnsemble
from ..data.matrix import CSCMatrix, CSRMatrix

#: accepted feature-batch types of the compiled predictor
FeatureBatch = Union[CSCMatrix, CSRMatrix, np.ndarray]


class CompiledEnsemble:
    """Struct-of-arrays ensemble with a vectorized batch predictor.

    Built by :func:`compile_ensemble`; all arrays are read-only after
    construction.  Slots ``tree_root[t] .. tree_root[t+1]`` (exclusive;
    ``tree_root`` has length ``T + 1``) hold tree ``t`` breadth-first,
    so ``tree_root[t]`` is also tree ``t``'s root slot.

    Per-slot arrays:

    - ``feature``: ``int32`` split feature (0 on leaf slots — the gather
      stays in bounds and the result is discarded);
    - ``threshold``: ``float64`` raw-value cut; ``value <= threshold``
      routes left.  Leaf slots carry ``+inf`` so every value parks;
    - ``left`` / ``right``: ``int32`` absolute child slots, always
      adjacent (``right == left + 1``); leaves point at themselves;
    - ``default_left``: missing-value direction (``True`` on leaves);
    - ``leaf_slot``: row of ``leaf_weights`` for leaf slots, -1 inside.

    ``leaf_weights`` is the ``(num_leaves, gradient_dim)`` matrix of
    *unshrunken* leaf values, exactly as stored in the source trees.
    """

    def __init__(self, num_trees: int, gradient_dim: int,
                 learning_rate: float, num_features: int,
                 feature: np.ndarray, threshold: np.ndarray,
                 left: np.ndarray, right: np.ndarray,
                 default_left: np.ndarray, leaf_slot: np.ndarray,
                 leaf_weights: np.ndarray, tree_root: np.ndarray,
                 tree_depth: np.ndarray, backend=None) -> None:
        #: the kernel engine running the traversal (bit-identical across
        #: backends; see repro.core.kernels)
        self.backend = make_backend(backend)
        self.num_trees = num_trees
        self.gradient_dim = gradient_dim
        self.learning_rate = learning_rate
        self.num_features = num_features
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.default_left = default_left
        self.leaf_slot = leaf_slot
        self.leaf_weights = leaf_weights
        self.tree_root = tree_root
        self.tree_depth = tree_depth
        internal = leaf_slot < 0
        miss_right = internal & ~default_left
        if not np.all(threshold[miss_right] < np.inf):
            raise ValueError(
                "cannot compile: a missing-right split cuts at +inf or "
                "NaN, which no value exceeds"
            )
        # acceleration structures: the traversal tables (child / column /
        # extension, shared by every backend) and the shrinkage-scaled
        # weights gathered straight by slot id
        scaled = np.zeros((feature.size, gradient_dim), dtype=np.float64)
        leafy = ~internal
        scaled[leafy] = learning_rate * leaf_weights[leaf_slot[leafy]]
        width = max(num_features, 1)
        column, extension = _extension_columns(feature, miss_right, width)
        self._tables = WalkTables(
            threshold=threshold, scaled=scaled, tree_root=tree_root,
            tree_depth=tree_depth, child=left.astype(np.intp),
            column=column, extension=extension, width=width)
        for arr in (feature, threshold, left, right, default_left,
                    leaf_slot, leaf_weights, tree_root, tree_depth,
                    *_own_arrays(self._tables)):
            arr.setflags(write=False)

    # -- introspection -----------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.feature.size

    @property
    def num_leaves(self) -> int:
        return self.leaf_weights.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled arrays (resident-memory accounting;
        the *wire* cost of shipping a model is its JSON payload size, see
        :class:`repro.serve.registry.ModelVersion`)."""
        return sum(arr.nbytes for arr in (
            self.feature, self.threshold, self.left, self.right,
            self.default_left, self.leaf_slot, self.leaf_weights,
            self.tree_root, self.tree_depth,
            *_own_arrays(self._tables),
        ))

    def __repr__(self) -> str:
        return (
            f"CompiledEnsemble(trees={self.num_trees}, "
            f"slots={self.num_slots}, leaves={self.num_leaves}, "
            f"gradient_dim={self.gradient_dim})"
        )

    # -- prediction --------------------------------------------------------

    def densify(self, features: FeatureBatch) -> np.ndarray:
        """Dense ``float64`` batch with ``NaN`` marking missing values.

        Sparse inputs follow the repo convention: a *stored* entry is
        present (whatever its value), an unstored one is missing.  Dense
        ``ndarray`` inputs must already use ``NaN`` for missing — exact
        zeros in a dense array are taken at face value.  The result is
        padded to at least ``num_features`` columns (and at least one)
        so every compiled feature id gathers in bounds.
        """
        if isinstance(features, np.ndarray):
            if features.ndim != 2:
                raise ValueError("dense batch must be 2-D")
            width = max(features.shape[1], self.num_features, 1)
            if features.shape[1] == width and features.dtype == np.float64:
                return np.ascontiguousarray(features)
            dense = np.full((features.shape[0], width), np.nan)
            dense[:, :features.shape[1]] = features
            return dense
        if not isinstance(features, (CSCMatrix, CSRMatrix)):
            raise TypeError(
                f"unsupported batch type: {type(features).__name__}"
            )
        width = max(features.num_cols, self.num_features, 1)
        if isinstance(features, CSCMatrix):
            dense = np.full((features.num_rows, width), np.nan)
            dense[features.indices, features.col_of_entries()] = \
                features.values
            return dense
        dense = np.full((features.num_rows, width), np.nan)
        dense[features.row_of_entries(), features.indices] = \
            features.values
        return dense

    def _fold(self, features: FeatureBatch, use: int,
              out: Optional[np.ndarray]) -> np.ndarray:
        """Fold trees ``0..use`` into ``out`` (zeros when ``None``) —
        the body :meth:`raw_scores` and :meth:`add_raw_scores` share."""
        dense = self.densify(features)
        num = dense.shape[0]
        if out is None:
            out = np.zeros((num, self.gradient_dim), dtype=np.float64)
        elif out.shape != (num, self.gradient_dim):
            raise ValueError(
                f"accumulator shape {out.shape} does not match "
                f"({num}, {self.gradient_dim})"
            )
        elif out.dtype != np.float64:
            raise ValueError("accumulator must be float64")
        self.backend.fold_scores(self._tables, dense, use, out)
        return out

    def raw_scores(self, features: FeatureBatch,
                   num_trees: Optional[int] = None) -> np.ndarray:
        """Summed (shrunken) raw scores; bit-identical to
        :meth:`TreeEnsemble.raw_scores` on the same rows."""
        use = (self.num_trees if num_trees is None
               else min(num_trees, self.num_trees))
        return self._fold(features, use, None)

    def add_raw_scores(self, features: FeatureBatch,
                       out: np.ndarray) -> np.ndarray:
        """Fold this ensemble's shrunken scores *into* ``out`` in place.

        Performs, per element, the same float64 additions in the same
        order as :meth:`raw_scores` — one addition of the gathered scaled
        leaf row per tree, in tree order, through the same backend entry
        point (:meth:`KernelBackend.fold_scores
        <repro.core.kernels.KernelBackend.fold_scores>`).  This is the
        carry-in half of the sharded score reduction
        (:mod:`repro.serve.sharded`): folding shard ``j``'s trees into
        the running sum carried from shards ``0..j-1`` reproduces the
        monolithic predictor's summation order exactly, which is what
        makes tree-sharded serving bit-identical to the unsharded
        predictor despite float addition being non-associative.
        Starting from zeros, the fold equals :meth:`raw_scores` bit for
        bit.
        """
        return self._fold(features, self.num_trees, out)


def _own_arrays(tables: WalkTables) -> tuple:
    """The arrays of ``tables`` a compiled ensemble holds on top of its
    public per-slot arrays."""
    return tables.scaled, tables.child, tables.column, tables.extension


def _extension_columns(feature: np.ndarray, extended: np.ndarray,
                       width: int) -> tuple:
    """``(column, extension)`` tables when the slots flagged in
    ``extended`` read an extension copy of their feature, appended
    after the batch's first ``width`` columns (see :class:`WalkTables`)."""
    extension = np.unique(feature[extended]).astype(np.intp)
    column = feature.astype(np.intp)
    column[extended] = width + np.searchsorted(extension,
                                               feature[extended])
    return column, extension


def compile_ensemble(ensemble: TreeEnsemble,
                     backend=None) -> CompiledEnsemble:
    """Lower a node-dict ensemble into a :class:`CompiledEnsemble`.

    ``backend`` selects the traversal kernel engine (a
    :mod:`repro.core.kernels` registry name, an instance, or ``None``
    for the portable numpy default); every backend routes and
    accumulates bit-identically.
    """
    slots: List[dict] = []
    leaf_weights: List[np.ndarray] = []
    tree_root = np.zeros(len(ensemble.trees) + 1, dtype=np.int32)
    tree_depth = np.zeros(max(len(ensemble.trees), 1), dtype=np.int32)
    num_features = 0
    for t, tree in enumerate(ensemble.trees):
        tree_root[t] = len(slots)
        tree_depth[t] = _compile_tree(tree, slots, leaf_weights)
        for node in tree.internal_nodes():
            num_features = max(num_features, node.split.feature + 1)
    tree_root[len(ensemble.trees)] = len(slots)

    count = len(slots)
    weights = (np.asarray(leaf_weights, dtype=np.float64)
               if leaf_weights
               else np.zeros((0, ensemble.gradient_dim)))
    return CompiledEnsemble(
        num_trees=len(ensemble.trees),
        gradient_dim=ensemble.gradient_dim,
        learning_rate=ensemble.learning_rate,
        num_features=num_features,
        feature=np.fromiter((s["feature"] for s in slots), np.int32,
                            count),
        threshold=np.fromiter((s["threshold"] for s in slots),
                              np.float64, count),
        left=np.fromiter((s["left"] for s in slots), np.int32, count),
        right=np.fromiter((s["right"] for s in slots), np.int32, count),
        default_left=np.fromiter((s["default_left"] for s in slots),
                                 np.bool_, count),
        leaf_slot=np.fromiter((s["leaf_slot"] for s in slots), np.int32,
                              count),
        leaf_weights=weights,
        tree_root=tree_root,
        tree_depth=tree_depth,
        backend=backend,
    )


def _compile_tree(tree: Tree, slots: List[dict],
                  leaf_weights: List[np.ndarray]) -> int:
    """Append one tree's nodes to ``slots`` breadth-first; returns the
    number of traversal steps needed to park every row on a leaf."""
    if 0 not in tree.nodes:
        raise ValueError("tree has no root node")
    base = len(slots)
    order: List[int] = []       # heap node ids, BFS order
    slot_of = {}                # heap node id -> absolute slot
    frontier = [0]
    depth = 0
    level = 0
    while frontier:
        nxt: List[int] = []
        for node_id in frontier:
            slot_of[node_id] = base + len(order)
            order.append(node_id)
            node = tree.nodes[node_id]
            if not node.is_leaf:
                depth = max(depth, level + 1)
                # children go into the next level back to back, which
                # is what makes right == left + 1 hold on every split
                for child in (node.left_child, node.right_child):
                    if child not in tree.nodes:
                        raise ValueError(
                            f"split node {node_id} lacks child {child}"
                        )
                    nxt.append(child)
        frontier = nxt
        level += 1
    for node_id in order:
        node = tree.nodes[node_id]
        slot = slot_of[node_id]
        if node.is_leaf:
            slots.append({
                "feature": 0, "threshold": np.inf, "left": slot,
                "right": slot, "default_left": True,
                "leaf_slot": len(leaf_weights),
            })
            leaf_weights.append(
                np.asarray(node.weight, dtype=np.float64)
            )
        else:
            left = slot_of[node.left_child]
            assert slot_of[node.right_child] == left + 1
            slots.append({
                "feature": node.split.feature,
                "threshold": node.threshold,
                "left": left,
                "right": left + 1,
                "default_left": node.split.default_left,
                "leaf_slot": -1,
            })
    return depth


# ---------------------------------------------------------------------------
# Tree ranges (vertically partitioned / sharded serving)
# ---------------------------------------------------------------------------

def shard_bounds(num_trees: int, num_shards: int) -> List[tuple]:
    """Contiguous ``(start, stop)`` tree ranges of an ``S``-way shard.

    Trees split as evenly as possible; the first ``num_trees % S``
    shards take one extra tree.  When ``S > num_trees`` the trailing
    shards are empty ranges — a legal (all-zero-scoring) shard, so a
    fleet layout can be fixed before the model has grown into it.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    base, extra = divmod(num_trees, num_shards)
    bounds: List[tuple] = []
    start = 0
    for s in range(num_shards):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ---------------------------------------------------------------------------
# The bin-quantized predictor ablation
# ---------------------------------------------------------------------------

def uint8_cuts(cuts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-feature cut arrays as float64, checked to fit uint8 bin ids:
    at most 254 bins per feature (bin values 0..254), because bin 255
    is the missing sentinel."""
    cuts = [np.asarray(c, dtype=np.float64) for c in cuts]
    for f, c in enumerate(cuts):
        if c.size > MISSING_BIN - 1:
            raise ValueError(
                f"feature {f} has {c.size + 1} bins; uint8 bin ids "
                f"support at most {MISSING_BIN} (bin {MISSING_BIN} is "
                f"the missing sentinel)"
            )
    return cuts


def bin_uint8(dense: np.ndarray, cuts: Sequence[np.ndarray]) -> np.ndarray:
    """Row-major ``(num_rows, width)`` uint8 bin ids of a dense batch.

    ``NaN`` becomes the sentinel bin 255, and so does every column
    beyond the cut grid.  The quantized predictor and the prediction
    cache's keys both bin through here.
    """
    num, width = dense.shape
    out = np.full((num, width), MISSING_BIN, dtype=np.uint8)
    for f in range(min(width, len(cuts))):
        col = dense[:, f]
        ok = ~np.isnan(col)
        if ok.any():
            out[ok, f] = np.searchsorted(cuts[f], col[ok])
    return out


class QuantizedEnsemble:
    """Bin-quantized view of a :class:`CompiledEnsemble`.

    Every split threshold a histogram-trained model carries is one of
    the training cut values, so after ``bin_dataset`` the float
    comparison ``value <= cuts[f][b]`` is equivalent to the integer
    comparison ``bin(value) <= b`` (for strictly increasing cuts,
    ``v <= cuts[b]`` iff the count of cuts strictly below ``v`` is at
    most ``b``).  This class rewrites thresholds to ``int16`` bin
    indices and traverses **uint8** binned batches: for a wide model the
    per-level gathers read an array 8x smaller than the float64 batch,
    which keeps it cache-resident at serving batch sizes.

    Routing and score accumulation reuse the compiled ensemble's walk
    tables with only the threshold table swapped, so raw scores are
    *bit-identical* to :meth:`CompiledEnsemble.raw_scores` on the same
    rows.  Missing entries quantize to the sentinel bin 255 and follow
    the split's default direction (see
    :class:`~repro.core.kernels.WalkTables`); leaf slots carry threshold
    255 so every bin value (sentinel included) parks.  Requires at most 254
    bins per feature (bin values 0..254 plus the sentinel).
    """

    def __init__(self, compiled: CompiledEnsemble,
                 cuts: Sequence[np.ndarray], backend=None) -> None:
        self.compiled = compiled
        self.cuts = uint8_cuts(cuts)
        self.backend = (make_backend(backend) if backend is not None
                        else compiled.backend)
        self.threshold_bin = np.full(compiled.num_slots, MISSING_BIN,
                                     dtype=np.int16)
        for slot in np.flatnonzero(compiled.leaf_slot < 0):
            f = int(compiled.feature[slot])
            t = float(compiled.threshold[slot])
            c = self.cuts[f] if f < len(self.cuts) else None
            b = int(np.searchsorted(c, t)) if c is not None else 0
            if c is None or b >= c.size or c[b] != t:
                raise ValueError(
                    f"slot {slot} splits feature {f} at {t!r}, which is "
                    "not on the bin grid — the model must be trained on "
                    "the same binning the quantizer is given"
                )
            self.threshold_bin[slot] = b
        self.threshold_bin.setflags(write=False)
        self._tables = replace(compiled._tables,
                               threshold=self.threshold_bin)

    @property
    def num_trees(self) -> int:
        return self.compiled.num_trees

    @property
    def gradient_dim(self) -> int:
        return self.compiled.gradient_dim

    @property
    def nbytes(self) -> int:
        """Bytes of the quantized threshold array on top of the
        compiled arrays it shares."""
        return self.compiled.nbytes + self.threshold_bin.nbytes

    def __repr__(self) -> str:
        return (
            f"QuantizedEnsemble(trees={self.num_trees}, "
            f"slots={self.compiled.num_slots}, "
            f"backend={self.backend.name!r})"
        )

    def bin_batch(self, features: FeatureBatch) -> np.ndarray:
        """Row-major ``(num_rows, width)`` uint8 binned batch.

        Missing entries (NaN after densification, or unstored sparse
        entries) become the sentinel bin 255; columns beyond the
        training cuts are all-missing.  Bin once, serve many.
        """
        return bin_uint8(self.compiled.densify(features), self.cuts)

    def raw_scores_binned(self, binned: np.ndarray,
                          num_trees: Optional[int] = None) -> np.ndarray:
        """Raw scores of an already-binned row-major uint8 batch — the
        serve-time hot path once inputs are quantized."""
        if binned.ndim != 2 or binned.dtype != np.uint8:
            raise ValueError("binned batch must be a 2-D uint8 array")
        if binned.shape[1] < self.compiled.num_features:
            raise ValueError(
                f"binned batch has {binned.shape[1]} columns; the model "
                f"splits on features up to {self.compiled.num_features - 1}"
            )
        use = (self.num_trees if num_trees is None
               else min(num_trees, self.num_trees))
        out = np.zeros((binned.shape[0], self.gradient_dim),
                       dtype=np.float64)
        self.backend.fold_scores(self._tables, np.ascontiguousarray(binned),
                                 use, out)
        return out

    def raw_scores(self, features: FeatureBatch,
                   num_trees: Optional[int] = None) -> np.ndarray:
        """Quantize then traverse; bit-identical to
        :meth:`CompiledEnsemble.raw_scores` on the same rows."""
        return self.raw_scores_binned(self.bin_batch(features),
                                      num_trees=num_trees)


def quantize_ensemble(compiled: CompiledEnsemble,
                      cuts: Sequence[np.ndarray],
                      backend=None) -> QuantizedEnsemble:
    """Rewrite a compiled ensemble's thresholds to bin indices.

    ``cuts`` are the per-feature cut arrays of the
    :class:`~repro.data.dataset.BinnedDataset` the model was trained on
    (``binned.cuts``).  Raises if any threshold is off the bin grid or a
    feature exceeds 254 bins.
    """
    return QuantizedEnsemble(compiled, cuts, backend=backend)
