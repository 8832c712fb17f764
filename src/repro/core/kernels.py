"""Pluggable compiled-kernel backends for the histogram and predict hot paths.

The paper's quadrant analysis assumes histogram construction and batch
prediction run at hardware speed; interpreter-side scatter loops would
bottleneck every distributed-plan comparison on the wrong thing.  This
module makes the two hot paths *pluggable*: a :class:`KernelBackend`
owns the innermost kernels —

* the **histogram scatter** behind every
  :class:`~repro.core.histogram.HistogramBuilder` construction kernel:
  one entry point, :meth:`KernelBackend.scatter`, scatter-adds the
  gradients/hessians of binned entries into every row of one output
  histogram (a node's bins, or a whole layer's slot-prefixed ones that
  the builder then views per node);
* the **level-synchronous predictor** behind
  :class:`~repro.serve.compiler.CompiledEnsemble` and its uint8
  bin-quantized variant: one entry point,
  :meth:`KernelBackend.fold_scores`, adds an ensemble's scores into an
  accumulator (numpy advances every row of a batch through *all* trees
  of a block one layer per step; the loop kernel walks the same tables
  row by row).

Three backends are registered:

* ``numpy`` — the always-available portable default: fused ``bincount``
  scatters and vectorized layer-at-a-time traversal (the engine the
  repo's perf history was measured on).
* ``numba`` — optional, auto-detected.  JIT-compiles the module-level
  loop kernels below following the sklearn ``_hist_gradient_boosting``
  idioms: per-entry scatter loops unrolled by 4 so LLVM can
  auto-vectorize, a no-hessian fast path for constant-hessian
  objectives (hessian histogram = bin count x the constant), and
  in-place writes into the caller's output histogram so the hot loop
  allocates nothing.  ``fastmath`` stays **off**: additions run in storage order,
  keeping every backend bit-identical to the numpy baseline.
* ``pyloop`` — the *same* loop kernels interpreted instead of
  JIT-compiled.  Hopeless for speed, invaluable for correctness: it
  proves the numba algorithm bit-identical on machines without numba
  (CI's numpy-only job, this repo's test suite) and serves as the
  reference when debugging a miscompiling numba install.

Backend choice is wired through ``TrainConfig.backend``,
``repro train --backend``, ``repro serve-bench --backend`` and the
advisor's plan pricing; ``repro doctor`` reports what is detected and
self-checks bit-identity.  Set ``REPRO_DISABLE_BACKENDS=numba`` (comma
list) to make detection treat an installed backend as absent — the CI
degradation job uses this to prove the numpy fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

import numpy as np

#: reserved uint8 bin value marking a missing entry in quantized batches
MISSING_BIN = 255

#: entries of the ``(trees x rows)`` position matrix one numpy traversal
#: block may hold: a small batch walks many trees per numpy call, a row
#: block this large walks one tree at a time, and the per-step
#: temporaries stay cache-sized whatever the ensemble.  Four times it,
#: in float64 values (2 MB), bounds a row block's slice of the batch
#: (:func:`walk_blocks`)
WALK_BLOCK = 1 << 16

#: environment variable listing backend names detection must treat as
#: unavailable (comma-separated) — the CI numpy-only job's switch
DISABLE_ENV = "REPRO_DISABLE_BACKENDS"


def _disabled() -> set:
    raw = os.environ.get(DISABLE_ENV, "")
    names = {name.strip() for name in raw.split(",") if name.strip()}
    # the numpy baseline is the registry's availability floor: masking
    # it would leave ``auto`` (and the default) with nothing to resolve
    names.discard("numpy")
    return names


# ---------------------------------------------------------------------------
# The loop kernels (numba-compilable; pyloop runs them interpreted)
# ---------------------------------------------------------------------------
# Every function below is written in the numba-compatible subset: plain
# loops over contiguous arrays, no numpy fancy indexing, module-level
# int constants only.  The ``numba`` backend compiles these exact
# functions with ``njit(fastmath=False)``; the ``pyloop`` backend calls
# them as-is.  Scatter loops are unrolled by 4 (the sklearn
# hist-GBDT hint that lets LLVM auto-vectorize the gather+add), which
# preserves bit-identity: per bin, additions still land in entry order.

def _k_scatter(grad_out, hess_out, keys, entry_rows, grad, hess):
    """Scatter-add grad/hess of each entry at its key (both passes)."""
    n = keys.shape[0]
    for c in range(grad.shape[1]):
        unrolled = 4 * (n // 4)
        for i in range(0, unrolled, 4):
            grad_out[keys[i], c] += grad[entry_rows[i], c]
            grad_out[keys[i + 1], c] += grad[entry_rows[i + 1], c]
            grad_out[keys[i + 2], c] += grad[entry_rows[i + 2], c]
            grad_out[keys[i + 3], c] += grad[entry_rows[i + 3], c]
        for i in range(unrolled, n):
            grad_out[keys[i], c] += grad[entry_rows[i], c]
        unrolled = 4 * (n // 4)
        for i in range(0, unrolled, 4):
            hess_out[keys[i], c] += hess[entry_rows[i], c]
            hess_out[keys[i + 1], c] += hess[entry_rows[i + 1], c]
            hess_out[keys[i + 2], c] += hess[entry_rows[i + 2], c]
            hess_out[keys[i + 3], c] += hess[entry_rows[i + 3], c]
        for i in range(unrolled, n):
            hess_out[keys[i], c] += hess[entry_rows[i], c]


def _k_scatter_no_hess(grad_out, hess_out, keys, entry_rows, grad,
                       hess_const):
    """No-hessian fast path: one gradient pass plus a bin-count pass.

    With a constant per-instance hessian ``h`` the hessian histogram is
    ``count * h`` per bin.  Exactly equal to the scattered sum when
    ``h == 1.0`` (integer-valued sums below 2**53), which is the only
    value trainers hand us (square loss); callers gate on that.
    """
    n = keys.shape[0]
    for c in range(grad.shape[1]):
        unrolled = 4 * (n // 4)
        for i in range(0, unrolled, 4):
            grad_out[keys[i], c] += grad[entry_rows[i], c]
            grad_out[keys[i + 1], c] += grad[entry_rows[i + 1], c]
            grad_out[keys[i + 2], c] += grad[entry_rows[i + 2], c]
            grad_out[keys[i + 3], c] += grad[entry_rows[i + 3], c]
        for i in range(unrolled, n):
            grad_out[keys[i], c] += grad[entry_rows[i], c]
    unrolled = 4 * (n // 4)
    for i in range(0, unrolled, 4):
        hess_out[keys[i], 0] += 1.0
        hess_out[keys[i + 1], 0] += 1.0
        hess_out[keys[i + 2], 0] += 1.0
        hess_out[keys[i + 3], 0] += 1.0
    for i in range(unrolled, n):
        hess_out[keys[i], 0] += 1.0
    if hess_const != 1.0:
        for j in range(hess_out.shape[0]):
            hess_out[j, 0] *= hess_const
    for c in range(1, hess_out.shape[1]):
        for j in range(hess_out.shape[0]):
            hess_out[j, c] = hess_out[j, 0]


def _k_fold(child, column, threshold, scaled, tree_root, tree_depth, flat,
            lanes, use, out):
    """Walk every row of one :func:`walk_blocks` block through trees
    ``0..use``, adding their scores into ``out``.

    Row ``i``'s value for slot ``s`` is ``flat[lanes[i] + column[s]]``,
    so float and uint8 blocks route alike through the extension columns
    (:class:`WalkTables`), with no missing-value test.  Per row, scores
    accumulate in tree order — the same float additions, in the same
    order, as the numpy layer-synchronous path.
    """
    num, dim = out.shape
    for t in range(use):
        root = tree_root[t]
        depth = tree_depth[t]
        for i in range(num):
            pos = root
            lane = lanes[i]
            for _ in range(depth):
                pos = child[pos] + (flat[lane + column[pos]] > threshold[pos])
            for c in range(dim):
                out[i, c] += scaled[pos, c]


#: kernel name -> interpreted implementation (what numba compiles)
LOOP_KERNELS = {
    "scatter": _k_scatter,
    "scatter_no_hess": _k_scatter_no_hess,
    "fold": _k_fold,
}


# ---------------------------------------------------------------------------
# Predictor tables and row blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkTables:
    """The per-slot tables a compiled predictor hands
    :meth:`KernelBackend.fold_scores`.

    Every backend walks the same tables over the same
    :func:`walk_blocks` blocks: a slot's ``child`` and the batch column
    it reads, with the missing rule folded into *which* column that is.
    Each missing-right split reads an **extension column**: a copy of
    its feature appended after the batch's first ``width`` columns.
    Missing values compare above every internal cut there and below it
    everywhere else, so ``value > cut`` alone routes every value:

    * float batches keep the features as they are (``NaN > cut`` is
      false) and map ``NaN`` to ``+inf`` in the extension
      (``np.fmin(column, inf)``), which is why a missing-right split
      may not cut at ``+inf``;
    * uint8 batches keep the sentinel ``MISSING_BIN`` in the extension
      (it exceeds every internal bin cut) and map it to bin 0 in the
      features, which no cut (all ``>= 0``) exceeds.

    Leaves read feature 0 against a cut (``+inf`` / ``MISSING_BIN``)
    no value exceeds, so finished rows park.
    """

    #: per-slot cut: float64 raw value, or int16 bin of a uint8 batch
    threshold: np.ndarray
    #: ``(slots, C)`` shrinkage-scaled leaf rows, zero inside the trees
    scaled: np.ndarray
    tree_root: np.ndarray
    tree_depth: np.ndarray
    #: ``intp`` left child of every slot (leaves point at themselves)
    child: np.ndarray
    #: ``intp`` column each slot reads: its feature, or ``width + k``
    #: for a missing-right split reading extension column ``k``
    column: np.ndarray
    #: ``intp`` feature copied into each extension column
    extension: np.ndarray
    #: batch columns (features) the walk reads ahead of the extension
    width: int


def walk_block_rows(span: int) -> int:
    """Rows of ``span`` float64 columns that fill one walk row block
    (``4 * WALK_BLOCK`` values, about 2 MB; at least one row)."""
    return max((WALK_BLOCK << 2) // max(span, 1), 1)


def walk_blocks(tables: WalkTables, batch: np.ndarray):
    """Row blocks of a row-major ``(rows, width)`` batch, as ``(lo, hi,
    flat, lanes)``: rows ``lo..hi`` with their extension columns
    appended, flattened (``flat``), and each row's start in it
    (``lanes``), so ``flat[lanes[i] + tables.column[s]]`` is row
    ``lo + i``'s value for slot ``s``.

    A block holds ``4 * WALK_BLOCK // (width + extension)`` rows, about
    2 MB of float64 values, so the per-level gathers of
    :meth:`KernelBackend.walk` hit cache however large the batch.  No
    pass looks for missing values first: copying a block costs what
    that scan would.
    """
    num = batch.shape[0]
    span = tables.width + tables.extension.size
    step = walk_block_rows(span)
    for lo in range(0, num, step):
        hi = min(lo + step, num)
        features = batch[lo:hi, :tables.width]
        if batch.dtype == np.uint8:
            # fancy indexing: ``take`` along axis 1 is ~3x slower on uint8
            extension = batch[lo:hi, tables.extension]
            # MISSING_BIN -> 0 by arithmetic: a masked assignment
            # branches per value and stalls on mostly-missing batches
            features = features * (features != MISSING_BIN)
        else:
            extension = batch[lo:hi].take(tables.extension, axis=1)
            np.fmin(extension, np.inf, out=extension)
        block = np.concatenate((features, extension), axis=1)
        yield lo, hi, block.reshape(-1), np.arange(0, (hi - lo) * span,
                                                    span)


class KernelBackend:
    """One engine for the histogram-scatter and predict hot loops.

    The base class *is* the numpy implementation — fused ``bincount``
    scatters and vectorized level-synchronous traversal — so subclasses
    override only the loops they accelerate and inherit the rest.
    Instances own grow-only scratch buffers and must not be shared
    across threads; resolve one per builder/predictor via
    :func:`make_backend`.
    """

    #: registry key
    name = "numpy"
    #: relative histogram-kernel throughput vs numpy (advisor pricing);
    #: numba's factor is pinned by ``bench/backend_bench.py``
    compute_factor = 1.0
    #: larger wins ``auto`` resolution among available backends
    priority = 0

    #: below this many entries the per-call overhead of ``bincount``
    #: dominates its streaming cost, so fusing grad+hess into one call
    #: over stacked weights wins; above it the fusion is a wash and the
    #: doubled-key construction becomes a pure extra memory pass
    FUSE_THRESHOLD = 1 << 16

    def __init__(self) -> None:
        self._scratch: Dict[str, np.ndarray] = {}

    # -- availability ------------------------------------------------------

    @classmethod
    def is_available(cls) -> bool:
        return cls.name not in _disabled()

    @classmethod
    def version(cls) -> str:
        """Toolchain version string shown by ``repro doctor``."""
        return f"numpy {np.__version__}"

    # -- scratch -----------------------------------------------------------

    def _buf(self, key: str, size: int, dtype) -> np.ndarray:
        """Grow-only scratch array; contents undefined on entry."""
        buf = self._scratch.get(key)
        if buf is None or buf.size < size:
            capacity = max(size, 1024)
            if buf is not None:
                capacity = max(capacity, 2 * buf.size)
            buf = np.empty(capacity, dtype=dtype)
            self._scratch[key] = buf
        return buf[:size]

    # -- histogram scatter -------------------------------------------------

    def scatter(self, hist, keys: np.ndarray, entry_rows: np.ndarray,
                grad: np.ndarray, hess: np.ndarray,
                hess_const: Optional[float] = None) -> None:
        """Scatter-add gradients/hessians of ``entry_rows`` at ``keys``.

        The one histogram entry point of a backend.  Fills **every** row
        of ``hist`` (callers may pass a
        :meth:`~repro.core.histogram.Histogram.empty` one): one node's
        ``D·q`` rows, its slot basis, or a whole layer's slot-prefixed
        ``num_slots·D·q`` rows alike.  ``hess_const`` hints that all
        hessians equal that constant; backends may take a no-hessian
        fast path when the result stays bit-identical (only ``1.0``
        qualifies).
        """
        size = len(hist.grad)
        n = keys.size
        if n <= self.FUSE_THRESHOLD:
            kk = self._buf("fused_keys", 2 * n, np.int64)
            kk[:n] = keys
            np.add(keys, size, out=kk[n:])
            w = self._buf("fused_weights", 2 * n, np.float64)
            for c in range(grad.shape[1]):
                np.take(grad[:, c], entry_rows, out=w[:n])
                np.take(hess[:, c], entry_rows, out=w[n:])
                flat = np.bincount(kk, weights=w, minlength=2 * size)
                hist.grad[:, c] = flat[:size]
                hist.hess[:, c] = flat[size:]
            return
        w = self._buf("fused_weights", n, np.float64)
        for c in range(grad.shape[1]):
            np.take(grad[:, c], entry_rows, out=w)
            hist.grad[:, c] = np.bincount(keys, weights=w, minlength=size)
            np.take(hess[:, c], entry_rows, out=w)
            hist.hess[:, c] = np.bincount(keys, weights=w, minlength=size)

    # -- predictor ---------------------------------------------------------

    def walk(self, tables: WalkTables, roots: np.ndarray, depth: int,
             flat: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """``(trees, rows)`` slot of every row of one :func:`walk_blocks`
        block in every tree rooted at ``roots`` after ``depth``
        level-synchronous steps.

        One step is **7 numpy calls**, whatever the number of trees or
        rows: gather each position's column, add the row starts, gather
        the values, gather the cuts, compare, gather the left children,
        add the comparison.  ``value > cut`` alone routes every value,
        because the missing rule was folded into the column a slot
        reads (``tables.column``, see :class:`WalkTables`).  A tree
        shallower than ``depth`` parks on its self-looping leaves, whose
        cut (``+inf`` / ``MISSING_BIN``) sends no value right.
        """
        # every row starts on its tree's root: the first step
        # broadcasts a (trees, 1) column of roots across the lanes
        pos = roots[:, None]
        for _ in range(depth):
            at = tables.column.take(pos) + lanes
            go_right = flat.take(at) > tables.threshold.take(pos)
            pos = tables.child.take(pos) + go_right
        return pos if depth else np.repeat(pos, lanes.size, axis=1)

    def fold_scores(self, tables: WalkTables, batch: np.ndarray, use: int,
                    out: np.ndarray) -> None:
        """Add the shrunken scores of trees ``0..use`` into ``out``.

        The one predictor entry point of a backend: float and quantized
        batches (told apart by ``batch.dtype``; ``batch`` is the
        row-major ``(rows, width)`` C-order array), from a zero
        ``out`` (``raw_scores``) or a carried one (the sharded chain
        fold).  Rows walk in the cache-sized blocks of
        :func:`walk_blocks`; within one, trees advance together,
        ``WALK_BLOCK`` entries of position matrix at a time.  Each such
        block folds in **one call**: its carry and its trees' leaf rows
        are stacked and summed by ``np.add.accumulate`` along the tree
        axis, which adds strictly in sequence — ``((carry + t0) + t1) +
        ...`` — so every element of ``out`` sees the float additions of
        a tree-at-a-time predictor in the same order
        (``np.add.reduce`` would sum pairwise and round differently).
        """
        dim = out.shape[1]
        depths = tables.tree_depth.tolist()
        for lo, hi, flat, lanes in walk_blocks(tables, batch):
            step = max(WALK_BLOCK // lanes.size, 1)
            for first in range(0, use, step):
                last = min(first + step, use)
                pos = self.walk(tables, tables.tree_root[first:last],
                                max(depths[first:last]), flat, lanes)
                stack = np.empty((last - first + 1, lanes.size, dim))
                stack[0] = out[lo:hi]
                # positions are in range; "clip" gathers straight into
                # the stack, where the default mode buffers a copy
                tables.scaled.take(pos, axis=0, out=stack[1:], mode="clip")
                np.add.accumulate(stack, axis=0, out=stack)
                out[lo:hi] = stack[-1]


class PyLoopBackend(KernelBackend):
    """The numba kernels, interpreted — a correctness oracle, not a
    performance backend (advisor prices it ~50x slower than numpy)."""

    name = "pyloop"
    compute_factor = 0.02
    priority = -1

    def __init__(self) -> None:
        super().__init__()
        self._kernels = LOOP_KERNELS

    @classmethod
    def version(cls) -> str:
        return "interpreted loop kernels (reference)"

    def scatter(self, hist, keys, entry_rows, grad, hess, hess_const=None):
        # the loop kernels add in place: zero first, so every row of an
        # un-zeroed (Histogram.empty) output is written
        hist.grad[:] = 0.0
        hist.hess[:] = 0.0
        if hess_const == 1.0:
            self._kernels["scatter_no_hess"](
                hist.grad, hist.hess, keys, entry_rows, grad, hess_const)
        else:
            self._kernels["scatter"](
                hist.grad, hist.hess, keys, entry_rows, grad, hess)

    def fold_scores(self, tables, batch, use, out):
        # the loop kernel accumulates into ``out`` row by row, tree by
        # tree: the carry-in fold is the kernel itself
        for lo, hi, flat, lanes in walk_blocks(tables, batch):
            self._kernels["fold"](tables.child, tables.column,
                                  tables.threshold, tables.scaled,
                                  tables.tree_root, tables.tree_depth, flat,
                                  lanes, use, out[lo:hi])


#: compiled kernel cache shared by every NumbaBackend instance
_NUMBA_KERNELS: Optional[Dict[str, object]] = None


def _compile_numba_kernels() -> Dict[str, object]:
    """JIT-compile the loop kernels once per process.

    ``fastmath`` is off and loops stay in storage order, so the
    compiled kernels perform the identical float additions as the
    interpreted (and numpy) paths — the bit-identity contract.
    """
    global _NUMBA_KERNELS
    if _NUMBA_KERNELS is None:
        import numba

        jit = numba.njit(cache=True, fastmath=False, nogil=True)
        _NUMBA_KERNELS = {
            name: jit(fn) for name, fn in LOOP_KERNELS.items()
        }
    return _NUMBA_KERNELS


class NumbaBackend(PyLoopBackend):
    """JIT-compiled loop kernels (sklearn hist-GBDT shape).

    Same algorithms as ``pyloop`` — per-feature unrolled-by-4 scatter
    over precomposed int64 keys of uint8-range binned columns, the
    no-hessian fast path, allocation-free writes into the output
    histogram — but compiled by numba/LLVM.  Auto-detected; constructing it without
    numba installed raises :class:`BackendUnavailableError`.
    """

    name = "numba"
    compute_factor = 2.5  # pinned by bench/backend_bench.py --check
    priority = 10

    def __init__(self) -> None:
        if not self.is_available():
            raise BackendUnavailableError(
                "numba backend requested but numba is not importable "
                f"(or disabled via {DISABLE_ENV})"
            )
        KernelBackend.__init__(self)
        self._kernels = _compile_numba_kernels()

    @classmethod
    def is_available(cls) -> bool:
        if cls.name in _disabled():
            return False
        try:
            import numba  # noqa: F401
        except Exception:
            return False
        return True

    @classmethod
    def version(cls) -> str:
        import llvmlite
        import numba

        return f"numba {numba.__version__}, llvmlite {llvmlite.__version__}"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class BackendUnavailableError(RuntimeError):
    """A known backend whose toolchain is not importable here."""


#: registry key -> backend class
BACKENDS: Dict[str, Type[KernelBackend]] = {
    cls.name: cls for cls in (KernelBackend, PyLoopBackend, NumbaBackend)
}

#: the always-available portable default
DEFAULT_BACKEND = "numpy"


def available_backends() -> List[str]:
    """Names of backends whose toolchain imports on this machine."""
    return [name for name, cls in BACKENDS.items() if cls.is_available()]


def resolve_backend_name(name: str = "") -> str:
    """Canonical backend name for a config string.

    Empty means the portable default; ``"auto"`` picks the
    highest-priority available backend (numba when installed).
    """
    if not name:
        return DEFAULT_BACKEND
    if name == "auto":
        best = max(
            (cls for cls in BACKENDS.values() if cls.is_available()),
            key=lambda cls: cls.priority,
            default=KernelBackend,
        )
        return best.name
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: "
            f"{', '.join(sorted(BACKENDS))} (or 'auto')"
        )
    return name


def make_backend(name: "str | KernelBackend | None" = None) -> KernelBackend:
    """A fresh backend instance for a name, ``None``/``""``, ``"auto"``,
    or an already-constructed instance (returned as-is)."""
    if isinstance(name, KernelBackend):
        return name
    canonical = resolve_backend_name(name or "")
    cls = BACKENDS[canonical]
    if not cls.is_available():
        raise BackendUnavailableError(
            f"kernel backend {canonical!r} is not available on this "
            f"machine (available: {', '.join(available_backends())})"
        )
    return cls()


def compute_factor(name: str = "") -> float:
    """Relative histogram-kernel throughput vs numpy (advisor pricing)."""
    return BACKENDS[resolve_backend_name(name)].compute_factor


@dataclass(frozen=True)
class BackendInfo:
    """One row of ``repro doctor``'s detection report."""

    name: str
    available: bool
    version: str
    default: bool

    def describe(self) -> str:
        state = "available" if self.available else "not available"
        tag = " (default)" if self.default else ""
        return f"{self.name}: {state} — {self.version}{tag}"


def detect_backends() -> List[BackendInfo]:
    """Availability + toolchain version of every registered backend."""
    infos = []
    for name, cls in BACKENDS.items():
        available = cls.is_available()
        if available:
            try:
                version = cls.version()
            except Exception as exc:  # pragma: no cover - defensive
                available, version = False, f"version probe failed: {exc}"
        else:
            version = ("disabled via " + DISABLE_ENV
                       if name in _disabled() else "toolchain not importable")
        infos.append(BackendInfo(name, available, version,
                                 default=name == DEFAULT_BACKEND))
    return infos
