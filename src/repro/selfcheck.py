"""Bit-identity self-checks of the kernel backends.

``repro doctor`` needs a fast, deterministic answer to "does every
backend that *imports* on this machine also *compute* the same bits as
the numpy baseline?" — a numba install with a miscompiling LLVM is far
worse than no numba at all, because training would silently diverge.
This module runs each backend through every hot path the registry plans
exercise (all four histogram kernels via a small training run, the
no-hessian fast path, the compiled float predictor, the bin-quantized
predictor, both predictors again on an adversarial batch) and compares
against the numpy reference with **exact** float equality, mirroring the
contract the test suite enforces at scale.

The whole battery is sized to finish in about a second per backend
(plus numba's one-off JIT warm-up), so the doctor can run it on every
invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import ClusterConfig, TrainConfig
from .core.gbdt import GBDT
from .core.histogram import HistogramBuilder
from .core.kernels import available_backends, make_backend
from .core.split import SplitInfo
from .core.tree import Tree, TreeEnsemble
from .data.dataset import Dataset, bin_dataset
from .data.matrix import CSRMatrix
from .data.synthetic import make_classification
from .serve.compiler import compile_ensemble, quantize_ensemble


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one backend's bit-identity battery."""

    backend: str
    passed: bool
    checks: int
    detail: str = ""

    def describe(self) -> str:
        state = "bit-identical" if self.passed else "MISCOMPARE"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{self.backend}: {state} ({self.checks} checks){tail}"


def _tree_signature(tree) -> tuple:
    """Hashable exact encoding of one tree (splits + leaf weights)."""
    items = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.is_leaf:
            items.append((node_id, "leaf",
                          tuple(np.asarray(node.weight).ravel().tolist())))
        else:
            items.append((node_id, "split", node.split.feature,
                          node.threshold, node.split.default_left))
    return tuple(items)


def _fixture(seed: int = 5):
    """One small mixed-density dataset pair (classification + regression)
    shared by every backend's battery."""
    clf = make_classification(300, 25, density=0.45, seed=seed)
    reg = Dataset(clf.features,
                  np.asarray(clf.labels, dtype=np.float64) * 2.0 - 0.5,
                  task="regression", name="selfcheck-reg")
    return clf, bin_dataset(clf, 12), reg, bin_dataset(reg, 12)


def _train_signature(dataset, binned, objective: str,
                     backend: Optional[str]) -> tuple:
    cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=12,
                      objective=objective, backend=backend or "")
    result = GBDT(cfg).fit(dataset, binned=binned)
    return (tuple(_tree_signature(t) for t in result.ensemble.trees),
            result.ensemble)


#: the cut grid of :func:`adversarial_case`: thresholds sit on it (so
#: the ensemble quantizes) and so do many batch values
ADVERSARIAL_CUTS = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])


def adversarial_case(num_rows: int = 40, gradient_dim: int = 3,
                     num_features: int = 6, seed: int = 0,
                     depths: Sequence[int] = range(1, 8)):
    """``(ensemble, dense)``: a hand-grown ensemble and a batch built to
    break a traversal.

    Tree ``t`` reaches ``depths[t]`` along one spine and stops early
    elsewhere (short leaves), and every split draws its default
    direction.  The batch mixes values exactly at a cut, just above
    one, ``±inf`` and ``NaN`` (missing), and holds an all-missing row.  Leaf weights span
    32 orders of magnitude, so a fold that adds trees out of order
    shows.  Thresholds sit on :data:`ADVERSARIAL_CUTS`, so the ensemble
    also quantizes.
    """
    rng = np.random.default_rng(seed)
    ensemble = TreeEnsemble(gradient_dim, learning_rate=0.3)
    for depth in depths:
        tree = Tree(depth + 1, gradient_dim)
        stack = [(0, 0, True)]
        while stack:
            node, layer, spine = stack.pop()
            if layer == depth or not (spine or rng.random() < 0.5):
                tree.set_leaf(node, rng.standard_normal(gradient_dim)
                              * rng.choice([1e16, 1.0, 1e-16]))
                continue
            tree.set_split(node, SplitInfo(
                feature=int(rng.integers(num_features)), bin=0,
                default_left=bool(rng.random() < 0.5), gain=1.0),
                float(rng.choice(ADVERSARIAL_CUTS)))
            spine_left = bool(rng.random() < 0.5)
            stack.append((2 * node + 1, layer + 1, spine and spine_left))
            stack.append((2 * node + 2, layer + 1,
                          spine and not spine_left))
        ensemble.append(tree)
    values = np.concatenate([ADVERSARIAL_CUTS, ADVERSARIAL_CUTS + 0.1,
                             [-np.inf, np.inf, np.nan, np.nan]])
    dense = rng.choice(values, size=(num_rows, num_features))
    dense[0] = np.nan
    return ensemble, dense


def missing_as_unstored(dense: np.ndarray) -> CSRMatrix:
    """The sparse form of a ``NaN``-marked dense batch: every non-NaN
    cell stored, every ``NaN`` missing."""
    return CSRMatrix.from_rows(
        [[(j, float(v)) for j, v in enumerate(row) if not np.isnan(v)]
         for row in dense], dense.shape[1])


def check_backend(name: str, reference: str = "numpy") -> CheckResult:
    """Run one backend's bit-identity battery against ``reference``.

    Covers the reference trainer's scatter path (logistic hessians), the
    no-hessian fast path (square loss), a layer-synchronous plan that
    exercises the slotted scatter (QD1) plus the subtraction-heavy plan
    (Vero), both serving traversals, a row-store build plus subtraction
    in a sparse shard's slot basis, and both traversals again on the
    :func:`adversarial_case` batch.  Every comparison is exact.
    """
    checks = 0
    try:
        backend = make_backend(name)
    except Exception as exc:
        return CheckResult(name, False, checks, f"construction failed: {exc}")
    del backend
    clf, clf_binned, reg, reg_binned = _fixture()
    try:
        # 1-2: single-process training, logistic + square (no-hess path)
        for dataset, binned, objective in ((clf, clf_binned, "binary"),
                                           (reg, reg_binned, "regression")):
            ref_sig, ref_ens = _train_signature(dataset, binned, objective,
                                                reference)
            got_sig, got_ens = _train_signature(dataset, binned, objective,
                                                name)
            checks += 1
            if ref_sig != got_sig:
                return CheckResult(
                    name, False, checks,
                    f"{objective} training trees diverged from "
                    f"{reference}")
        # 3-4: distributed plans — slotted scatter (qd1), subtraction (vero)
        from .systems.plans import get_plan

        cluster = ClusterConfig(num_workers=3)
        for plan_key in ("qd1", "vero"):
            sigs = []
            for candidate in (reference, name):
                cfg = TrainConfig(num_trees=2, num_layers=4,
                                  num_candidates=12, backend=candidate)
                res = get_plan(plan_key).build(cfg, cluster).fit(clf_binned)
                sigs.append(tuple(_tree_signature(t)
                                  for t in res.ensemble.trees))
            checks += 1
            if sigs[0] != sigs[1]:
                return CheckResult(
                    name, False, checks,
                    f"plan {plan_key} trees diverged from {reference}")
        # 5: compiled float predictor
        _, ens = _train_signature(clf, clf_binned, "binary", reference)
        batch = clf.csc()
        ref_scores = compile_ensemble(ens, backend=reference).raw_scores(
            batch)
        got_scores = compile_ensemble(ens, backend=name).raw_scores(batch)
        checks += 1
        if not np.array_equal(ref_scores, got_scores):
            return CheckResult(name, False, checks,
                               "compiled predictor scores diverged")
        # 6: bin-quantized predictor
        quant = quantize_ensemble(compile_ensemble(ens, backend=name),
                                  clf_binned.cuts)
        checks += 1
        if not np.array_equal(ref_scores, quant.raw_scores(batch)):
            return CheckResult(name, False, checks,
                               "quantized predictor scores diverged")
        # 7: raw scatter parity on a standalone builder (pool + dtype)
        builder = HistogramBuilder(backend=name)
        ref_builder = HistogramBuilder(backend=reference)
        grad = np.ascontiguousarray(
            np.linspace(-1.0, 1.0, clf.num_instances)[:, None])
        hess = np.abs(grad) + 0.5
        rows = np.arange(0, clf.num_instances, 2, dtype=np.int64)
        got_hist, _ = builder.build_rowstore(clf_binned.binned, rows,
                                             grad, hess,
                                             clf_binned.num_bins)
        ref_hist, _ = ref_builder.build_rowstore(clf_binned.binned, rows,
                                                 grad, hess,
                                                 clf_binned.num_bins)
        checks += 1
        if not (np.array_equal(ref_hist.grad, got_hist.grad)
                and np.array_equal(ref_hist.hess, got_hist.hess)):
            return CheckResult(name, False, checks,
                               "row-store scatter bins diverged")
        # 8: a sparse shard's slot-basis build, and a subtraction in it,
        # under both the scattered and the constant (no-hess) hessian
        sparse = bin_dataset(make_classification(
            300, 200, density=0.01, num_informative=10,
            informative_density=0.5, seed=7), 12)
        shard = sparse.binned
        if shard.hist_basis(sparse.num_bins) is None:
            raise AssertionError("the sparse fixture shard has no basis")
        for constant in (None, 1.0):
            builder.constant_hessian = constant
            ref_builder.constant_hessian = constant
            node_hess = np.ones_like(grad) if constant else hess
            pair = []
            for engine in (ref_builder, builder):
                parent, _ = engine.build_rowstore(
                    shard, np.arange(shard.num_rows), grad, node_hess,
                    sparse.num_bins)
                child, _ = engine.build_rowstore(shard, rows, grad,
                                                 node_hess, sparse.num_bins)
                pair.append(engine.subtract(parent, child).to_dense())
            checks += 1
            if not (np.array_equal(pair[0].grad, pair[1].grad)
                    and np.array_equal(pair[0].hess, pair[1].hess)):
                return CheckResult(name, False, checks,
                                   "slot-basis build or subtract diverged")
        # 10: both traversals on the adversarial batch, from zeros and
        # from a carry: the reference's scores, which must also be the
        # node-dict ensemble's own tree-at-a-time fold
        ens, dense = adversarial_case()
        csc = missing_as_unstored(dense).to_csc()
        carry = np.linspace(-1e8, 1e8, dense.shape[0] * ens.gradient_dim)
        carry = carry.reshape(dense.shape[0], ens.gradient_dim)
        carried = carry.copy()
        for tree in ens.trees:
            carried += ens.learning_rate * tree.predict(csc)
        want = ens.raw_scores(csc)
        cuts = [ADVERSARIAL_CUTS] * dense.shape[1]
        checks += 1
        for engine in (reference, name):
            compiled = compile_ensemble(ens, backend=engine)
            if not (np.array_equal(compiled.raw_scores(dense), want)
                    and np.array_equal(quantize_ensemble(
                        compiled, cuts).raw_scores(dense), want)
                    and np.array_equal(compiled.add_raw_scores(
                        dense, carry.copy()), carried)):
                return CheckResult(name, False, checks,
                                   f"{engine} traversal of the "
                                   "adversarial batch diverged")
    except Exception as exc:
        return CheckResult(name, False, checks, f"check crashed: {exc}")
    return CheckResult(name, True, checks)


def check_available_backends(reference: str = "numpy") -> List[CheckResult]:
    """Bit-identity battery for every backend detection reports."""
    return [check_backend(name, reference=reference)
            for name in available_backends()]
