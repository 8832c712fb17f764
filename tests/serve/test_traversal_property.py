"""Property tests of the traversal behind every backend's ``fold_scores``.

Every backend routes every value with one ``value > cut`` compare: the
missing rule lives in which batch column a slot reads (missing-right
splits read an extension copy of their feature, see
``repro.core.kernels.WalkTables``), and rows walk in the cache-sized
blocks of ``walk_blocks``.  numpy then advances all trees of a block
together and folds each block of trees in one ``np.add.accumulate``;
the loop backends (pyloop, and numba where it imports) walk the same
tables and blocks one row and one tree at a time.  Each of those is a
place to be off by one.  The independent oracle is
``TreeEnsemble.raw_scores``, the node-dict fold that shares none of
the tables or blocks: every case is checked against it bit for bit, on
numpy and on every available loop backend.  ``WALK_BLOCK`` is patched
small so a handful of rows and trees already spans several row and
tree blocks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import available_backends
from repro.core.split import SplitInfo
from repro.core.tree import Tree, TreeEnsemble
from repro.selfcheck import (ADVERSARIAL_CUTS, adversarial_case,
                             missing_as_unstored)
from repro.serve import compile_ensemble, quantize_ensemble

#: batch values: on a cut, just above one, both infinities and missing
_VALUES = np.concatenate([ADVERSARIAL_CUTS, ADVERSARIAL_CUTS + 0.1,
                          [-np.inf, np.inf, np.nan]])


@st.composite
def trees(draw, depth, num_features, dim):
    """A tree whose spine reaches ``depth``; off the spine it may stop
    at any layer (short leaves)."""
    tree = Tree(depth + 1, dim)

    def fill(node, layer, spine):
        if layer == depth or not (spine or draw(st.booleans())):
            tree.set_leaf(node, np.asarray(draw(st.lists(
                st.sampled_from([1e16, -3.0, 0.7, 1e-16]),
                min_size=dim, max_size=dim))))
            return
        tree.set_split(node, SplitInfo(
            feature=draw(st.integers(0, num_features - 1)), bin=0,
            default_left=draw(st.booleans()), gain=1.0),
            float(draw(st.sampled_from(ADVERSARIAL_CUTS))))
        spine_left = draw(st.booleans())
        fill(2 * node + 1, layer + 1, spine and spine_left)
        fill(2 * node + 2, layer + 1, spine and not spine_left)

    fill(0, 0, True)
    return tree


@st.composite
def cases(draw):
    dim = draw(st.sampled_from([1, 3]))
    num_features = draw(st.integers(1, 5))
    ensemble = TreeEnsemble(dim, learning_rate=0.3)
    for depth in draw(st.lists(st.integers(1, 7), min_size=1,
                               max_size=10)):
        ensemble.append(draw(trees(depth, num_features, dim)))
    num_rows = draw(st.sampled_from([1, 2, 5, 17]))
    cells = draw(st.lists(st.integers(0, _VALUES.size - 1),
                          min_size=num_rows * num_features,
                          max_size=num_rows * num_features))
    dense = _VALUES[cells].reshape(num_rows, num_features)
    for row in draw(st.sets(st.integers(0, num_rows - 1), max_size=2)):
        dense[row] = np.nan
    walk_block = draw(st.sampled_from([1, 2, 4, kernels.WALK_BLOCK]))
    return ensemble, dense, walk_block


def tree_at_a_time(ensemble, csc, carry):
    out = carry.copy()
    for tree in ensemble.trees:
        out += ensemble.learning_rate * tree.predict(csc)
    return out


def assert_all_paths_agree(ensemble, dense):
    """Float (ndarray, CSR, CSC), carry-in and uint8 paths of numpy and
    of every available loop backend equal the node-dict folds bit for
    bit."""
    csr = missing_as_unstored(dense)
    csc = csr.to_csc()
    want = ensemble.raw_scores(csc)
    compiled = compile_ensemble(ensemble)
    for batch in (dense, csr, csc):
        np.testing.assert_array_equal(compiled.raw_scores(batch), want)
    carry = np.linspace(-1e8, 1e8, want.size).reshape(want.shape)
    carried = tree_at_a_time(ensemble, csc, carry)
    cuts = [ADVERSARIAL_CUTS] * dense.shape[1]
    loops = [name for name in available_backends() if name != "numpy"]
    for engine in [compiled] + [compile_ensemble(ensemble, backend=name)
                                for name in loops]:
        np.testing.assert_array_equal(engine.raw_scores(dense), want)
        np.testing.assert_array_equal(
            engine.add_raw_scores(dense, carry.copy()), carried)
        np.testing.assert_array_equal(
            quantize_ensemble(engine, cuts).raw_scores(dense), want)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_numpy_traversal_equals_both_oracles(case):
    ensemble, dense, walk_block = case
    with mock.patch.object(kernels, "WALK_BLOCK", walk_block):
        assert_all_paths_agree(ensemble, dense)


def walked_blocks(monkeypatch, backend):
    """Record the first root slot of every numpy ``walk`` call."""
    calls = []
    real = backend.walk

    def spy(tables, roots, depth, flat, lanes):
        calls.append(int(roots[0]))
        return real(tables, roots, depth, flat, lanes)

    monkeypatch.setattr(backend, "walk", spy)
    return calls


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_missing", [False, True])
def test_several_row_and_tree_blocks(monkeypatch, dim, with_missing):
    ensemble, dense = adversarial_case(num_rows=23, gradient_dim=dim,
                                       depths=[1, 7, 3, 5, 2, 6, 4] * 2)
    if not with_missing:
        dense[~np.isfinite(dense)] = 0.25
    monkeypatch.setattr(kernels, "WALK_BLOCK", 4)
    compiled = compile_ensemble(ensemble)
    calls = walked_blocks(monkeypatch, compiled.backend)
    compiled.raw_scores(dense)
    # every row block starts over at tree 0
    row_blocks = calls.count(0)
    assert row_blocks >= 3
    assert len(calls) >= 3 * row_blocks
    assert_all_paths_agree(ensemble, dense)


@pytest.mark.parametrize("quantized", [False, True])
def test_loop_kernel_runs_once_per_row_block(monkeypatch, quantized):
    """The loop backends fold over the same ``walk_blocks`` row blocks as
    numpy: one kernel call per block, over all trees, writing that
    block's slice of the accumulator."""
    ensemble, dense = adversarial_case(num_rows=23, gradient_dim=3,
                                       depths=[1, 7, 3, 5, 2, 6, 4])
    monkeypatch.setattr(kernels, "WALK_BLOCK", 4)
    want = ensemble.raw_scores(missing_as_unstored(dense).to_csc())
    cuts = [ADVERSARIAL_CUTS] * dense.shape[1]
    for name in [n for n in available_backends() if n != "numpy"]:
        engine = compile_ensemble(ensemble, backend=name)
        if quantized:
            engine = quantize_ensemble(engine, cuts)
        calls = []
        real = engine.backend._kernels["fold"]
        monkeypatch.setitem(
            engine.backend._kernels, "fold",
            lambda *args, real=real: (
                calls.append((args[8], args[9].shape[0])), real(*args))[1])
        np.testing.assert_array_equal(engine.raw_scores(dense), want)
        span = dense.shape[1] + engine._tables.extension.size
        step = max((4 << 2) // span, 1)
        assert len(calls) == -(-dense.shape[0] // step) >= 3
        assert calls == [(len(ensemble.trees),
                          min(step, dense.shape[0] - lo))
                         for lo in range(0, dense.shape[0], step)]


def test_one_row_fold_adds_trees_in_order():
    """One row and one class make the tree axis contiguous, where a
    pairwise ``np.add.reduce`` would round differently from the
    sequential tree-at-a-time fold."""
    for seed in range(8):
        ensemble, dense = adversarial_case(num_rows=1, gradient_dim=1,
                                           seed=seed,
                                           depths=list(range(1, 8)) * 3)
        assert_all_paths_agree(ensemble, dense)


def test_missing_right_split_at_infinity_rejected():
    tree = Tree(2, 1)
    tree.set_split(0, SplitInfo(feature=0, bin=0, default_left=False,
                                gain=1.0), np.inf)
    tree.set_leaf(1, np.array([1.0]))
    tree.set_leaf(2, np.array([-1.0]))
    ensemble = TreeEnsemble(1, 0.3)
    ensemble.append(tree)
    with pytest.raises(ValueError, match="missing-right split"):
        compile_ensemble(ensemble)
