"""Compiled-ensemble tests: structure, exactness, input formats.

The load-bearing guarantee is *bit identity*: the compiled
level-synchronous predictor must return literally the same float64
values as ``TreeEnsemble.raw_scores`` — every assertion here is
``array_equal``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, get_plan
from repro.core import kernels
from repro.core.split import SplitInfo
from repro.core.tree import Tree, TreeEnsemble
from repro.data.matrix import CSRMatrix
from repro.serve import (RequestTrace, compile_ensemble, quantize_ensemble,
                         shard_ensemble)
from repro.serve.compiler import _FEATURE_MASK
from repro.serve.sharded import reduce_shard_scores
from repro.systems import PLANS


@pytest.fixture(scope="module")
def trained(small_binary):
    cfg = TrainConfig(num_trees=4, num_layers=5, num_candidates=8)
    return GBDT(cfg).fit(small_binary).ensemble, small_binary


@pytest.fixture(scope="module")
def compiled(trained):
    return compile_ensemble(trained[0])


class TestStructure:
    def test_children_adjacent_and_leaves_self_loop(self, compiled):
        internal = compiled.leaf_slot < 0
        np.testing.assert_array_equal(
            compiled.right[internal], compiled.left[internal] + 1
        )
        leaves = ~internal
        slots = np.arange(compiled.num_slots, dtype=np.int32)
        np.testing.assert_array_equal(compiled.left[leaves],
                                      slots[leaves])
        assert np.all(np.isinf(compiled.threshold[leaves]))
        assert np.all(compiled.default_left[leaves])

    def test_tree_roots_partition_slots(self, trained, compiled):
        ensemble = trained[0]
        assert compiled.tree_root[0] == 0
        assert compiled.tree_root[-1] == compiled.num_slots
        sizes = np.diff(compiled.tree_root)
        for tree, size in zip(ensemble.trees, sizes):
            assert size == len(tree.nodes)

    def test_leaf_weights_unscaled(self, trained, compiled):
        ensemble = trained[0]
        assert compiled.num_leaves == sum(
            tree.num_leaves for tree in ensemble.trees
        )
        # root tree's first BFS leaf weight appears verbatim
        weights = {
            tuple(node.weight.tolist())
            for tree in ensemble.trees
            for node in tree.nodes.values() if node.is_leaf
        }
        for row in compiled.leaf_weights:
            assert tuple(row.tolist()) in weights

    def test_arrays_read_only(self, compiled):
        with pytest.raises(ValueError):
            compiled.threshold[0] = 0.0

    def test_introspection(self, compiled):
        assert compiled.nbytes > 0
        assert "CompiledEnsemble" in repr(compiled)

    def test_feature_id_overflow_rejected(self):
        tree = Tree(2, 1)
        tree.set_split(0, SplitInfo(feature=_FEATURE_MASK + 1, bin=0,
                                    default_left=True, gain=1.0), 0.5)
        tree.set_leaf(1, np.array([1.0]))
        tree.set_leaf(2, np.array([-1.0]))
        ensemble = TreeEnsemble(1, 0.3)
        ensemble.append(tree)
        with pytest.raises(ValueError, match="packed limit"):
            compile_ensemble(ensemble)

    def test_missing_child_rejected(self):
        tree = Tree(2, 1)
        tree.set_split(0, SplitInfo(feature=0, bin=0, default_left=True,
                                    gain=1.0), 0.5)
        tree.set_leaf(1, np.array([1.0]))  # right child absent
        ensemble = TreeEnsemble(1, 0.3)
        ensemble.append(tree)
        with pytest.raises(ValueError, match="lacks child"):
            compile_ensemble(ensemble)


class TestExactness:
    def test_bit_identical_on_training_data(self, trained, compiled):
        ensemble, dataset = trained
        csc = dataset.csc()
        np.testing.assert_array_equal(
            compiled.raw_scores(csc), ensemble.raw_scores(csc)
        )

    def test_bit_identical_on_sparse_data(self, small_sparse):
        cfg = TrainConfig(num_trees=3, num_layers=5, num_candidates=8)
        ensemble = GBDT(cfg).fit(small_sparse).ensemble
        compiled = compile_ensemble(ensemble)
        csc = small_sparse.csc()
        np.testing.assert_array_equal(
            compiled.raw_scores(csc), ensemble.raw_scores(csc)
        )

    def test_bit_identical_multiclass(self, small_multiclass):
        cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8,
                          objective="multiclass", num_classes=4)
        ensemble = GBDT(cfg).fit(small_multiclass).ensemble
        compiled = compile_ensemble(ensemble)
        assert compiled.gradient_dim == 4
        csc = small_multiclass.csc()
        np.testing.assert_array_equal(
            compiled.raw_scores(csc), ensemble.raw_scores(csc)
        )

    def test_csr_and_dense_inputs_agree(self, trained, compiled):
        ensemble, dataset = trained
        csc = dataset.csc()
        csr = csc.to_csr() if hasattr(csc, "to_csr") else dataset.features
        want = ensemble.raw_scores(csc)
        np.testing.assert_array_equal(compiled.raw_scores(csr), want)
        np.testing.assert_array_equal(
            compiled.raw_scores(compiled.densify(csc)), want
        )

    def test_num_trees_prefix(self, trained, compiled):
        ensemble, dataset = trained
        csc = dataset.csc()
        for use in (0, 1, 2, len(ensemble), len(ensemble) + 5):
            np.testing.assert_array_equal(
                compiled.raw_scores(csc, num_trees=use),
                ensemble.raw_scores(csc, num_trees=use),
            )

    def test_narrow_batch_padded(self, trained, compiled):
        # a batch with fewer columns than the model expects: the extra
        # columns are all-missing, same as an empty tail in sparse form
        ensemble, dataset = trained
        dense = compiled.densify(dataset.csc())
        narrow = dense[:, :3].copy()
        rows = [
            [(j, float(v)) for j, v in enumerate(row) if not np.isnan(v)]
            for row in narrow
        ]
        # reference CSC keeps full width (empty tail columns = missing)
        csr = CSRMatrix.from_rows(rows, compiled.num_features)
        np.testing.assert_array_equal(
            compiled.raw_scores(narrow),
            ensemble.raw_scores(csr.to_csc()),
        )

    def test_empty_ensemble(self):
        compiled = compile_ensemble(TreeEnsemble(2, 0.1))
        scores = compiled.raw_scores(np.zeros((5, 3)))
        np.testing.assert_array_equal(scores, np.zeros((5, 2)))

    def test_single_leaf_tree(self):
        tree = Tree(2, 1)
        tree.set_leaf(0, np.array([0.75]))
        ensemble = TreeEnsemble(1, 0.3)
        ensemble.append(tree)
        compiled = compile_ensemble(ensemble)
        scores = compiled.raw_scores(np.full((4, 1), np.nan))
        np.testing.assert_array_equal(scores, np.full((4, 1), 0.3 * 0.75))


class TestInputHandling:
    def test_densify_rejects_bad_inputs(self, compiled):
        with pytest.raises(ValueError, match="2-D"):
            compiled.densify(np.zeros(3))
        with pytest.raises(TypeError, match="unsupported batch"):
            compiled.densify([[1.0, 2.0]])
        with pytest.raises(TypeError, match="unsupported batch"):
            compiled.raw_scores([[1.0, 2.0]])

    def test_densify_passthrough_and_pad(self, compiled):
        width = compiled.num_features
        exact = np.zeros((2, width))
        assert compiled.densify(exact).shape == (2, width)
        padded = compiled.densify(np.zeros((2, 1)))
        assert padded.shape == (2, width)
        assert np.isnan(padded[:, 1:]).all()

    def test_densify_csr_matches_csc(self, trained, compiled):
        csc = trained[1].csc()
        np.testing.assert_array_equal(
            compiled.densify(csc.to_csr()), compiled.densify(csc)
        )

    def test_assign_leaves_reach_leaf_slots(self, trained, compiled):
        dense = compiled.densify(trained[1].csc())
        for tree in range(compiled.num_trees):
            slots = compiled.assign_leaves(dense, tree)
            assert np.all(compiled.leaf_slot[slots] >= 0)
            assert np.all(slots >= compiled.tree_root[tree])
            assert np.all(slots < compiled.tree_root[tree + 1])


#: per-feature cut grid of the hand-grown ensembles below: thresholds
#: sit on it (so the ensembles quantize) and so do batch values (so the
#: ``value == threshold`` boundary is hit routinely)
_CUTS = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
_NUM_FEATURES = 5
#: steps below the root of each tree's deepest leaf — unequal inside
#: any block, a single-leaf tree first, last and in the middle
_DEPTHS = (0, 3, 1, 4, 0, 2, 4, 1, 3, 0)


def grown_tree(rng, depth, dim):
    """A random tree whose deepest leaf sits ``depth`` steps below the
    root.  Leaf weights span 32 orders of magnitude, so a running sum
    over trees depends on the order the trees are added in."""
    tree = Tree(max(depth + 1, 2), dim)

    def fill(node_id, layer, spine):
        if layer == depth or not (spine or rng.random() < 0.6):
            tree.set_leaf(node_id, rng.standard_normal(dim)
                          * rng.choice([1e16, 1.0, 1e-16]))
            return
        tree.set_split(node_id, SplitInfo(
            feature=int(rng.integers(_NUM_FEATURES)), bin=0,
            default_left=bool(rng.random() < 0.5), gain=1.0),
            float(rng.choice(_CUTS)))
        # one child carries the spine down to the full depth
        spine_left = rng.random() < 0.5
        fill(2 * node_id + 1, layer + 1, spine and spine_left)
        fill(2 * node_id + 2, layer + 1, spine and not spine_left)

    fill(0, 0, True)
    return tree


def grown_ensemble(dim, depths=_DEPTHS, seed=5):
    rng = np.random.default_rng(seed)
    ensemble = TreeEnsemble(dim, learning_rate=0.3)
    for depth in depths:
        ensemble.append(grown_tree(rng, depth, dim))
    return ensemble


def grid_batch(num_rows, with_nan, seed=9):
    rng = np.random.default_rng(seed)
    dense = rng.choice(np.concatenate([_CUTS, _CUTS + 0.1, [-9.0, 9.0]]),
                       size=(num_rows, _NUM_FEATURES))
    if with_nan:
        dense[rng.random(dense.shape) < 0.3] = np.nan
    return dense


def tree_at_a_time(ensemble, dense, carry=None, num_trees=None):
    """The fold the compiled predictor must reproduce bit for bit: one
    ``+=`` per tree, in tree order, on ``Tree.predict``'s own routing —
    nothing of the compiled traversal is involved."""
    csc = RequestTrace(features=dense,
                       arrivals=np.zeros(dense.shape[0])).csc()
    out = (np.zeros((dense.shape[0], ensemble.gradient_dim))
           if carry is None else carry.copy())
    for tree in ensemble.trees[:num_trees]:
        out += ensemble.learning_rate * tree.predict(csc)
    return out


class TestAllTreesTraversal:
    """Every tree of a block advances in one position matrix; the fold
    into the accumulator must still be the tree-at-a-time one."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("with_nan", [False, True])
    @pytest.mark.parametrize("num_rows", [1, 6, 64])
    def test_unequal_depths_in_one_block(self, dim, with_nan, num_rows):
        ensemble = grown_ensemble(dim)
        compiled = compile_ensemble(ensemble)
        assert sorted(set(compiled.tree_depth)) == [0, 1, 2, 3, 4]
        assert num_rows * compiled.num_trees < kernels.WALK_BLOCK
        dense = grid_batch(num_rows, with_nan)
        want = tree_at_a_time(ensemble, dense)
        np.testing.assert_array_equal(compiled.raw_scores(dense), want)
        # the order-sensitive weights make the oracle worth having:
        # the same trees summed back to front give other floats
        backwards = TreeEnsemble(dim, ensemble.learning_rate)
        for tree in reversed(ensemble.trees):
            backwards.append(tree)
        assert not np.array_equal(tree_at_a_time(backwards, dense), want)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_tree_prefixes(self, dim):
        ensemble = grown_ensemble(dim)
        compiled = compile_ensemble(ensemble)
        dense = grid_batch(6, with_nan=True)
        for use in (0, 1, 2, 5, len(_DEPTHS), len(_DEPTHS) + 3):
            np.testing.assert_array_equal(
                compiled.raw_scores(dense, num_trees=use),
                tree_at_a_time(ensemble, dense, num_trees=use))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_block_boundary_inside_the_ensemble(self, dim, with_nan):
        ensemble = grown_ensemble(dim)
        compiled = compile_ensemble(ensemble)
        num_rows = kernels.WALK_BLOCK // 3
        # three trees fit a block, the ensemble has ten: 3 + 3 + 3 + 1
        assert 1 < kernels.WALK_BLOCK // num_rows < compiled.num_trees
        dense = grid_batch(num_rows, with_nan)
        np.testing.assert_array_equal(compiled.raw_scores(dense),
                                      tree_at_a_time(ensemble, dense))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("num_rows", [1, 6, 64])
    def test_carry_in_fold(self, dim, num_rows):
        ensemble = grown_ensemble(dim)
        compiled = compile_ensemble(ensemble)
        dense = grid_batch(num_rows, with_nan=True)
        carry = np.random.default_rng(2).standard_normal(
            (num_rows, dim)) * 1e8
        acc = carry.copy()
        assert compiled.add_raw_scores(dense, acc) is acc
        np.testing.assert_array_equal(
            acc, tree_at_a_time(ensemble, dense, carry=carry))

    def test_single_leaf_tree_alone(self):
        ensemble = grown_ensemble(3, depths=(0,))
        compiled = compile_ensemble(ensemble)
        assert compiled.num_slots == 1 and compiled.tree_depth[0] == 0
        dense = grid_batch(6, with_nan=True)
        np.testing.assert_array_equal(compiled.raw_scores(dense),
                                      tree_at_a_time(ensemble, dense))

    def test_empty_ensemble(self):
        compiled = compile_ensemble(TreeEnsemble(3, 0.3))
        dense = grid_batch(6, with_nan=True)
        np.testing.assert_array_equal(compiled.raw_scores(dense),
                                      np.zeros((6, 3)))
        carry = np.arange(18.0).reshape(6, 3)
        np.testing.assert_array_equal(
            compiled.add_raw_scores(dense, carry.copy()), carry)

    def test_accumulator_validated(self):
        compiled = compile_ensemble(grown_ensemble(3))
        dense = grid_batch(6, with_nan=False)
        with pytest.raises(ValueError, match="accumulator shape"):
            compiled.add_raw_scores(dense, np.zeros((6, 1)))
        with pytest.raises(ValueError, match="accumulator shape"):
            compiled.add_raw_scores(dense, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="float64"):
            compiled.add_raw_scores(dense,
                                    np.zeros((6, 3), dtype=np.float32))

    @pytest.mark.parametrize("with_nan", [False, True])
    @pytest.mark.parametrize("num_rows",
                             [1, 6, 64, kernels.WALK_BLOCK // 3])
    def test_quantized_walk_takes_the_same_step(self, with_nan, num_rows):
        ensemble = grown_ensemble(3)
        quant = quantize_ensemble(compile_ensemble(ensemble),
                                  [_CUTS] * _NUM_FEATURES)
        dense = grid_batch(num_rows, with_nan)
        want = tree_at_a_time(ensemble, dense)
        np.testing.assert_array_equal(quant.raw_scores(dense), want)
        np.testing.assert_array_equal(
            quant.raw_scores(dense, num_trees=4),
            tree_at_a_time(ensemble, dense, num_trees=4))


class TestLoopBackendChainFold:
    """A model compiled for a loop backend runs *its* kernel on every
    member of a sharded chain, not only on the head."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_pyloop_chain_equals_numpy_equals_monolithic(self, dim,
                                                         num_shards):
        ensemble = grown_ensemble(dim)
        dense = grid_batch(6, with_nan=True)
        folds = {}
        for backend in ("numpy", "pyloop"):
            compiled = compile_ensemble(ensemble, backend=backend)
            shards = shard_ensemble(compiled, num_shards)
            assert all(s.backend.name == backend for s in shards)
            folds[backend] = reduce_shard_scores(shards, dense)
            np.testing.assert_array_equal(folds[backend],
                                          compiled.raw_scores(dense))
        np.testing.assert_array_equal(folds["pyloop"], folds["numpy"])
        np.testing.assert_array_equal(folds["numpy"],
                                      tree_at_a_time(ensemble, dense))

    def test_non_head_shards_run_the_loop_kernel(self, monkeypatch):
        compiled = compile_ensemble(grown_ensemble(1), backend="pyloop")
        calls = []
        real = kernels.LOOP_KERNELS["predict"]
        monkeypatch.setitem(
            compiled.backend._kernels, "predict",
            lambda *args: (calls.append(args[8]), real(*args))[1])
        shards = shard_ensemble(compiled, 3)
        reduce_shard_scores(shards, grid_batch(6, with_nan=True))
        # one kernel launch per chain member, over that member's trees
        assert calls == [s.num_trees for s in shards]


class TestEveryPlan:
    """The acceptance sweep: every registry plan's trained model compiles
    to a bit-identical predictor."""

    @pytest.mark.parametrize("plan_key", sorted(PLANS))
    def test_plan_model_bit_identical(self, plan_key, small_binary):
        cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
        cluster = ClusterConfig(num_workers=3)
        system = get_plan(plan_key).build(cfg, cluster)
        ensemble = system.fit(small_binary).ensemble
        compiled = compile_ensemble(ensemble)
        csc = small_binary.csc()
        np.testing.assert_array_equal(
            compiled.raw_scores(csc), ensemble.raw_scores(csc)
        )
