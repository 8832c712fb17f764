"""Property-based exactness: arbitrary ensembles, arbitrary batches.

For randomly *constructed* trees (not trained ones — hypothesis explores
structures training rarely produces: lopsided trees, thresholds colliding
exactly with feature values, all-missing columns, negative zero) the
compiled predictor must equal ``TreeEnsemble.raw_scores`` bit for bit,
across the sparse, dense, and CSR input paths, including multiclass
leaf vectors and both missing-value default directions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.split import SplitInfo
from repro.core.tree import Tree, TreeEnsemble
from repro.data.matrix import CSCMatrix
from repro.serve import compile_ensemble
from tests.data.test_matrix import csr_of

#: a small grid shared by thresholds and feature values, so exact
#: value == threshold collisions (the `<=` boundary) occur routinely
_GRID = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25]

_values = st.one_of(
    st.sampled_from(_GRID),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def trees(draw, num_features: int, gradient_dim: int) -> Tree:
    num_layers = draw(st.integers(2, 4))
    tree = Tree(num_layers, gradient_dim)

    def fill(node_id: int, layer: int) -> None:
        leaf = layer == num_layers - 1 or draw(st.booleans())
        if leaf:
            weight = draw(st.lists(_values, min_size=gradient_dim,
                                   max_size=gradient_dim))
            tree.set_leaf(node_id, np.asarray(weight))
        else:
            tree.set_split(
                node_id,
                SplitInfo(
                    feature=draw(st.integers(0, num_features - 1)),
                    bin=0,
                    default_left=draw(st.booleans()),
                    gain=1.0,
                ),
                draw(_values),
            )
            fill(2 * node_id + 1, layer + 1)
            fill(2 * node_id + 2, layer + 1)

    fill(0, 0)
    return tree


@st.composite
def ensembles_and_batches(draw):
    num_features = draw(st.integers(1, 5))
    gradient_dim = draw(st.sampled_from([1, 3]))
    ensemble = TreeEnsemble(
        gradient_dim,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    for _ in range(draw(st.integers(1, 3))):
        ensemble.append(draw(trees(num_features, gradient_dim)))
    num_rows = draw(st.integers(1, 16))
    dense = np.full((num_rows, num_features), np.nan)
    for i in range(num_rows):
        for j in range(num_features):
            if draw(st.booleans()):
                dense[i, j] = draw(_values)
    return ensemble, dense


def to_csc(dense: np.ndarray) -> CSCMatrix:
    """Stored entry per non-NaN cell (the repo's missing convention)."""
    mask = ~np.isnan(dense)
    by_col = mask.T
    cols, rows = np.nonzero(by_col)
    indptr = np.concatenate(
        ([0], np.cumsum(by_col.sum(axis=1)))
    ).astype(np.int64)
    return CSCMatrix(indptr, rows.astype(np.int64),
                     np.ascontiguousarray(dense.T[by_col]),
                     dense.shape[0])


@settings(max_examples=80, deadline=None)
@given(case=ensembles_and_batches())
def test_compiled_bit_identical_to_ensemble(case):
    ensemble, dense = case
    compiled = compile_ensemble(ensemble)
    csc = to_csc(dense)
    want = ensemble.raw_scores(csc)
    np.testing.assert_array_equal(compiled.raw_scores(csc), want)
    np.testing.assert_array_equal(compiled.raw_scores(dense), want)
    np.testing.assert_array_equal(
        compiled.raw_scores(csr_of(csc)), want
    )


@settings(max_examples=30, deadline=None)
@given(case=ensembles_and_batches(), prefix=st.integers(0, 4))
def test_tree_prefix_bit_identical(case, prefix):
    ensemble, dense = case
    compiled = compile_ensemble(ensemble)
    csc = to_csc(dense)
    np.testing.assert_array_equal(
        compiled.raw_scores(csc, num_trees=prefix),
        ensemble.raw_scores(csc, num_trees=prefix),
    )
