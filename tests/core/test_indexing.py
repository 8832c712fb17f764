"""Node/instance index tests: unit cases, and a property test against
the frozen dict index (``reference_index.py``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import NodeToInstanceIndex

from .reference_index import ReferenceIndex


class TestNodeToInstanceIndex:
    def test_initial_state(self):
        index = NodeToInstanceIndex(10)
        assert index.count_of(0) == 10
        np.testing.assert_array_equal(index.rows_of(0), np.arange(10))
        np.testing.assert_array_equal(index.node_of_instance,
                                      np.zeros(10))

    def test_split_moves_rows(self):
        index = NodeToInstanceIndex(6)
        go_left = np.array([True, False, True, True, False, False])
        index.split_nodes({0: go_left})
        np.testing.assert_array_equal(index.rows_of(1), [0, 2, 3])
        np.testing.assert_array_equal(index.rows_of(2), [1, 4, 5])
        assert index.count_of(0) == 0
        np.testing.assert_array_equal(
            index.node_of_instance, [1, 2, 1, 1, 2, 2]
        )
        assert index.updates == 6

    def test_a_layer_splits_in_one_call(self):
        index = NodeToInstanceIndex(8)
        index.split_nodes({0: np.array([True, False] * 4)})
        index.split_nodes({1: np.array([False, True, True, False]),
                           2: np.array([True, True, False, False])})
        np.testing.assert_array_equal(index.rows_of(3), [2, 4])
        np.testing.assert_array_equal(index.rows_of(4), [0, 6])
        np.testing.assert_array_equal(index.rows_of(5), [1, 3])
        np.testing.assert_array_equal(index.rows_of(6), [5, 7])
        # the children own the two halves of their parent's slice
        np.testing.assert_array_equal(index.partition,
                                      [2, 4, 0, 6, 1, 3, 5, 7])
        assert index.updates == 16

    def test_rows_stay_sorted_through_splits(self, rng):
        index = NodeToInstanceIndex(100)
        index.split_nodes({0: rng.random(100) < 0.5})
        index.split_nodes({1: rng.random(index.count_of(1)) < 0.5})
        for node in (2, 3, 4):
            rows = index.rows_of(node)
            assert np.all(np.diff(rows) > 0)

    def test_split_length_mismatch(self):
        index = NodeToInstanceIndex(5)
        with pytest.raises(ValueError, match="placement length"):
            index.split_nodes({0: np.array([True])})
        assert index.count_of(0) == 5

    def test_retire_keeps_leaf_assignment(self):
        index = NodeToInstanceIndex(4)
        index.split_nodes({0: np.array([True, True, False, False])})
        index.retire_node(1)
        assert index.count_of(1) == 0
        np.testing.assert_array_equal(
            index.node_of_instance, [1, 1, 2, 2]
        )

    def test_slot_of_instance(self):
        index = NodeToInstanceIndex(6)
        index.split_nodes({0: np.array([True, False] * 3)})
        slots = index.slot_of_instance([1, 2])
        np.testing.assert_array_equal(slots, [0, 1, 0, 1, 0, 1])
        # retire node 2: its rows keep node id but get slot -1
        slots = index.slot_of_instance([1])
        np.testing.assert_array_equal(slots, [0, -1, 0, -1, 0, -1])

    def test_slot_of_instance_empty(self):
        index = NodeToInstanceIndex(3)
        np.testing.assert_array_equal(index.slot_of_instance([]),
                                      [-1, -1, -1])

    def test_active_nodes(self):
        index = NodeToInstanceIndex(4)
        index.split_nodes({0: np.array([True, True, False, False])})
        assert index.active_nodes() == [1, 2]

    def test_empty_index(self):
        index = NodeToInstanceIndex(0)
        assert index.count_of(0) == 0
        index.split_nodes({0: np.empty(0, dtype=bool)})
        assert index.count_of(1) == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            NodeToInstanceIndex(-1)


class TestNodeTotals:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_each_node_sums_like_its_own_gather(self, rng, dim):
        """One gather for the layer, each node summed as a slice: the
        same floats as gathering and summing the node alone."""
        grad = rng.standard_normal((300, dim))
        hess = rng.random((300, dim))
        index = NodeToInstanceIndex(300)
        index.split_nodes({0: rng.random(300) < 0.3})
        index.split_nodes({1: rng.random(index.count_of(1)) < 0.6,
                           2: rng.random(index.count_of(2)) < 0.5})
        nodes = [3, 4, 6, 5]
        for node, g, h in zip(nodes, *index.node_totals(nodes, grad,
                                                        hess)):
            rows = index.rows_of(node)
            assert g.tobytes() == grad[rows].sum(axis=0).tobytes()
            assert h.tobytes() == hess[rows].sum(axis=0).tobytes()

    def test_missing_node_sums_to_zero(self, rng):
        index = NodeToInstanceIndex(5)
        g, h = index.node_totals([7], np.ones((5, 2)), np.ones((5, 2)))
        np.testing.assert_array_equal(g, [[0.0, 0.0]])
        np.testing.assert_array_equal(h, [[0.0, 0.0]])


def assert_same(index, reference):
    """Every tracked node's rows equal and ascending; both directions and
    the cost count equal."""
    assert index.active_nodes() == reference.active_nodes()
    for node in reference.active_nodes():
        rows = index.rows_of(node)
        np.testing.assert_array_equal(rows, reference.rows_of(node))
        assert np.all(np.diff(rows) > 0)
        assert index.count_of(node) == reference.count_of(node)
    np.testing.assert_array_equal(index.node_of_instance,
                                  reference.node_of_instance)
    assert index.updates == reference.updates


@settings(max_examples=120, deadline=None)
@given(data=st.data(), num_instances=st.integers(0, 60),
       subsample=st.booleans())
def test_property_matches_the_dict_index(data, num_instances, subsample):
    rows = None
    if subsample and num_instances:
        rows = data.draw(st.lists(st.integers(0, num_instances - 1),
                                  max_size=num_instances), label="rows")
    index = NodeToInstanceIndex(num_instances, rows=rows)
    reference = ReferenceIndex(num_instances, rows=rows)
    assert_same(index, reference)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        active = reference.active_nodes()
        splittable = [node for node in active if node < 2 ** 10]
        action = data.draw(st.sampled_from(
            ["layer", "leafwise", "retire", "restore", "slots"]),
            label="action")
        if action in ("layer", "leafwise") and splittable:
            count = len(splittable) if action == "layer" else 1
            chosen = data.draw(st.lists(
                st.sampled_from(splittable), min_size=1, max_size=count,
                unique=True), label="nodes")
            placements = {
                node: np.array(data.draw(st.lists(
                    st.booleans(), min_size=reference.count_of(node),
                    max_size=reference.count_of(node))), dtype=bool)
                for node in chosen
            }
            index.split_nodes(placements)
            for node in sorted(placements):
                reference.split_node(node, placements[node], 2 * node + 1,
                                     2 * node + 2)
        elif action == "retire" and active:
            node = data.draw(st.sampled_from(active), label="retired")
            index.retire_node(node)
            reference.retire_node(node)
        elif action == "restore":
            saved = index.node_of_instance.copy()
            index = NodeToInstanceIndex.from_assignment(saved)
            reference = ReferenceIndex.from_assignment(saved)
        elif action == "slots" and active:
            nodes = data.draw(st.lists(st.sampled_from(active),
                                       unique=True), label="slot nodes")
            np.testing.assert_array_equal(
                index.slot_of_instance(nodes),
                reference.slot_of_instance(nodes))
        assert_same(index, reference)
