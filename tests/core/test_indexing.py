"""Node/instance index tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.indexing import NodeToInstanceIndex


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
        index.split_node(0, go_left, 1, 2)
        np.testing.assert_array_equal(index.rows_of(1), [0, 2, 3])
        np.testing.assert_array_equal(index.rows_of(2), [1, 4, 5])
        assert index.count_of(0) == 0
        np.testing.assert_array_equal(
            index.node_of_instance, [1, 2, 1, 1, 2, 2]
        )
        assert index.updates == 6

    def test_rows_stay_sorted_through_splits(self, rng):
        index = NodeToInstanceIndex(100)
        index.split_node(0, rng.random(100) < 0.5, 1, 2)
        index.split_node(1, rng.random(index.count_of(1)) < 0.5, 3, 4)
        for node in (2, 3, 4):
            rows = index.rows_of(node)
            assert np.all(np.diff(rows) > 0)

    def test_split_length_mismatch(self):
        index = NodeToInstanceIndex(5)
        with pytest.raises(ValueError, match="placement length"):
            index.split_node(0, np.array([True]), 1, 2)

    def test_retire_keeps_leaf_assignment(self):
        index = NodeToInstanceIndex(4)
        index.split_node(0, np.array([True, True, False, False]), 1, 2)
        index.retire_node(1)
        assert index.count_of(1) == 0
        np.testing.assert_array_equal(
            index.node_of_instance, [1, 1, 2, 2]
        )

    def test_slot_of_instance(self):
        index = NodeToInstanceIndex(6)
        index.split_node(0, np.array([True, False] * 3), 1, 2)
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
        index.split_node(0, np.array([True, True, False, False]), 1, 2)
        assert index.active_nodes() == [1, 2]

    def test_empty_index(self):
        index = NodeToInstanceIndex(0)
        assert index.count_of(0) == 0
        index.split_node(0, np.empty(0, dtype=bool), 1, 2)
        assert index.count_of(1) == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            NodeToInstanceIndex(-1)
