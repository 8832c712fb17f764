"""Closed-form cost model tests, including the exact Section 3.1.4
worked example (the industrial Age dataset)."""

from __future__ import annotations

import pytest

from repro.systems.costmodel import (WorkloadShape,
                                     horizontal_comm_bytes_per_tree,
                                     horizontal_histogram_memory_bytes,
                                     sizehist_bytes,
                                     vertical_comm_bytes_per_tree,
                                     vertical_histogram_memory_bytes)

GIB = 1024 ** 3
MIB = 1024 ** 2

#: Section 3.1.4: Age on 8 workers — 48M instances, 330K features,
#: 9 classes, 8 layers, 20 candidate splits.
AGE = WorkloadShape(
    num_instances=48_000_000,
    num_features=330_000,
    num_workers=8,
    num_layers=8,
    num_candidates=20,
    num_classes=9,
)


class TestSection314Example:
    def test_sizehist_is_906_mb(self):
        assert sizehist_bytes(AGE) / MIB == pytest.approx(906.25, rel=1e-3)

    def test_horizontal_memory_is_56_6_gb(self):
        assert horizontal_histogram_memory_bytes(AGE) / GIB == \
            pytest.approx(56.6, rel=1e-2)

    def test_horizontal_comm_is_900_gb(self):
        assert horizontal_comm_bytes_per_tree(AGE) / GIB == \
            pytest.approx(900, rel=1e-2)

    def test_vertical_memory_is_7_08_gb(self):
        assert vertical_histogram_memory_bytes(AGE) / GIB == \
            pytest.approx(7.08, rel=1e-2)

    def test_vertical_comm_is_366_mb(self):
        assert vertical_comm_bytes_per_tree(AGE) / MIB == \
            pytest.approx(366, rel=1e-2)


class TestScalingClaims:
    def test_horizontal_comm_doubles_per_layer(self):
        """Section 3.1.3: horizontal cost grows ~2x per extra layer."""
        base = WorkloadShape(1_000_000, 1000, 8, 8, 20)
        deeper = WorkloadShape(1_000_000, 1000, 8, 9, 20)
        ratio = (horizontal_comm_bytes_per_tree(deeper)
                 / horizontal_comm_bytes_per_tree(base))
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_vertical_comm_linear_in_layers(self):
        base = WorkloadShape(1_000_000, 1000, 8, 8, 20)
        deeper = WorkloadShape(1_000_000, 1000, 8, 9, 20)
        ratio = (vertical_comm_bytes_per_tree(deeper)
                 / vertical_comm_bytes_per_tree(base))
        assert ratio == pytest.approx(9 / 8)

    def test_vertical_comm_independent_of_dim_and_classes(self):
        a = WorkloadShape(1_000_000, 100, 8, 8, 20, 2)
        b = WorkloadShape(1_000_000, 100_000, 8, 8, 20, 10)
        assert vertical_comm_bytes_per_tree(a) == \
            vertical_comm_bytes_per_tree(b)

    def test_horizontal_comm_linear_in_classes(self):
        a = WorkloadShape(1_000_000, 1000, 8, 8, 20, 3)
        b = WorkloadShape(1_000_000, 1000, 8, 8, 20, 9)
        assert horizontal_comm_bytes_per_tree(b) == \
            3 * horizontal_comm_bytes_per_tree(a)

    def test_memory_ratio_is_w(self):
        shape = WorkloadShape(1000, 100, 8, 6, 16)
        assert horizontal_histogram_memory_bytes(shape) / \
            vertical_histogram_memory_bytes(shape) == pytest.approx(8.0)

    def test_crossover_low_dim_favours_horizontal(self):
        """For tiny D and huge N, horizontal traffic is below vertical's
        (the Figure 10(a) regime); for huge D it flips (Figure 10(b))."""
        low_d = WorkloadShape(50_000_000, 100, 8, 8, 20)
        assert horizontal_comm_bytes_per_tree(low_d) < \
            vertical_comm_bytes_per_tree(low_d)
        high_d = WorkloadShape(50_000_000, 100_000, 8, 8, 20)
        assert horizontal_comm_bytes_per_tree(high_d) > \
            vertical_comm_bytes_per_tree(high_d)


class TestWorkloadShape:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WorkloadShape(0, 1, 1, 1, 1)
