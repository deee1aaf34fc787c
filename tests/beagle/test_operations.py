"""Unit tests for operation descriptors and dependency analysis."""

from __future__ import annotations

import pytest

from repro.beagle import Operation, operations_independent


def op(dest, c1, c2):
    return Operation(dest, c1, c1, c2, c2)


class TestOperation:
    def test_reads(self):
        assert op(8, 0, 1).reads() == (0, 1)

    def test_depends_on(self):
        first = op(8, 0, 1)
        second = op(9, 8, 2)
        third = op(10, 2, 3)
        assert second.depends_on(first)
        assert not third.depends_on(first)
        assert not first.depends_on(second)

    def test_frozen(self):
        with pytest.raises(Exception):
            op(8, 0, 1).destination = 9

    def test_default_no_scaling(self):
        assert op(8, 0, 1).destination_scale == -1


class TestIndependence:
    def test_independent_ops(self):
        assert operations_independent([op(8, 0, 1), op(9, 2, 3)])

    def test_read_after_write(self):
        assert not operations_independent([op(8, 0, 1), op(9, 8, 2)])

    def test_write_before_read_also_conflicts(self):
        # Order within a set must not matter: a set is concurrent.
        assert not operations_independent([op(9, 8, 2), op(8, 0, 1)])

    def test_write_write_collision(self):
        assert not operations_independent([op(8, 0, 1), op(8, 2, 3)])

    def test_empty_and_single(self):
        assert operations_independent([])
        assert operations_independent([op(8, 0, 1)])
