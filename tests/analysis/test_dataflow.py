"""Dataflow engine tests on handcrafted operation streams.

Every diagnostic code gets at least one stream that triggers it and a
nearby stream that does not; the fixture layout is a 4-tip balanced
tree: tips 0-3, internals 4-6 (root), matrices 0-6, scale bank of 4
slots with slot 3 reserved for the cumulative accumulator.
"""

from __future__ import annotations

from repro.analysis import BufferConfig
from repro.analysis.dataflow import analyze_operation_sets
from repro.beagle.operations import Operation

CONFIG = BufferConfig(
    tip_count=4, partials_buffer_count=3, matrix_count=7, scale_buffer_count=4
)

OP_A = Operation(destination=4, child1=0, child1_matrix=0, child2=1, child2_matrix=1)
OP_B = Operation(destination=5, child1=2, child1_matrix=2, child2=3, child2_matrix=3)
OP_C = Operation(destination=6, child1=4, child1_matrix=4, child2=5, child2_matrix=5)

VALID_SETS = [[OP_A, OP_B], [OP_C]]
ALL_MATRICES = [0, 1, 2, 3, 4, 5]


def codes(diagnostics):
    return {d.code for d in diagnostics}


def check(operation_sets, **kw):
    kw.setdefault("root_buffer", 6)
    return analyze_operation_sets(operation_sets, CONFIG, **kw)


class TestCleanStreams:
    def test_valid_plan_is_clean(self):
        assert check(VALID_SETS, matrix_updates=ALL_MATRICES) == []

    def test_serial_order_is_clean(self):
        assert check([[OP_A], [OP_B], [OP_C]]) == []

    def test_assume_valid_suppresses_read_before_write(self):
        # Incremental plan: only the root is recomputed; 4 and 5 are live
        # from the previous evaluation.
        assert check([[OP_C]], assume_valid={4, 5}) == []
        assert "read-before-write" in codes(check([[OP_C]]))


class TestOrderingHazards:
    def test_cross_set_dependency(self):
        diags = check([[OP_C], [OP_A, OP_B]], check_dead_writes=False)
        assert "cross-set-dependency" in codes(diags)
        hit = next(d for d in diags if d.code == "cross-set-dependency")
        assert hit.set_index == 0 and set(hit.buffers) <= {4, 5}

    def test_intra_set_dependency(self):
        diags = check([[OP_A, OP_B, OP_C]])
        assert "intra-set-dependency" in codes(diags)

    def test_reads_own_destination(self):
        loop = Operation(
            destination=4, child1=4, child1_matrix=0, child2=1, child2_matrix=1
        )
        assert "intra-set-dependency" in codes(check([[loop]], root_buffer=4))

    def test_read_before_write(self):
        diags = check([[OP_C]])
        assert codes(diags) == {"read-before-write"}
        assert len(diags) == 2  # both children uninitialized

    def test_write_write_hazard(self):
        clash = Operation(
            destination=4, child1=2, child1_matrix=2, child2=3, child2_matrix=3
        )
        diags = check([[OP_A, clash], [OP_C]])
        assert "write-write-hazard" in codes(diags)

    def test_buffer_rewritten_is_warning(self):
        rewrite = Operation(
            destination=4, child1=2, child1_matrix=2, child2=3, child2_matrix=3
        )
        diags = check([[OP_A], [rewrite], [OP_B], [OP_C]])
        rewrites = [d for d in diags if d.code == "buffer-rewritten"]
        assert len(rewrites) == 1
        assert rewrites[0].severity.label == "warning"


class TestRangeChecks:
    def test_tip_overwrite(self):
        bad = Operation(
            destination=1, child1=0, child1_matrix=0, child2=2, child2_matrix=2
        )
        assert "tip-overwrite" in codes(check([[bad]], root_buffer=1))

    def test_destination_out_of_range(self):
        bad = Operation(
            destination=99, child1=0, child1_matrix=0, child2=1, child2_matrix=1
        )
        assert "index-out-of-range" in codes(check([[bad]], root_buffer=99))

    def test_read_out_of_range(self):
        bad = Operation(
            destination=4, child1=77, child1_matrix=0, child2=1, child2_matrix=1
        )
        diags = check([[bad]], root_buffer=4)
        assert "index-out-of-range" in codes(diags)
        # An invalid read must not also be misreported as uninitialized.
        assert "read-before-write" not in codes(diags)

    def test_matrix_out_of_range(self):
        bad = Operation(
            destination=4, child1=0, child1_matrix=42, child2=1, child2_matrix=1
        )
        assert "index-out-of-range" in codes(check([[bad]], root_buffer=4))


class TestMatrixUpdates:
    def test_matrix_not_updated(self):
        diags = check(VALID_SETS, matrix_updates=[0, 1, 2, 3, 4])  # 5 missing
        assert "matrix-not-updated" in codes(diags)
        hit = next(d for d in diags if d.code == "matrix-not-updated")
        assert hit.buffers == (5,)

    def test_duplicate_update_is_warning(self):
        diags = check(VALID_SETS, matrix_updates=ALL_MATRICES + [0])
        dupes = [d for d in diags if d.code == "duplicate-matrix-update"]
        assert len(dupes) == 1 and dupes[0].severity.label == "warning"

    def test_update_entry_out_of_range(self):
        diags = check(VALID_SETS, matrix_updates=ALL_MATRICES + [99])
        assert "index-out-of-range" in codes(diags)

    def test_no_table_no_matrix_checks(self):
        assert check(VALID_SETS) == []


class TestDeadWrites:
    def test_unread_non_root_write(self):
        diags = check([[OP_A, OP_B], [OP_C]], root_buffer=4)
        # OP_C's destination 6 is neither read nor the root.
        dead = [d for d in diags if d.code == "dead-write"]
        assert len(dead) == 1 and dead[0].buffers == (6,)

    def test_root_write_is_live(self):
        assert check(VALID_SETS) == []

    def test_check_can_be_disabled(self):
        assert check([[OP_A, OP_B], [OP_C]], root_buffer=4,
                     check_dead_writes=False) == []


class TestScaleDiscipline:
    def scaled(self, op, slot):
        return Operation(
            destination=op.destination,
            child1=op.child1,
            child1_matrix=op.child1_matrix,
            child2=op.child2,
            child2_matrix=op.child2_matrix,
            destination_scale=slot,
        )

    def test_clean_scaled_plan(self):
        sets = [[self.scaled(OP_A, 0), self.scaled(OP_B, 1)],
                [self.scaled(OP_C, 2)]]
        assert check(sets) == []

    def test_scale_without_buffers(self):
        noscale = BufferConfig(tip_count=4, partials_buffer_count=3, matrix_count=7)
        diags = analyze_operation_sets(
            [[self.scaled(OP_A, 0)]], noscale, root_buffer=4
        )
        assert "scale-without-buffers" in codes(diags)

    def test_cumulative_slot_is_reserved(self):
        diags = check([[self.scaled(OP_A, 3)]], root_buffer=4)
        assert "cumulative-scale-write" in codes(diags)

    def test_scale_slot_out_of_range(self):
        diags = check([[self.scaled(OP_A, 9)]], root_buffer=4)
        assert "index-out-of-range" in codes(diags)

    def test_scale_aliasing(self):
        sets = [[self.scaled(OP_A, 0), self.scaled(OP_B, 0)],
                [self.scaled(OP_C, 1)]]
        assert "scale-aliasing" in codes(check(sets))
