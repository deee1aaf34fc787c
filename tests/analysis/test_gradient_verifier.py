"""Static verification of one-sweep gradient plans, clean and corrupted."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import PlanVerificationError, verify_gradient_plan
from repro.core import make_gradient_plan
from repro.trees import (
    balanced_tree,
    parse_newick,
    pectinate_tree,
    random_attachment_tree,
)


def trees():
    return [
        balanced_tree(8, branch_length=0.1),
        pectinate_tree(9, branch_length=0.1),
        random_attachment_tree(13, 5, random_lengths=True),
        parse_newick("((A:0.1,B:0.2):0.3,(C:0.1,D:0.4):0.2);"),
    ]


class TestCleanPlans:
    @pytest.mark.parametrize("mode", ["serial", "concurrent"])
    def test_every_topology_verifies_clean(self, mode):
        for tree in trees():
            report = verify_gradient_plan(make_gradient_plan(tree, mode))
            assert report.clean, report.format()

    def test_verify_flag_raises_nothing_on_good_plans(self):
        for tree in trees():
            make_gradient_plan(tree, verify=True)  # must not raise


class TestSeededCorruptions:
    """Each structural invariant must be independently enforceable."""

    def plan(self):
        return make_gradient_plan(balanced_tree(8, branch_length=0.1))

    def test_dropped_upper_operation(self):
        gplan = self.plan()
        sets = [list(s) for s in gplan.upper_operation_sets]
        sets[0] = sets[0][1:]
        bad = replace(gplan, upper_operation_sets=sets)
        assert "upper-operation-count" in verify_gradient_plan(bad).codes()

    def test_missing_seeds(self):
        bad = replace(self.plan(), seeds=[])
        report = verify_gradient_plan(bad)
        assert "bad-upper-seeds" in report.codes()
        assert not report.ok

    def test_destination_in_lower_bank(self):
        gplan = self.plan()
        sets = [list(s) for s in gplan.upper_operation_sets]
        op = sets[0][0]
        sets[0][0] = replace(op, destination=gplan.tree.n_tips)
        bad = replace(gplan, upper_operation_sets=sets)
        assert "upper-destination-in-lower-bank" in verify_gradient_plan(
            bad
        ).codes()

    def test_child1_from_upper_bank(self):
        gplan = self.plan()
        sets = [list(s) for s in gplan.upper_operation_sets]
        # The first level reads a root child's lowers as child2; below it
        # every child2 is an upper buffer.
        op = sets[-1][0]
        sets[-1][0] = replace(op, child1=op.child2)
        bad = replace(gplan, upper_operation_sets=sets)
        assert "upper-child1-not-lower" in verify_gradient_plan(bad).codes()

    def test_child2_from_lower_bank(self):
        gplan = self.plan()
        sets = [list(s) for s in gplan.upper_operation_sets]
        op = sets[0][0]
        sets[0][0] = replace(op, child2=op.child1)
        bad = replace(gplan, upper_operation_sets=sets)
        assert "upper-child2-not-upper" in verify_gradient_plan(bad).codes()

    def test_rewritten_upper_buffer(self):
        gplan = self.plan()
        sets = [list(s) for s in gplan.upper_operation_sets]
        sets.append([sets[0][0]])
        bad = replace(gplan, upper_operation_sets=sets)
        codes = verify_gradient_plan(bad).codes()
        assert "upper-buffer-rewritten" in codes
        assert "upper-operation-count" in codes  # the duplicate also miscounts

    def test_wrong_pulley_matrix(self):
        bad = replace(self.plan(), pulley_matrix=0)
        assert "bad-pulley-matrix" in verify_gradient_plan(bad).codes()

    def test_negative_pulley_length(self):
        bad = replace(self.plan(), pulley_length=-0.5)
        report = verify_gradient_plan(bad)
        assert "invalid-branch-length" in report.codes()
        assert not report.ok

    def test_stale_pulley_length_is_a_warning(self):
        # A drifted-but-valid length is stale, not structurally unsound:
        # the sweep still runs, but the pulley gradient is evaluated at
        # the wrong point.
        bad = replace(self.plan(), pulley_length=self.plan().pulley_length + 1)
        report = verify_gradient_plan(bad)
        assert "stale-pulley-length" in report.codes()
        assert report.ok and not report.clean
        assert len(report.warnings) == 1

    def test_verify_flag_raises_on_corruption(self):
        gplan = self.plan()
        bad = replace(gplan, seeds=[])
        with pytest.raises(PlanVerificationError):
            verify_gradient_plan(bad).raise_if_errors()
