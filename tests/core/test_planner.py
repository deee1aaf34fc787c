"""Unit and integration tests for execution planning and the engine."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.beagle import pruning_log_likelihood
from repro.core import (
    count_operation_sets,
    create_instance,
    execute_plan,
    make_plan,
)
from repro.core.planner import load_tips
from repro.data import Alignment, compress, random_patterns, simulate_alignment
from repro.models import HKY85, JC69, discrete_gamma, single_rate
from repro.trees import balanced_tree, parse_newick, pectinate_tree
from tests.strategies import tree_strategy


@pytest.fixture
def model():
    return HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


class TestMakePlan:
    def test_serial_one_op_per_launch(self):
        t = balanced_tree(8)
        plan = make_plan(t, "serial")
        assert plan.n_launches == 7
        assert plan.set_sizes == [1] * 7

    def test_concurrent_matches_count(self):
        t = balanced_tree(8)
        plan = make_plan(t, "concurrent")
        assert plan.n_launches == count_operation_sets(t)
        assert plan.set_sizes == [4, 2, 1]

    def test_level_mode(self):
        t = pectinate_tree(8)
        plan = make_plan(t, "level")
        assert plan.n_launches == 7  # pectinate: level == serial depth

    def test_operations_preserved_across_modes(self):
        t = balanced_tree(16)
        serial = make_plan(t, "serial")
        conc = make_plan(t, "concurrent")
        assert serial.n_operations == conc.n_operations == 15

    def test_rejects_multifurcation(self):
        with pytest.raises(ValueError):
            make_plan(parse_newick("(a,b,c);"))

    def test_rejects_single_tip(self):
        with pytest.raises(ValueError):
            make_plan(parse_newick("a;"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_plan(balanced_tree(4), "warp")

    def test_root_buffer(self):
        t = balanced_tree(4)
        plan = make_plan(t)
        assert plan.root_buffer == t.index_of(t.root)


class TestCreateInstance:
    def test_requires_matching_taxa(self, model):
        t = balanced_tree(4)
        patterns = random_patterns(["x", "y", "z", "w"], 8)
        with pytest.raises(ValueError):
            create_instance(t, model, patterns)

    def test_dimensions(self, model):
        t = balanced_tree(6)
        patterns = random_patterns(t.tip_names(), 32)
        inst = create_instance(t, model, patterns, rates=discrete_gamma(0.5, 4))
        assert inst.tip_count == 6
        assert inst.pattern_count == 32
        assert inst.category_count == 4

    def test_scaling_buffers(self, model):
        t = balanced_tree(4)
        patterns = random_patterns(t.tip_names(), 8)
        inst = create_instance(t, model, patterns, scaling=True)
        assert inst.scale.count == 4


class TestSetUpChecks:
    """A fresh instance's set-up raises the errors it always raised."""

    def case(self, model):
        tree = balanced_tree(4)
        patterns = random_patterns(tree.tip_names(), 8, seed=1)
        return tree, patterns, create_instance(tree, model, patterns)

    def test_mismatched_taxa(self, model):
        tree, patterns, instance = self.case(model)
        other = random_patterns(["t0001", "t0002", "t0003", "q"], 8)
        with pytest.raises(ValueError, match="^tree tips and pattern taxa must match"):
            create_instance(tree, model, other)
        with pytest.raises(ValueError, match="^tip 't0004' is not a pattern taxon$"):
            load_tips(instance, tree, other)
        fewer = random_patterns(["t0001", "t0002", "t0003"], 8)
        with pytest.raises(ValueError, match="^tree tips and pattern taxa must match"):
            create_instance(tree, model, fewer)

    def test_codes_out_of_range(self, model):
        tree, patterns, instance = self.case(model)
        for bad in (4 + 1, -1):
            codes = patterns.codes.copy()
            codes[2, 3] = bad
            with pytest.raises(ValueError, match="^tip codes out of range$"):
                load_tips(instance, tree, replace(patterns, codes=codes))
            with pytest.raises(ValueError, match="^tip codes out of range$"):
                instance.set_tip_states(1, codes[2])
        for tips, message in (([1, 9, -2], "9"), ([0, -1], "-1"), ([4], "4")):
            with pytest.raises(IndexError, match=f"^tip index {message} out of range$"):
                instance.set_tip_states_rows(tips, np.zeros((len(tips), 8)))
        with pytest.raises(IndexError, match="^tip index 7 out of range$"):
            instance.set_tip_partials(7, np.ones((8, 4)))

    def test_wrong_lengths(self, model):
        tree, patterns, instance = self.case(model)
        for call, message in (
            (lambda: instance.set_tip_states(0, [0] * 7), "codes length"),
            (
                lambda: instance.set_tip_states_rows([0, 1], np.zeros((3, 8))),
                "codes length",
            ),
            (
                lambda: instance.set_tip_partials(0, np.ones((7, 4))),
                "tip partials must",
            ),
            (lambda: instance.set_pattern_weights(np.ones(9)), "weights length"),
            (lambda: instance.set_pattern_weights(-np.ones(8)), "pattern weights must"),
            (lambda: instance.set_state_frequencies([0.5, 0.5]), "frequency length"),
            (lambda: instance.set_state_frequencies([1, -1, 1, 1]), "frequencies must"),
            (lambda: instance.set_category_rates([1.0, 2.0]), "rates length"),
            (lambda: instance.set_category_weights([0.5, 0.5]), "weights length"),
            (lambda: instance.set_category_weights([0.5]), "category weights must"),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                call()
        short = replace(patterns, codes=patterns.codes[:, :7], weights=np.ones(7))
        with pytest.raises(ValueError, match="^codes length must equal pattern count$"):
            load_tips(instance, tree, short)

    def test_partial_ambiguity_loads_as_explicit_partials(self, model):
        tree = balanced_tree(4)
        names = tree.tip_names()
        patterns = compress(
            Alignment(dict(zip(names, ["ACGTR", "ACGTA", "AYGTN", "ACGTC"])))
        )
        assert set(patterns.partials) == {names[0], names[2]}
        instance = create_instance(tree, model, patterns)
        assert set(instance._tip_partials) == {0, 2}
        assert list(instance._tip_kinds) == [2, 1, 2, 1]  # explicit, codes
        assert np.array_equal(
            instance.get_partials(0)[0], patterns.tip_partials(names[0])
        )
        plan = make_plan(tree)
        assert execute_plan(instance, plan) == pytest.approx(
            pruning_log_likelihood(tree, model, patterns), rel=1e-12
        )

    def test_single_rate_is_shared_and_read_only(self):
        rates = single_rate()
        assert single_rate() is rates and discrete_gamma(0.5, 1) is rates
        with pytest.raises(ValueError, match="read-only"):
            rates.rates[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            rates.probabilities[:] = 0.5
        assert rates.rates.tolist() == rates.probabilities.tolist() == [1.0]

    def test_pattern_rows_are_built_once(self):
        patterns = random_patterns(["b", "a", "c"], 4)
        assert patterns.rows == {"b": 0, "a": 1, "c": 2}
        assert patterns.rows is patterns.rows
        assert patterns.taxon_set == {"a", "b", "c"}


class TestEngineCorrectness:
    """The engine must agree with the independent pruning reference."""

    @given(tree_strategy(min_tips=2, max_tips=20))
    @settings(max_examples=20)
    def test_matches_pruning_reference(self, tree):
        model = JC69()
        aln = simulate_alignment(tree, model, 20, seed=11)
        patterns = compress(aln)
        inst = create_instance(tree, model, patterns)
        ll = execute_plan(inst, make_plan(tree, "concurrent"))
        assert ll == pytest.approx(
            pruning_log_likelihood(tree, model, patterns), abs=1e-8
        )

    @given(tree_strategy(min_tips=2, max_tips=15))
    @settings(max_examples=15)
    def test_all_modes_agree(self, tree):
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        aln = simulate_alignment(tree, model, 15, seed=12)
        patterns = compress(aln)
        values = []
        for mode in ("serial", "concurrent", "level"):
            inst = create_instance(tree, model, patterns)
            values.append(execute_plan(inst, make_plan(tree, mode)))
        assert values[0] == pytest.approx(values[1], abs=1e-10)
        assert values[0] == pytest.approx(values[2], abs=1e-10)

    def test_gamma_rates_match_reference(self, model):
        tree = balanced_tree(6, branch_length=0.3)
        aln = simulate_alignment(tree, model, 25, seed=13)
        patterns = compress(aln)
        rates = discrete_gamma(0.4, 4)
        inst = create_instance(tree, model, patterns, rates=rates)
        ll = execute_plan(inst, make_plan(tree))
        assert ll == pytest.approx(
            pruning_log_likelihood(tree, model, patterns, rates), abs=1e-8
        )

    def test_scaling_does_not_change_loglik(self, model):
        tree = pectinate_tree(12, branch_length=0.2)
        aln = simulate_alignment(tree, model, 16, seed=14)
        patterns = compress(aln)
        plain = execute_plan(
            create_instance(tree, model, patterns), make_plan(tree)
        )
        scaled = execute_plan(
            create_instance(tree, model, patterns, scaling=True),
            make_plan(tree, scaling=True),
        )
        assert scaled == pytest.approx(plain, abs=1e-9)

    def test_scaling_rescues_underflow(self, model):
        # Deep pectinate tree with many patterns: unscaled partials
        # underflow double precision; scaled evaluation must stay finite
        # and match the log-space reference.
        tree = pectinate_tree(600, branch_length=0.5)
        patterns = random_patterns(tree.tip_names(), 4, seed=5)
        scaled = execute_plan(
            create_instance(tree, model, patterns, scaling=True),
            make_plan(tree, scaling=True),
        )
        assert np.isfinite(scaled)
        unscaled = execute_plan(
            create_instance(tree, model, patterns), make_plan(tree)
        )
        assert unscaled == -np.inf  # demonstrates the underflow scaling fixes

    def test_stats_launch_counts(self, model):
        tree = pectinate_tree(10)
        patterns = random_patterns(tree.tip_names(), 8, seed=6)
        inst = create_instance(tree, model, patterns)
        execute_plan(inst, make_plan(tree, "serial"))
        assert inst.stats.kernel_launches == 9
        inst.stats.reset()
        execute_plan(inst, make_plan(tree, "concurrent"))
        assert inst.stats.kernel_launches == count_operation_sets(tree)

    def test_repeated_execution_consistent(self, model):
        tree = balanced_tree(8)
        patterns = random_patterns(tree.tip_names(), 8, seed=7)
        inst = create_instance(tree, model, patterns)
        plan = make_plan(tree)
        first = execute_plan(inst, plan)
        second = execute_plan(inst, plan)
        assert first == second
