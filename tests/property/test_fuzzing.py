"""Fuzzing: hostile inputs must fail predictably, never crash strangely."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import parse_fasta, parse_phylip
from repro.data.io_nexus import parse_nexus_alignment, parse_nexus_trees
from repro.trees import NewickError, parse_newick, write_newick


class TestNewickFuzz:
    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_arbitrary_text_parses_or_raises_newick_error(self, text):
        try:
            tree = parse_newick(text)
        except NewickError:
            return
        # If it parsed, it must serialise back and re-parse stably.
        again = parse_newick(write_newick(tree))
        assert again.n_tips == tree.n_tips

    @given(st.text(alphabet="(),;:ab0.123'", max_size=60))
    @settings(max_examples=200)
    def test_newick_shaped_garbage(self, text):
        try:
            parse_newick(text)
        except NewickError:
            pass

    def test_pathological_nesting(self):
        deep = "(" * 2000 + "a" + ",b" * 0 + ")" * 2000 + ";"
        try:
            tree = parse_newick(deep)
            assert tree.n_tips >= 1
        except NewickError:
            pass


class TestFormatFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=100)
    def test_fasta_fuzz(self, text):
        try:
            parse_fasta(text)
        except ValueError:
            pass

    @given(st.text(max_size=120))
    @settings(max_examples=100)
    def test_phylip_fuzz(self, text):
        try:
            parse_phylip(text)
        except ValueError:
            pass

    @given(st.text(max_size=150))
    @settings(max_examples=100)
    def test_nexus_fuzz(self, text):
        for parser in (parse_nexus_alignment, parse_nexus_trees):
            try:
                parser(text)
            except ValueError:
                pass


class TestDtypeConsistency:
    def test_batched_path_preserves_dtype(self):
        from repro.core import create_instance, execute_plan, make_plan
        from repro.data import random_patterns
        from repro.models import JC69
        from repro.trees import balanced_tree

        tree = balanced_tree(32, branch_length=0.1)  # sets >= batch threshold
        patterns = random_patterns(tree.tip_names(), 16, seed=1)
        inst = create_instance(tree, JC69(), patterns, dtype=np.float32)
        execute_plan(inst, make_plan(tree))
        root = inst.get_partials(make_plan(tree).root_buffer)
        assert root.dtype == np.float32

    def test_serial_path_preserves_dtype(self):
        from repro.core import create_instance, execute_plan, make_plan
        from repro.data import random_patterns
        from repro.models import JC69
        from repro.trees import balanced_tree

        tree = balanced_tree(8, branch_length=0.1)
        patterns = random_patterns(tree.tip_names(), 16, seed=1)
        inst = create_instance(tree, JC69(), patterns, dtype=np.float32)
        plan = make_plan(tree, "serial")
        execute_plan(inst, plan)
        assert inst.get_partials(plan.root_buffer).dtype == np.float32
