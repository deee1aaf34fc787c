"""Unit tests for NEXUS IO."""

from __future__ import annotations

import pytest

from repro.data import (
    AMINO_ACID,
    format_nexus_alignment,
    format_nexus_trees,
    parse_nexus_alignment,
    parse_nexus_trees,
    read_nexus_alignment,
    read_nexus_trees,
    write_nexus_alignment,
    write_nexus_trees,
)
from repro.trees import balanced_tree, parse_newick, same_unrooted_topology


NEXUS_DATA = """\
#NEXUS
[ example file ]
BEGIN DATA;
    DIMENSIONS ntax=3 nchar=8;
    FORMAT datatype=dna missing=? gap=-;
    MATRIX
        alpha  ACGTACGT
        beta   ACGTACGA
        gamma  ACG-ACGN
    ;
END;
"""

NEXUS_TREES = """\
#NEXUS
BEGIN TREES;
    TRANSLATE
        1 alpha,
        2 beta,
        3 gamma;
    TREE first = ((1:0.1,2:0.2):0.05,3:0.3);
    TREE * second = ((1:0.1,3:0.2):0.05,2:0.3);
END;
"""


class TestParseAlignment:
    def test_basic(self):
        a = parse_nexus_alignment(NEXUS_DATA)
        assert a.n_taxa == 3
        assert a.n_sites == 8
        assert "".join(a.sequence("gamma")) == "ACG-ACGN"

    def test_interleaved_rows_concatenate(self):
        text = NEXUS_DATA.replace(
            "        alpha  ACGTACGT\n", "        alpha  ACGT\n        alpha  ACGT\n"
        )
        a = parse_nexus_alignment(text)
        assert "".join(a.sequence("alpha")) == "ACGTACGT"

    def test_protein_datatype(self):
        text = NEXUS_DATA.replace("datatype=dna", "datatype=protein").replace(
            "ACGTACGT", "MKVLWAAL"
        ).replace("ACGTACGA", "MKVLWAAX").replace("ACG-ACGN", "MKV-WAAL")
        a = parse_nexus_alignment(text)
        assert a.alphabet is AMINO_ACID

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_nexus_alignment("not nexus at all")
        with pytest.raises(ValueError):
            parse_nexus_alignment("#NEXUS\nBEGIN TREES;\nEND;")
        with pytest.raises(ValueError):
            parse_nexus_alignment(NEXUS_DATA.replace("ntax=3", "ntax=5"))
        with pytest.raises(ValueError):
            parse_nexus_alignment(NEXUS_DATA.replace("nchar=8", "nchar=9"))
        with pytest.raises(ValueError):
            parse_nexus_alignment(NEXUS_DATA.replace("datatype=dna", "datatype=standard"))

    def test_comments_stripped(self):
        text = NEXUS_DATA.replace("ACGTACGT", "ACGT[comment]ACGT")
        a = parse_nexus_alignment(text)
        assert "".join(a.sequence("alpha")) == "ACGTACGT"

    def test_unbalanced_comment(self):
        with pytest.raises(ValueError):
            parse_nexus_alignment("#NEXUS [oops")


class TestParseTrees:
    def test_translate_applied(self):
        trees = parse_nexus_trees(NEXUS_TREES)
        assert set(trees) == {"first", "second"}
        assert sorted(trees["first"].tip_names()) == ["alpha", "beta", "gamma"]

    def test_branch_lengths(self):
        trees = parse_nexus_trees(NEXUS_TREES)
        assert trees["first"].find("gamma").length == pytest.approx(0.3)

    def test_no_trees_block(self):
        with pytest.raises(ValueError):
            parse_nexus_trees(NEXUS_DATA)

    def test_without_translate(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE t1 = ((a,b),c);\nEND;\n"
        trees = parse_nexus_trees(text)
        assert sorted(trees["t1"].tip_names()) == ["a", "b", "c"]


class TestRoundTrips:
    def test_alignment_roundtrip(self, tmp_path):
        a = parse_nexus_alignment(NEXUS_DATA)
        path = tmp_path / "aln.nex"
        write_nexus_alignment(a, path)
        b = read_nexus_alignment(path)
        assert b.names == a.names
        assert all("".join(b.sequence(n)) == "".join(a.sequence(n)) for n in a.names)

    def test_trees_roundtrip(self, tmp_path):
        original = {"t1": balanced_tree(6), "t2": parse_newick("((a,b),(c,d));")}
        path = tmp_path / "trees.nex"
        write_nexus_trees(original, path)
        back = read_nexus_trees(path)
        assert set(back) == {"t1", "t2"}
        assert same_unrooted_topology(back["t1"], original["t1"])

    def test_write_rejects_codon_alphabet(self):
        from repro.models import GY94
        from repro.data import simulate_alignment

        tree = balanced_tree(3, branch_length=0.1)
        aln = simulate_alignment(tree, GY94(), 4, seed=1)
        with pytest.raises(ValueError):
            format_nexus_alignment(aln)

    def test_format_trees_rejects_empty(self):
        with pytest.raises(ValueError):
            format_nexus_trees({})
