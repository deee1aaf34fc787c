"""Unit tests for Alignment."""

from __future__ import annotations

import pytest

from repro.data import AMINO_ACID, Alignment


@pytest.fixture
def aln():
    return Alignment({"x": "ACGT", "y": "ACGA", "z": "TNGT"})


class TestConstruction:
    def test_basic(self, aln):
        assert aln.n_taxa == 3
        assert aln.n_sites == 4
        assert aln.names == ["x", "y", "z"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alignment({})

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Alignment({"x": "ACGT", "y": "AC"})

    def test_rejects_bad_symbol(self):
        with pytest.raises(ValueError):
            Alignment({"x": "AXGT"})  # X is not a DNA symbol

    def test_protein_alphabet(self):
        a = Alignment({"x": "MKV", "y": "MXV"}, AMINO_ACID)
        assert a.alphabet is AMINO_ACID
        assert a.has_ambiguity()


class TestAccess:
    def test_sequence(self, aln):
        assert "".join(aln.sequence("x")) == "ACGT"
        with pytest.raises(KeyError):
            aln.sequence("missing")

    def test_column(self, aln):
        assert aln.column(0) == ("A", "A", "T")
        assert aln.column(3) == ("T", "A", "T")
        with pytest.raises(IndexError):
            aln.column(4)

    def test_columns_iterator(self, aln):
        assert len(list(aln.columns())) == 4

    def test_iteration(self, aln):
        names = [name for name, _ in aln]
        assert names == ["x", "y", "z"]


class TestEncodingAndSubsets:
    def test_encoded(self, aln):
        codes = aln.encoded()
        assert codes.shape == (3, 4)
        assert codes[2, 1] == 4  # the N

    def test_has_ambiguity(self, aln):
        assert aln.has_ambiguity()
        assert not Alignment({"x": "ACGT"}).has_ambiguity()

    def test_taxon_subset_reorders(self, aln):
        sub = aln.taxon_subset(["z", "x"])
        assert sub.names == ["z", "x"]
        assert "".join(sub.sequence("z")) == "TNGT"

    def test_site_subset(self, aln):
        sub = aln.site_subset([3, 0])
        assert sub.n_sites == 2
        assert "".join(sub.sequence("x")) == "TA"
