"""Unit and property tests for pattern compression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import Alignment, DNA, compress, random_patterns


class TestCompress:
    def test_identical_columns_merge(self):
        a = Alignment({"x": "AAAC", "y": "GGGT"})
        pd = compress(a)
        assert pd.n_patterns == 2
        assert pd.n_sites == 4
        assert pd.weights.tolist() == [3.0, 1.0]

    def test_all_unique(self):
        a = Alignment({"x": "ACGT", "y": "AACC"})
        pd = compress(a)
        assert pd.n_patterns == 4
        assert np.all(pd.weights == 1)

    def test_symbol_exact_identity(self):
        # (A, R) and (A, G) are distinct patterns even though R ⊇ G.
        a = Alignment({"x": "AA", "y": "RG"})
        pd = compress(a)
        assert pd.n_patterns == 2

    def test_codes_match_alphabet(self):
        a = Alignment({"x": "AN", "y": "CT"})
        pd = compress(a)
        assert pd.codes[0].tolist() == [0, 4]
        assert pd.codes[1].tolist() == [1, 3]

    def test_tip_partials_from_codes(self):
        a = Alignment({"x": "AN"})
        pd = compress(a)
        mat = pd.tip_partials("x")
        assert np.array_equal(mat[0], [1, 0, 0, 0])
        assert np.array_equal(mat[1], [1, 1, 1, 1])

    def test_tip_partials_for_iupac(self):
        a = Alignment({"x": "AR"})
        pd = compress(a)
        assert "x" in pd.partials  # R cannot be represented as a code
        mat = pd.tip_partials("x")
        assert np.array_equal(mat[1], [1, 0, 1, 0])

    def test_pure_sequences_skip_partials(self):
        a = Alignment({"x": "ACGT", "y": "ACGN"})
        pd = compress(a)
        assert pd.partials == {}  # N is total ambiguity: codes suffice

    def test_tip_codes(self):
        a = Alignment({"x": "ACCA"})
        pd = compress(a)
        assert pd.codes[pd.taxa.index("x")].tolist() == [0, 1]

    @given(st.integers(2, 8), st.integers(5, 60), st.integers(0, 999))
    def test_weights_sum_to_sites(self, n_taxa, n_sites, seed):
        rng = np.random.default_rng(seed)
        seqs = {
            f"t{i}": "".join(rng.choice(list("ACGT"), size=n_sites))
            for i in range(n_taxa)
        }
        pd = compress(Alignment(seqs))
        assert pd.n_sites == n_sites
        assert pd.n_patterns <= n_sites


class TestRandomPatterns:
    def test_shape_and_weights(self):
        pd = random_patterns(["a", "b", "c"], 128, seed=1)
        assert pd.codes.shape == (3, 128)
        assert pd.n_patterns == 128
        assert np.all(pd.weights == 1)

    def test_states_in_range(self):
        pd = random_patterns(["a", "b"], 1000, seed=2)
        assert pd.codes.min() >= 0
        assert pd.codes.max() < DNA.n_states

    def test_deterministic_seed(self):
        a = random_patterns(["a", "b"], 64, seed=7)
        b = random_patterns(["a", "b"], 64, seed=7)
        assert np.array_equal(a.codes, b.codes)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_patterns([], 10)
        with pytest.raises(ValueError):
            random_patterns(["a"], 0)
