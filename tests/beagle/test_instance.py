"""Unit tests for the BeagleInstance API surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.beagle import BeagleInstance, Operation
from repro.models import HKY85, JC69


def make_instance(**overrides):
    kwargs = dict(
        tip_count=4,
        partials_buffer_count=3,
        matrix_count=7,
        pattern_count=8,
        state_count=4,
        category_count=1,
        scale_buffer_count=4,
    )
    kwargs.update(overrides)
    return BeagleInstance(**kwargs)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_instance(tip_count=0)
        with pytest.raises(ValueError):
            make_instance(pattern_count=0)

    def test_flops_property(self):
        inst = make_instance()
        assert inst.flops_per_operation == 8 * 4 * 17


class TestSetters:
    def test_tip_states_roundtrip(self):
        inst = make_instance()
        codes = [0, 1, 2, 3, 4, 0, 1, 2]
        inst.set_tip_states(0, codes)
        partials = inst.get_partials(0)
        assert partials.shape == (1, 8, 4)
        assert np.array_equal(partials[0, 0], [1, 0, 0, 0])
        assert np.array_equal(partials[0, 4], [1, 1, 1, 1])

    def test_tip_states_validation(self):
        inst = make_instance()
        with pytest.raises(IndexError):
            inst.set_tip_states(9, [0] * 8)
        with pytest.raises(ValueError):
            inst.set_tip_states(0, [0] * 5)
        with pytest.raises(ValueError):
            inst.set_tip_states(0, [7] * 8)

    def test_batched_tip_states_match_single_calls(self):
        """One ``set_tip_states_rows`` call stores what one
        ``set_tip_states`` call per tip stores, replaces explicit partials
        the same way and raises the same errors."""
        codes = np.random.default_rng(1).integers(0, 5, size=(3, 8))
        single, batch = make_instance(), make_instance()
        for inst in (single, batch):
            inst.set_tip_partials(2, np.ones((8, 4)))
        for tip, row in zip((3, 0, 2), codes):
            single.set_tip_states(tip, row)
        batch.set_tip_states_rows([3, 0, 2], codes.astype(np.int32))
        for tip in range(4):
            assert batch._tip_kinds[tip] == single._tip_kinds[tip]
            assert tip not in batch._tip_partials
        for tip in (3, 0, 2):
            assert np.array_equal(batch.get_partials(tip), single.get_partials(tip))
        assert np.array_equal(batch._tip_codes_dense, single._tip_codes_dense)
        assert bytes(batch._tip_kinds) == bytes(single._tip_kinds)
        for tips, rows, error, message in (
            ([1, 9], [[0] * 8] * 2, IndexError, "tip index 9 out of range"),
            ([1, 2], [[0] * 8], ValueError, "codes length"),
            ([1, 2], [[0] * 8, [0] * 5], ValueError, None),  # ragged
            ([1, 2], [[0] * 8, [7] * 8], ValueError, "tip codes out of range"),
            ([1, 2], [[0] * 8, [-1] * 8], ValueError, "tip codes out of range"),
        ):
            inst = make_instance()
            with pytest.raises(error, match=message):
                inst.set_tip_states_rows(tips, rows)
            assert inst._tip_kinds == bytes(4)
            assert not inst._tip_codes_dense.any()

    def test_tip_partials(self):
        inst = make_instance(category_count=2)
        mat = np.random.default_rng(0).random((8, 4))
        inst.set_tip_partials(1, mat)
        stored = inst.get_partials(1)
        assert stored.shape == (2, 8, 4)
        assert np.allclose(stored[0], mat)
        assert np.allclose(stored[1], mat)

    def test_tip_partials_replace_states(self):
        inst = make_instance()
        inst.set_tip_states(0, [0] * 8)
        inst.set_tip_partials(0, np.ones((8, 4)))
        assert np.allclose(inst.get_partials(0), 1.0)

    def test_weights_frequencies_validation(self):
        inst = make_instance()
        with pytest.raises(ValueError):
            inst.set_pattern_weights([1.0] * 3)
        with pytest.raises(ValueError):
            inst.set_pattern_weights([-1.0] * 8)
        with pytest.raises(ValueError):
            inst.set_state_frequencies([0.5, 0.5])
        inst.set_state_frequencies([2, 2, 2, 2])  # renormalised
        with pytest.raises(ValueError):
            inst.set_category_weights([0.5, 0.5])  # wrong count

    def test_eigen_validation(self):
        inst = make_instance()
        from repro.models import Poisson

        with pytest.raises(ValueError):
            inst.set_eigen_decomposition(0, Poisson().eigen)  # 20 states


class TestTransitionMatrices:
    def test_update_and_category_rates(self):
        model = JC69()
        inst = make_instance(category_count=2)
        inst.set_category_rates([0.5, 2.0])
        inst.set_eigen_decomposition(0, model.eigen)
        inst.update_transition_matrices(0, [3], [0.2])
        assert np.allclose(inst._matrices[3][0], model.transition_matrix(0.1))
        assert np.allclose(inst._matrices[3][1], model.transition_matrix(0.4))

    def test_missing_eigen(self):
        inst = make_instance()
        with pytest.raises(KeyError):
            inst.update_transition_matrices(0, [0], [0.1])

    def test_mismatched_args(self):
        inst = make_instance()
        inst.set_eigen_decomposition(0, JC69().eigen)
        with pytest.raises(ValueError):
            inst.update_transition_matrices(0, [0, 1], [0.1])

    def test_direct_matrix_set(self):
        inst = make_instance()
        P = JC69().transition_matrix(0.3)
        inst.set_transition_matrix(2, P)
        assert np.allclose(inst._matrices[2][0], P)


class TestExecution:
    def setup_cherry(self, inst):
        """Two tips joined at buffer 4: ((0,1)4)."""
        inst.set_tip_states(0, [0] * 8)
        inst.set_tip_states(1, [1] * 8)
        inst.set_eigen_decomposition(0, JC69().eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.2])
        return Operation(4, 0, 0, 1, 1)

    def test_single_operation(self):
        inst = make_instance()
        op = self.setup_cherry(inst)
        inst.update_partials_set([op])
        result = inst.get_partials(4)
        model = JC69()
        expected = np.outer(
            np.ones(8), model.transition_matrix(0.1)[:, 0] * model.transition_matrix(0.2)[:, 1]
        )
        assert np.allclose(result[0], expected)

    def test_stats_counting(self):
        inst = make_instance()
        op = self.setup_cherry(inst)
        inst.update_partials_set([op])
        assert inst.stats.kernel_launches == 1
        assert inst.stats.operations == 1
        assert inst.stats.flops == inst.flops_per_operation
        inst.stats.reset()
        assert inst.stats.kernel_launches == 0

    def test_set_execution_counts_one_launch(self):
        inst = make_instance()
        self.setup_cherry(inst)
        inst.update_transition_matrices(0, [2, 3], [0.1, 0.3])
        inst.set_tip_states(2, [2] * 8)
        inst.set_tip_states(3, [3] * 8)
        ops = [Operation(4, 0, 0, 1, 1), Operation(5, 2, 2, 3, 3)]
        inst.update_partials_set(ops)
        assert inst.stats.kernel_launches == 1
        assert inst.stats.operations == 2

    def test_set_rejects_dependent_ops(self):
        inst = make_instance()
        self.setup_cherry(inst)
        ops = [Operation(4, 0, 0, 1, 1), Operation(5, 4, 2, 1, 1)]
        with pytest.raises(ValueError):
            inst.update_partials_set(ops)

    def test_read_before_write_rejected(self):
        inst = make_instance()
        self.setup_cherry(inst)
        with pytest.raises(ValueError):
            inst.update_partials_set([Operation(5, 4, 0, 1, 1)])

    def test_missing_tip_data(self):
        inst = make_instance()
        inst.set_eigen_decomposition(0, JC69().eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        with pytest.raises(ValueError):
            inst.update_partials_set([Operation(4, 0, 0, 1, 1)])

    def test_invalidate_partials(self):
        inst = make_instance()
        op = self.setup_cherry(inst)
        inst.update_partials_set([op])
        inst.invalidate_partials()
        with pytest.raises(ValueError):
            inst.get_partials(4)

    def test_scaling_writes_buffer(self):
        inst = make_instance()
        op = self.setup_cherry(inst)
        scaled_op = Operation(4, 0, 0, 1, 1, destination_scale=0)
        inst.update_partials_set([scaled_op])
        logs = inst.scale.read(0)
        assert logs.shape == (8,)
        assert np.all(logs <= 0)  # partials are probabilities < 1
        assert inst.get_partials(4).max() == pytest.approx(1.0)


class TestRootLikelihood:
    def test_known_two_tip_value(self):
        # Likelihood of two tips A, C joined over branches t1 + t2 under
        # JC: pi_z * P(A|z,t1) * P(C|z,t2) summed over z; analytic check.
        model = JC69()
        inst = make_instance(pattern_count=1, scale_buffer_count=0)
        inst.set_tip_states(0, [0])
        inst.set_tip_states(1, [1])
        inst.set_eigen_decomposition(0, model.eigen)
        inst.update_transition_matrices(0, [0, 1], [0.15, 0.25])
        inst.update_partials_set([Operation(4, 0, 0, 1, 1)])
        ll = inst.calculate_root_log_likelihood(4)
        P1 = model.transition_matrix(0.15)
        P2 = model.transition_matrix(0.25)
        expected = np.log(np.sum(0.25 * P1[:, 0] * P2[:, 1]))
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_root_must_hold_partials(self):
        inst = make_instance()
        inst.set_tip_states(0, [0] * 8)
        with pytest.raises(ValueError):
            inst.calculate_root_log_likelihood(0)

    def test_pattern_weights_multiply(self):
        model = JC69()
        inst = make_instance(pattern_count=2)
        inst.set_tip_states(0, [0, 0])
        inst.set_tip_states(1, [1, 1])
        inst.set_eigen_decomposition(0, model.eigen)
        inst.update_transition_matrices(0, [0, 1], [0.1, 0.1])
        inst.update_partials_set([Operation(4, 0, 0, 1, 1)])
        base = inst.calculate_root_log_likelihood(4)
        inst.set_pattern_weights([3.0, 5.0])
        weighted = inst.calculate_root_log_likelihood(4)
        assert weighted == pytest.approx(base * 4.0)  # (3+5)/2 per pattern

    def test_edge_likelihood_matches_root(self):
        # Rooting the reduction on the edge above a tip must equal the
        # root reduction of the full tree (pulley principle, in-engine).
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        inst = make_instance(pattern_count=4)
        inst.set_tip_states(0, [0, 1, 2, 3])
        inst.set_tip_states(1, [1, 1, 2, 2])
        inst.set_tip_states(2, [3, 0, 0, 1])
        inst.set_state_frequencies(model.frequencies)
        inst.set_eigen_decomposition(0, model.eigen)
        # Tree ((0,1)4,2)5 with branch matrices 0,1 below 4; 4's own
        # branch matrix 2; tip 2's matrix 3.
        inst.update_transition_matrices(0, [0, 1, 2, 3], [0.1, 0.2, 0.15, 0.3])
        inst.update_partials_set([Operation(4, 0, 0, 1, 1)])
        inst.update_partials_set([Operation(5, 4, 2, 2, 3)])
        root_ll = inst.calculate_root_log_likelihood(5)
        # Edge view: partials at 4, child 2 across combined matrix of
        # t = 0.15 + 0.3 (JC-style merge works for reversible models).
        inst.update_transition_matrices(0, [6], [0.45])
        edge_ll = inst.calculate_edge_log_likelihood(4, 2, 6)
        assert edge_ll == pytest.approx(root_ll, abs=1e-10)


class TestGammaCategories:
    def test_two_categories_average(self):
        model = JC69()
        inst = make_instance(pattern_count=1, category_count=2)
        inst.set_category_rates([0.5, 1.5])
        inst.set_category_weights([0.5, 0.5])
        inst.set_tip_states(0, [0])
        inst.set_tip_states(1, [1])
        inst.set_eigen_decomposition(0, model.eigen)
        inst.update_transition_matrices(0, [0, 1], [0.2, 0.2])
        inst.update_partials_set([Operation(4, 0, 0, 1, 1)])
        ll = inst.calculate_root_log_likelihood(4)
        site = 0.0
        for rate in (0.5, 1.5):
            P = model.transition_matrix(0.2 * rate)
            site += 0.5 * np.sum(0.25 * P[:, 0] * P[:, 1])
        assert ll == pytest.approx(np.log(site), abs=1e-12)
