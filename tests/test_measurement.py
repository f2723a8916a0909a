"""Expectation readout and the upsampling map."""
import numpy as np
import pytest

from qdeq.errors import DimensionError
from qdeq.measurement import ObservableEnsemble, UpsampleMap, upsample

import oracle


def _basis_state(num_qubits, index):
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return amps


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _expect(amps, ensemble):
    """<psi|Z_q|psi> for each qubit q, read from the ensemble's diagonals."""
    return ensemble.diagonals() @ np.abs(amps) ** 2


class TestExpectEnsemble:
    @pytest.mark.parametrize("num_qubits", [1, 3, 10])
    def test_pauli_z_diagonals_match_the_oracle(self, num_qubits):
        ensemble = ObservableEnsemble(num_qubits)
        assert ensemble.size == num_qubits
        assert np.array_equal(ensemble.diagonals(), oracle.pauli_z_diagonals(num_qubits))

    def test_all_zeros_state(self):
        ensemble = ObservableEnsemble(4)
        assert np.allclose(_expect(_basis_state(4, 0), ensemble), np.ones(4))

    def test_all_ones_state(self):
        ensemble = ObservableEnsemble(4)
        assert np.allclose(_expect(_basis_state(4, 0b1111), ensemble), -np.ones(4))

    def test_uniform_superposition(self):
        state = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(_expect(state, ObservableEnsemble(1))[0]) < 1e-12

    def test_pauli_range_on_random_states(self):
        rng = np.random.default_rng(0)
        ensemble = ObservableEnsemble(3)
        for _ in range(50):
            e = _expect(_random_state(rng, 3), ensemble)
            assert np.all(e >= -1.0 - 1e-12) and np.all(e <= 1.0 + 1e-12)

    def test_linearity_in_density_operator(self):
        # diagonal observables: expectations are linear in |amps|^2
        rng = np.random.default_rng(2)
        ensemble = ObservableEnsemble(2)
        diags = ensemble.diagonals()
        for _ in range(10):
            a, b = _random_state(rng, 2), _random_state(rng, 2)
            alpha = rng.random()
            mixed_probs = alpha * np.abs(a) ** 2 + (1 - alpha) * np.abs(b) ** 2
            direct = diags @ mixed_probs
            convex = alpha * _expect(a, ensemble) + (1 - alpha) * _expect(b, ensemble)
            assert np.abs(direct - convex).max() < 1e-12

    def test_needs_a_qubit(self):
        with pytest.raises(DimensionError):
            ObservableEnsemble(0)

    def test_unit_spectral_norm(self):
        diags = ObservableEnsemble(3).diagonals()
        assert np.allclose(np.abs(diags).max(axis=1), 1.0)


STAIRCASE = (128,) * 4 + (256,) * 2 + (1024,) * 4  # the Q=10 staircase's cone widths on 100 rows


class TestClasses:
    """The class table: columns with equal diagonal entries over a group of qubits read at one
    width, below that width."""

    # (16,) * 5: Z_4 read below its own bit, where it is +1 on every column; the Q=6 and Q=8
    # staircases' cone widths on 12 and 40 rows
    CASES = [(8,) * 3, (16,) * 4, (16,) * 5, (16,) * 2 + (64,) * 4, (64,) * 4 + (256,) * 4, (1024,) * 10, STAIRCASE]

    @pytest.mark.parametrize("widths", CASES)
    def test_classes_partition_the_columns_and_rebuild_the_diagonals(self, widths):
        num_qubits = len(widths)
        ensemble = ObservableEnsemble(num_qubits)
        diags = ensemble.diagonals()
        table = ensemble.classes(widths)
        # groups of up to 5 qubits read at one width, by width and then in order
        groups = []
        for width in sorted(set(widths)):
            members = [q for q in range(num_qubits) if widths[q] == width]
            groups += [members[lo : lo + 5] for lo in range(0, len(members), 5)]
        assert [obs.tolist() for obs, *_ in table] == groups
        for obs, signs, cols, slots in table:
            block, every = diags[obs, : len(slots)], np.arange(len(slots))
            assert cols.ndim == 2 and signs.shape == (len(block), len(cols))
            # every column in exactly one class, and every class the same size
            assert np.array_equal(np.sort(cols, axis=None), every)
            assert (np.abs(signs) == 1).all()
            rebuilt = np.zeros_like(block)
            for c in range(len(cols)):
                rebuilt[:, cols[c]] = signs[:, c, None]
            assert np.array_equal(rebuilt, block)
            assert np.array_equal(cols.reshape(-1)[slots], every)

    def test_class_sizes(self):
        full = ObservableEnsemble(10).classes((1024,) * 10)
        assert [c.shape for _, _, c, _ in full] == [(32, 32)] * 2
        cone = ObservableEnsemble(10).classes(STAIRCASE)
        assert [c.shape for _, _, c, _ in cone] == [(16, 8), (4, 64), (16, 64)]
        assert [c.shape for _, _, c, _ in ObservableEnsemble(5).classes((16,) * 5)] == [(16, 1)]

    def test_table_is_cached_and_read_only(self):
        ensemble = ObservableEnsemble(4)
        assert ensemble.classes((16,) * 4) is ObservableEnsemble(4).classes([16] * 4)
        for array in ensemble.classes((16,) * 4)[0] + (ensemble.diagonals(),):
            with pytest.raises(ValueError):
                array[0] = 0


class TestUpsample:
    def test_basis_vector_isometry(self):
        umap = UpsampleMap(4, 16)
        out = upsample(np.array([1.0, 0, 0, 0]), umap)
        expected = np.zeros(16)
        expected[:4] = 0.5
        assert np.allclose(out, expected)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_exact_division_preserves_norm(self):
        umap = UpsampleMap(10, 100)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=10)
            assert abs(np.linalg.norm(upsample(v, umap)) - np.linalg.norm(v)) < 1e-12

    def test_identity_map(self):
        umap = UpsampleMap(1, 1)
        assert np.allclose(upsample(np.array([0.7]), umap), [0.7])

    def test_target_must_be_a_multiple(self):
        for num_out, target in ((4, 10), (3, 8)):
            with pytest.raises(DimensionError):
                UpsampleMap(num_out, target)

    def test_transpose_is_adjoint(self):
        # c @ S, the backward pass's readout cotangent, is the adjoint of the reference upsample
        rng = np.random.default_rng(3)
        for num_out, target in ((4, 16), (10, 100), (3, 6)):
            umap = UpsampleMap(num_out, target)
            v = rng.normal(size=(5, num_out))
            c = rng.normal(size=(5, target))
            lhs = np.array([upsample(row, umap) @ cot for row, cot in zip(v, c)])
            rhs = np.einsum("bk,bk->b", v, c @ umap.matrix)
            assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("num_out, target", [(4, 16), (10, 100), (3, 12)])
    def test_matrix_columns_are_upsampled_basis_vectors(self, num_out, target):
        umap = UpsampleMap(num_out, target)
        S = umap.matrix
        assert S.shape == (target, num_out)
        for k, e in enumerate(np.eye(num_out)):
            assert np.array_equal(S[:, k], upsample(e, umap))

    def test_matrix_is_cached_and_read_only(self):
        umap = UpsampleMap(4, 16)
        assert umap.matrix is umap.matrix
        with pytest.raises(ValueError):
            umap.matrix[0, 0] = 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            upsample(np.ones(3), UpsampleMap(4, 16))
