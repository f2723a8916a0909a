"""Expectation readout and the upsampling map."""
import numpy as np
import pytest

from qdeq.errors import DimensionError
from qdeq.measurement import (
    BASIS_PROJECTOR,
    PAULI_Z,
    ObservableEnsemble,
    UpsampleMap,
    expect_ensemble,
    upsample,
    upsample_batch,
    upsample_transpose_batch,
)
from qdeq.simcore import StateVector


def _basis_state(num_qubits, index):
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestExpectEnsemble:
    def test_all_zeros_state(self):
        ensemble = ObservableEnsemble.pauli_z_all(4)
        assert np.allclose(expect_ensemble(_basis_state(4, 0), ensemble), np.ones(4))

    def test_all_ones_state(self):
        ensemble = ObservableEnsemble.pauli_z_all(4)
        assert np.allclose(expect_ensemble(_basis_state(4, 0b1111), ensemble), -np.ones(4))

    def test_uniform_superposition(self):
        state = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        z = expect_ensemble(state, ObservableEnsemble(PAULI_Z, (0,)))
        proj = expect_ensemble(state, ObservableEnsemble(BASIS_PROJECTOR, (0,)))
        assert abs(z[0]) < 1e-12
        assert abs(proj[0] - 0.5) < 1e-12

    def test_pauli_range_on_random_states(self):
        rng = np.random.default_rng(0)
        ensemble = ObservableEnsemble.pauli_z_all(3)
        for _ in range(50):
            e = expect_ensemble(_random_state(rng, 3), ensemble)
            assert np.all(e >= -1.0 - 1e-12) and np.all(e <= 1.0 + 1e-12)

    def test_projector_range(self):
        rng = np.random.default_rng(1)
        ensemble = ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 7))
        for _ in range(20):
            e = expect_ensemble(_random_state(rng, 3), ensemble)
            assert np.all(e >= -1e-12) and np.all(e <= 1.0 + 1e-12)

    def test_linearity_in_density_operator(self):
        # diagonal observables: expectations are linear in |amps|^2
        rng = np.random.default_rng(2)
        ensemble = ObservableEnsemble.pauli_z_all(2)
        diags = ensemble.diagonals(2)
        for _ in range(10):
            a, b = _random_state(rng, 2), _random_state(rng, 2)
            alpha = rng.random()
            mixed_probs = alpha * np.abs(a.amplitudes) ** 2 + (1 - alpha) * np.abs(b.amplitudes) ** 2
            direct = diags @ mixed_probs
            convex = alpha * expect_ensemble(a, ensemble) + (1 - alpha) * expect_ensemble(b, ensemble)
            assert np.abs(direct - convex).max() < 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(DimensionError):
            ObservableEnsemble(PAULI_Z, (5,)).diagonals(3)
        with pytest.raises(DimensionError):
            ObservableEnsemble(BASIS_PROJECTOR, (8,)).diagonals(3)

    def test_unit_spectral_norm(self):
        for ensemble in (ObservableEnsemble.pauli_z_all(3), ObservableEnsemble(BASIS_PROJECTOR, (2,))):
            diags = ensemble.diagonals(3)
            assert np.allclose(np.abs(diags).max(axis=1), 1.0)


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

    def test_truncation_when_not_divisible(self):
        umap = UpsampleMap(4, 10)
        assert umap.repeat == 3
        out = upsample(np.arange(1.0, 5.0), umap)
        expected = np.repeat(np.arange(1.0, 5.0), 3)[:10] / np.sqrt(3)
        assert np.allclose(out, expected)

    def test_transpose_is_adjoint(self):
        rng = np.random.default_rng(3)
        for num_out, target in ((4, 16), (10, 100), (4, 10), (3, 7)):
            umap = UpsampleMap(num_out, target)
            v = rng.normal(size=(5, num_out))
            c = rng.normal(size=(5, target))
            lhs = np.einsum("bn,bn->b", upsample_batch(v, umap), c)
            rhs = np.einsum("bk,bk->b", v, upsample_transpose_batch(c, umap))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            upsample(np.ones(3), UpsampleMap(4, 16))
