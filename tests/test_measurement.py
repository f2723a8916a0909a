"""Expectation readout and the upsampling map."""
import numpy as np
import pytest

from qdeq.errors import DimensionError
from qdeq.measurement import (
    BASIS_PROJECTOR,
    PAULI_Z,
    ObservableEnsemble,
    UpsampleMap,
    upsample,
)

import oracle


def _basis_state(num_qubits, index):
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return amps


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _expect(amps, ensemble):
    """<psi|M_k|psi> for each ensemble member, read from the ensemble's diagonals."""
    return ensemble.diagonals(len(amps).bit_length() - 1) @ np.abs(amps) ** 2


class TestExpectEnsemble:
    @pytest.mark.parametrize("num_qubits", [1, 3, 10])
    def test_pauli_z_diagonals_match_the_oracle(self, num_qubits):
        for sites in (tuple(range(num_qubits)), (num_qubits - 1, 0, num_qubits - 1)):
            got = ObservableEnsemble(PAULI_Z, sites).diagonals(num_qubits)
            assert np.array_equal(got, oracle.pauli_z_diagonals(num_qubits, sites))

    def test_all_zeros_state(self):
        ensemble = ObservableEnsemble.pauli_z_all(4)
        assert np.allclose(_expect(_basis_state(4, 0), ensemble), np.ones(4))

    def test_all_ones_state(self):
        ensemble = ObservableEnsemble.pauli_z_all(4)
        assert np.allclose(_expect(_basis_state(4, 0b1111), ensemble), -np.ones(4))

    def test_uniform_superposition(self):
        state = np.array([1.0, 1.0]) / np.sqrt(2)
        z = _expect(state, ObservableEnsemble(PAULI_Z, (0,)))
        proj = _expect(state, ObservableEnsemble(BASIS_PROJECTOR, (0,)))
        assert abs(z[0]) < 1e-12
        assert abs(proj[0] - 0.5) < 1e-12

    def test_pauli_range_on_random_states(self):
        rng = np.random.default_rng(0)
        ensemble = ObservableEnsemble.pauli_z_all(3)
        for _ in range(50):
            e = _expect(_random_state(rng, 3), ensemble)
            assert np.all(e >= -1.0 - 1e-12) and np.all(e <= 1.0 + 1e-12)

    def test_projector_range(self):
        rng = np.random.default_rng(1)
        ensemble = ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 7))
        for _ in range(20):
            e = _expect(_random_state(rng, 3), ensemble)
            assert np.all(e >= -1e-12) and np.all(e <= 1.0 + 1e-12)

    def test_linearity_in_density_operator(self):
        # diagonal observables: expectations are linear in |amps|^2
        rng = np.random.default_rng(2)
        ensemble = ObservableEnsemble.pauli_z_all(2)
        diags = ensemble.diagonals(2)
        for _ in range(10):
            a, b = _random_state(rng, 2), _random_state(rng, 2)
            alpha = rng.random()
            mixed_probs = alpha * np.abs(a) ** 2 + (1 - alpha) * np.abs(b) ** 2
            direct = diags @ mixed_probs
            convex = alpha * _expect(a, ensemble) + (1 - alpha) * _expect(b, ensemble)
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


STAIRCASE = (128,) * 4 + (256,) * 2 + (1024,) * 4  # the Q=10 staircase's cone widths on 100 rows


class TestClasses:
    """The class table: columns with equal diagonal entries over a group of observables read at one
    width, below that width."""

    CASES = [
        (ObservableEnsemble.pauli_z_all(3), (8,) * 3),
        (ObservableEnsemble.pauli_z_all(4), (16,) * 4),
        (ObservableEnsemble.pauli_z_all(10), (1024,) * 10),
        (ObservableEnsemble.pauli_z_all(10), STAIRCASE),
        (ObservableEnsemble(PAULI_Z, (2, 0, 2)), (8, 4, 8)),
        (ObservableEnsemble(PAULI_Z, (1, 3)), (16,) * 4),
        (ObservableEnsemble(PAULI_Z, (9, 0, 4, 5, 7, 2, 8)), (1024,) * 10),
        (ObservableEnsemble(PAULI_Z, (9, 0, 4, 5, 7, 2, 8)), STAIRCASE),
        (ObservableEnsemble(BASIS_PROJECTOR, (6, 1, 6)), (8,) * 3),
        (ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 5, 9)), (16,) * 4),
        (ObservableEnsemble(BASIS_PROJECTOR, (1023, 0, 17, 512, 64, 5, 900)), (1024,) * 10),
        (ObservableEnsemble(BASIS_PROJECTOR, (1023, 0, 17, 512, 64, 5, 900)), (128,) * 5 + (512,) * 5),
    ]

    @pytest.mark.parametrize("ensemble, widths", CASES)
    def test_classes_partition_the_live_columns_and_rebuild_the_diagonals(self, ensemble, widths):
        num_qubits = len(widths)
        diags = ensemble.diagonals(num_qubits)
        table = ensemble.classes(num_qubits, widths)
        # groups of up to 5 observables read at one width, by width and then in order; projectors
        # read at the widest, and a group with no non-zero entry below its width is left out
        reads = [widths[s] if ensemble.kind == PAULI_Z else max(widths) for s in ensemble.sites]
        groups = []
        for width in sorted(set(reads)):
            members = [k for k in range(ensemble.size) if reads[k] == width]
            groups += [members[lo : lo + 5] for lo in range(0, len(members), 5)]
        assert [obs.tolist() for obs, *_ in table] == [g for g in groups if diags[g, : reads[g[0]]].any()]
        for obs, signs, cols, slots in table:
            block = diags[obs, : len(slots)]
            live = np.flatnonzero(block.any(axis=0))
            assert cols.ndim == 2 and signs.shape == (len(block), len(cols))
            # every live column in exactly one class, and every class the same size
            assert np.array_equal(np.sort(cols, axis=None), live)
            assert np.abs(signs).sum(axis=0).min() > 0
            rebuilt = np.zeros_like(block)
            for c in range(len(cols)):
                rebuilt[:, cols[c]] = signs[:, c, None]
            assert np.array_equal(rebuilt, block)
            assert np.array_equal(cols.reshape(-1)[slots[live]], live)
            assert (np.delete(slots, live) == cols.size).all()

    def test_class_sizes(self):
        full = ObservableEnsemble.pauli_z_all(10).classes(10, (1024,) * 10)
        assert [c.shape for _, _, c, _ in full] == [(32, 32)] * 2
        cone = ObservableEnsemble.pauli_z_all(10).classes(10, STAIRCASE)
        assert [c.shape for _, _, c, _ in cone] == [(16, 8), (4, 64), (16, 64)]
        assert [c.shape for _, _, c, _ in ObservableEnsemble(PAULI_Z, (1, 3, 1)).classes(4, (16,) * 4)] == [(4, 4)]
        projectors = ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 5, 9)).classes(4, (16,) * 4)
        assert [c.shape for _, _, c, _ in projectors] == [(4, 1)]

    def test_table_is_cached_and_read_only(self):
        ensemble = ObservableEnsemble.pauli_z_all(4)
        assert ensemble.classes(4, (16,) * 4) is ObservableEnsemble.pauli_z_all(4).classes(4, [16] * 4)
        for array in ensemble.classes(4, (16,) * 4)[0]:
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
