"""Amplitude/angle encodings and input injection."""
import numpy as np
import pytest

from qdeq import encoding
from qdeq.encoding import EncodingSpec, amplitude_encode, angle_encode, encode, encoder, inject
from qdeq.errors import DegenerateInputError, DimensionError
from qdeq.measurement import ObservableEnsemble, UpsampleMap
from qdeq.simcore import ParamCircuit, StateVector, apply_circuit

import oracle


def _encode_angle_state(x, num_qubits):
    circuit = ParamCircuit(num_qubits, tuple(angle_encode(x, num_qubits)), 0)
    return apply_circuit(circuit, [], StateVector.zero(num_qubits))


class TestAmplitudeEncode:
    def test_basis_vector(self):
        x = np.zeros(16)
        x[0] = 1.0
        state = amplitude_encode(x, 4)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_uniform(self):
        state = amplitude_encode(np.ones(16), 4)
        assert np.allclose(state.amplitudes, 0.25)

    def test_normalization_with_padding(self):
        state = amplitude_encode(np.array([3.0, 4.0]), 2)
        assert np.allclose(state.amplitudes, [0.6, 0.8, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode(np.zeros(4), 2)

    def test_batch_reports_offending_rows(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError) as err:
            encode(EncodingSpec("amplitude", 1, 2), X)
        assert list(err.value.rows) == [1, 3]

    def test_too_many_entries(self):
        with pytest.raises(DimensionError):
            amplitude_encode(np.ones(5), 2)

    def test_input_not_mutated(self):
        x = np.array([3.0, 4.0])
        amplitude_encode(x, 2)
        assert np.array_equal(x, [3.0, 4.0])

    def test_overlap_identity_on_unit_pairs(self):
        # |<z|z'>| = |1 - ||z - z'||^2 / 2| exactly for unit vectors
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.normal(size=8)
            z /= np.linalg.norm(z)
            w = rng.normal(size=8)
            w /= np.linalg.norm(w)
            overlap = abs(
                np.vdot(amplitude_encode(z, 3).amplitudes, amplitude_encode(w, 3).amplitudes)
            )
            identity = abs(1.0 - 0.5 * np.linalg.norm(z - w) ** 2)
            assert abs(overlap - identity) < 1e-12


class TestAngleEncode:
    def test_zero_angles_leave_vacuum(self):
        state = _encode_angle_state(np.zeros(8), 2)
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_half_turn_flips_z(self):
        state = _encode_angle_state(np.array([np.pi, 0.0, 0.0, 0.0]), 1)
        z = oracle.pauli_z_diagonals(1) @ np.abs(state.amplitudes) ** 2
        assert abs(z[0] + 1.0) < 1e-12

    def test_yzxy_order_is_literal(self):
        gates = angle_encode(np.arange(8.0), 2)
        kinds = [g.kind for g in gates]
        assert kinds == ["ry", "rz", "rx", "ry"] * 2
        assert [g.fixed_angle for g in gates] == list(np.arange(8.0))
        assert all(g.param_slot is None for g in gates)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            angle_encode(np.ones(7), 2)

    def test_matches_dense_rotation_product(self):
        # single-qubit encoded state vs the oracle's explicit 2x2 matrix product
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0, 2 * np.pi, 4)
            state = _encode_angle_state(x, 1).amplitudes
            assert np.abs(state - oracle.angle_state(x, 1)).max() < 1e-12

    def test_tensor_product_structure(self):
        # multi-qubit overlap equals the product of per-qubit overlaps
        rng = np.random.default_rng(2)
        for num_qubits in (2, 4):
            x = rng.uniform(0, 2 * np.pi, 4 * num_qubits)
            y = rng.uniform(0, 2 * np.pi, 4 * num_qubits)
            full = abs(
                np.vdot(
                    _encode_angle_state(x, num_qubits).amplitudes,
                    _encode_angle_state(y, num_qubits).amplitudes,
                )
            )
            per_qubit = 1.0
            for q in range(num_qubits):
                a = _encode_angle_state(x[4 * q : 4 * q + 4], 1).amplitudes
                b = _encode_angle_state(y[4 * q : 4 * q + 4], 1).amplitudes
                per_qubit *= abs(np.vdot(a, b))
            assert abs(full - per_qubit) < 1e-12

    def test_batched_ops_match_single(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 2 * np.pi, size=(6, 8))
        batch = encode(EncodingSpec("angle", 2, 8), X)[0]
        for i in range(6):
            assert np.abs(batch[i] - oracle.angle_state(X[i], 2)).max() < 1e-12

    def test_per_sample_angles_match_single_rows(self):
        rows, num_qubits = 2048, 4
        rng = np.random.default_rng(15)
        X = rng.uniform(0.0, 2.0 * np.pi, size=(rows, 4 * num_qubits))
        cot = rng.normal(size=(rows, num_qubits))
        diags = ObservableEnsemble.pauli_z_all(num_qubits).diagonals(num_qubits)

        def run(inputs, cotangent):
            psi, vjp, _ = encode(EncodingSpec("angle", num_qubits, 4 * num_qubits), inputs)
            return psi, vjp((cotangent @ diags) * psi)

        psi, dinput = run(X, cot)
        assert psi.size > 16384
        for i in range(0, rows, 16):
            single, single_dinput = run(X[i : i + 1], cot[i : i + 1])
            assert np.abs(psi[i] - single[0]).max() < 1e-12
            assert np.abs(dinput[i] - single_dinput[0]).max() < 1e-12


class TestEncoderJvp:
    """The jvp of each encoder: adjoint to its vjp and the derivative of its batch encode."""

    CASES = [("angle", 4), ("amplitude", 4), ("amplitude", 10)]

    @staticmethod
    def _encoder(kind, num_qubits, X):
        """(psi, vjp, jvp) at X: psi and the jvp give the d occupied amplitudes."""
        return encode(EncodingSpec(kind, num_qubits, X.shape[1]), X)

    @staticmethod
    def _inputs(kind, num_qubits, seed=16):
        rng = np.random.default_rng(seed)
        n = 4 * num_qubits if kind == "angle" else {4: 16, 10: 100}[num_qubits]
        X = rng.uniform(0.1, 2.0, size=(3, n))
        return rng, X, rng.normal(size=X.shape)

    @pytest.mark.parametrize("kind, num_qubits", CASES)
    def test_adjoint_to_the_vjp(self, kind, num_qubits):
        # <vjp(bra), t> = 2 Re<bra, jvp(t)> row by row
        rng, X, T = self._inputs(kind, num_qubits)
        _, vjp, jvp = self._encoder(kind, num_qubits, X)
        tangent = jvp(T)
        bra = rng.normal(size=tangent.shape) + 1j * rng.normal(size=tangent.shape)
        lhs = np.einsum("bn,bn->b", vjp(bra), T)
        rhs = 2.0 * np.einsum("bd,bd->b", bra.conj(), tangent).real
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())

    @pytest.mark.parametrize("kind, num_qubits", CASES)
    def test_matches_central_difference_of_the_encode(self, kind, num_qubits):
        _, X, T = self._inputs(kind, num_qubits)
        tangent = self._encoder(kind, num_qubits, X)[2](T)
        h = 1e-6
        fd = (self._encoder(kind, num_qubits, X + h * T)[0] - self._encoder(kind, num_qubits, X - h * T)[0]) / (2 * h)
        assert np.abs(fd - tangent).max() <= 1e-8 * np.abs(tangent).max()

    @pytest.mark.parametrize("inputs", ["edge", "large"])
    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_angle_edge_and_large_inputs(self, inputs, num_qubits):
        # inputs at 0, +-pi/2, pi and 2 pi give kets with zero entries, and |x| up to 20
        # half-angles past 2 pi: where a closed form or a shifted derivative ket could lose a sign
        rng, n = np.random.default_rng(20), 4 * num_qubits
        if inputs == "edge":
            edges = np.array([0.0, 0.5 * np.pi, -0.5 * np.pi, np.pi, 2.0 * np.pi])
            X = np.concatenate([np.repeat(edges[:, None], n, axis=1), rng.choice(edges, size=(11, n))])
        else:
            X = rng.uniform(-20.0, 20.0, size=(16, n))
            X[0, :2] = -20.0, 20.0
        T = rng.normal(size=X.shape)
        _, vjp, jvp = self._encoder("angle", num_qubits, X)
        tangent = jvp(T)
        bra = rng.normal(size=tangent.shape) + 1j * rng.normal(size=tangent.shape)
        lhs = np.einsum("bn,bn->b", vjp(bra), T)
        rhs = 2.0 * np.einsum("bd,bd->b", bra.conj(), tangent).real
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())
        # the oracle's state at x +- h t, so the derivative is checked against rotations it builds itself
        h = 1e-6
        fd = np.stack([oracle.angle_state(x + h * t, num_qubits) - oracle.angle_state(x - h * t, num_qubits)
                       for x, t in zip(X, T)]) / (2 * h)
        assert np.abs(fd - tangent).max() <= 1e-8 * np.abs(tangent).max()


class TestEncode:
    CASES = [("angle", 4, 16), ("amplitude", 4, 16), ("amplitude", 10, 100)]

    @pytest.mark.parametrize("kind, num_qubits, n", CASES)
    def test_states_pad_psi_to_the_full_register(self, kind, num_qubits, n):
        # psi is the oracle's full 2**Q-amplitude state cut to its d occupied amplitudes
        spec = EncodingSpec(kind, num_qubits, n)
        X = np.random.default_rng(17).uniform(0.1, 2.0, size=(3, n))
        psi = encode(spec, X)[0]
        prepare = oracle.amplitude_state if kind == "amplitude" else oracle.angle_state
        full = np.stack([prepare(x, num_qubits) for x in X])
        assert psi.shape == (3, spec.width) and full.shape == (3, 1 << num_qubits)
        assert np.abs(full[:, : spec.width] - psi).max() <= 1e-15 and not full[:, spec.width :].any()

    @pytest.mark.parametrize("kind, num_qubits, n", CASES)
    @pytest.mark.parametrize("shape", [(3, 8), (3, 17), (16,)])
    def test_wrong_width_rejected(self, kind, num_qubits, n, shape):
        with pytest.raises(DimensionError):
            encode(EncodingSpec(kind, num_qubits, n), np.full(shape, 0.5))

    def test_angle_kets_built_once_for_encode_vjp_and_jvp(self, monkeypatch):
        built = []
        qubit_kets = encoding._qubit_kets
        monkeypatch.setattr(encoding, "_qubit_kets", lambda a: built.append(a) or qubit_kets(a))
        X = np.random.default_rng(18).uniform(0.0, 2.0 * np.pi, size=(3, 16))
        psi, vjp, jvp = encode(EncodingSpec("angle", 4, 16), X)
        vjp(psi)
        jvp(X)
        assert len(built) == 1


def _summed_angle_encode(U, num_qubits):
    """(psi, vjp, jvp) of the angle rows U (B, 4 Q) as the encoder built them before it took x's trig
    once per batch, kept as a frozen reference: cos and sin of the summed half-angles, and each
    derivative ket as ``_ket`` with its angle's (cos, sin) replaced by (-sin, cos)/2."""
    half = np.ascontiguousarray(np.moveaxis(0.5 * U.reshape(len(U), num_qubits, 4), -1, 0))
    c, s = np.cos(half), np.sin(half)
    kets = encoding._ket(c, s)
    C, S, j = np.repeat(c[:, None], 4, axis=1), np.repeat(s[:, None], 4, axis=1), np.arange(4)
    C[j, j], S[j, j] = -0.5 * s, 0.5 * c
    dkets = encoding._ket(C, S)  # (angle, B, Q, 2)
    highs = [np.ones((len(U), 1), dtype=np.complex128)]
    for q in range(num_qubits - 1, 0, -1):
        highs.append(encoding._kron(highs[-1], kets[:, q]))
    highs = highs[::-1]

    def vjp(bra):
        rest, env = bra.conj(), np.empty_like(kets)
        for q in range(num_qubits - 1):
            rest = rest.reshape(len(U), -1, 2)
            env[:, q] = (highs[q][:, None, :] @ rest)[:, 0]
            rest = (rest @ kets[:, q, :, None])[..., 0]
        env[:, -1] = rest
        return 2.0 * np.einsum("bqs,jbqs->bqj", env, dkets).real.reshape(len(U), -1)

    def jvp(tangent):
        dphi = np.einsum("bqj,jbqs->bqs", tangent.reshape(len(U), num_qubits, 4), dkets)
        out = dphi[:, -1]
        for q in range(num_qubits - 2, -1, -1):
            out = encoding._kron(out, kets[:, q]) + encoding._kron(highs[q], dphi[:, q])
        return out

    return encoding._product(kets), vjp, jvp


def _divisor_cases():
    return [(q, k) for q in (4, 3) for k in range(1, 4 * q + 1) if (4 * q) % k == 0]


class TestEncoder:
    """``encoder(spec, x, S)``: e -> the encode of S e + x, taking an angle batch's trig of x once."""

    @staticmethod
    def _inputs(num_qubits, K, seed=30):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(6, 4 * num_qubits))
        return rng, X, rng.normal(size=(6, K)), rng.normal(size=X.shape)

    @pytest.mark.parametrize("num_qubits, K", _divisor_cases())
    def test_angle_rows_match_the_summed_angle_encode(self, num_qubits, K):
        # every K that divides n = 4 Q, so each readout covers r = 1 ... 4 Q angles (r = 3 and 6 at Q = 3)
        rng, X, E, T = self._inputs(num_qubits, K)
        umap = UpsampleMap(K, 4 * num_qubits)
        psi, vjp, jvp = encoder(EncodingSpec("angle", num_qubits, 4 * num_qubits), X, umap)(E)
        ref_psi, ref_vjp, ref_jvp = _summed_angle_encode(E @ umap.matrix.T + X, num_qubits)
        bra = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
        for got, ref in ((psi, ref_psi), (vjp(bra), ref_vjp(bra)), (jvp(T), ref_jvp(T))):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("kind, readouts", [("angle", "zero"), ("amplitude", "zero"), ("amplitude", "random")])
    def test_bit_for_bit_the_encode_of_the_upsampled_sum(self, kind, readouts):
        # e = 0 is the unroll's first layer and Broyden's first evaluation; amplitude rows at every e.
        # psi, vjp and jvp alike
        rng, X, E, T = self._inputs(4, 4)
        E = np.zeros_like(E) if readouts == "zero" else E
        spec, umap = EncodingSpec(kind, 4, 16), UpsampleMap(4, 16)
        psi, vjp, jvp = encoder(spec, X, umap)(E)
        ref_psi, ref_vjp, ref_jvp = encode(spec, inject(E @ umap.matrix.T, X))
        bra = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
        assert np.array_equal(psi, ref_psi) and np.array_equal(vjp(bra), ref_vjp(bra))
        assert np.array_equal(jvp(T), ref_jvp(T))

    @pytest.mark.parametrize("kind", ["angle", "amplitude"])
    @pytest.mark.parametrize("shape", [(3, 8), (3, 17), (16,), (3, 4, 4)])
    def test_wrong_width_rejected(self, kind, shape):
        with pytest.raises(DimensionError):
            encoder(EncodingSpec(kind, 4, 16), np.full(shape, 0.5), UpsampleMap(4, 16))(np.zeros((3, 4)))


class TestEncodingSpec:
    def test_amplitude_capacity(self):
        EncodingSpec("amplitude", 4, 16)
        with pytest.raises(DimensionError):
            EncodingSpec("amplitude", 2, 5)

    def test_angle_dimension(self):
        EncodingSpec("angle", 4, 16)
        with pytest.raises(DimensionError):
            EncodingSpec("angle", 4, 15)

    def test_width_is_the_occupied_amplitude_count(self):
        assert EncodingSpec("amplitude", 10, 100).width == 100
        assert EncodingSpec("angle", 4, 16).width == 16


class TestInject:
    def test_zero_iterate_returns_input(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(inject(np.zeros(2), x), x)

    def test_cancellation(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(inject(-x, x), np.zeros(2))

    def test_elementwise_sum(self):
        assert np.array_equal(inject(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [4.0, 6.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            inject(np.zeros(2), np.zeros(3))
