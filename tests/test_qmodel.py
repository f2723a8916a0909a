"""Model assembly: forward chain, reverse passes, circuit builders."""
import dataclasses

import numpy as np
import pytest

from qdeq import deqsolve
from qdeq import encoding as enc
from qdeq.encoding import EncodingSpec, amplitude_encode, angle_encode
from qdeq.errors import DimensionError
from qdeq.measurement import ObservableEnsemble, UpsampleMap, expect_ensemble
from qdeq.qmodel import (
    QuantumModel,
    build_block4,
    build_default_model,
    build_staircase10,
)
from qdeq.seeding import child_seed
from qdeq.simcore import (
    GateOp, ParamCircuit, StateVector, adjoint_gradients, adjoint_sweep, apply_circuit, apply_ops,
    parameter_shift_grad, resolve_circuit,
)
from qdeq.training import TrainConfig, build_from_config, load_checkpoint, save_checkpoint

from conftest import dense_circuit


def _identity_model():
    return QuantumModel(
        encoding=EncodingSpec("amplitude", 2, 4),
        circuit=ParamCircuit(2, (), 0),
        theta=np.zeros(0),
        ensemble=ObservableEnsemble.pauli_z_all(2),
        upsample=UpsampleMap(2, 4),
    )


class TestForward:
    def test_identity_circuit_hand_chain(self):
        model = _identity_model()
        x = np.array([1.0, 0.0, 0.0, 0.0])
        out = model.forward_batch(np.zeros((1, 4)), x[None])[0]
        # encode |00>, expectations (1, 1), repeat twice each with scale 1/sqrt(2)
        assert np.allclose(out, np.full(4, 1 / np.sqrt(2)), atol=1e-12)

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_brute_force_equivalence(self, encoding):
        rng = np.random.default_rng(0)
        num_qubits = 3 if encoding == "amplitude" else 2
        n = 8 if encoding == "amplitude" else 8  # angle: 4 * 2 qubits
        model = build_default_model(encoding, num_qubits, n, seed=9, random_ops=10)
        for _ in range(5):
            z = rng.normal(size=n) * 0.2
            x = rng.uniform(0.1, 1.0, size=n)
            fast = model.forward_batch(z[None], x[None])[0]
            # dense oracle: encoded state, full unitary, diagonal expectations
            # rebuild the encoded (pre-circuit) state independently
            v = z + x
            if encoding == "amplitude":
                enc = np.zeros(1 << num_qubits, dtype=complex)
                enc[:n] = v / np.linalg.norm(v)
            else:
                from conftest import _rot_matrix

                enc = np.array([1.0, 0.0], dtype=complex)
                per_qubit = []
                for q in range(num_qubits):
                    u = (
                        _rot_matrix("ry", v[4 * q + 3])
                        @ _rot_matrix("rx", v[4 * q + 2])
                        @ _rot_matrix("rz", v[4 * q + 1])
                        @ _rot_matrix("ry", v[4 * q])
                    )
                    per_qubit.append(u @ np.array([1.0, 0.0]))
                enc = per_qubit[-1]
                for vec in reversed(per_qubit[:-1]):
                    enc = np.kron(enc, vec)
            u_full = dense_circuit(model.circuit, model.theta)
            psi = u_full @ enc
            diags = model.ensemble.diagonals(num_qubits)
            expectations = diags @ np.abs(psi) ** 2
            r = model.upsample.repeat
            expected = model.upsample.scale * np.repeat(expectations, r)[:n]
            assert np.abs(fast - expected).max() < 1e-10

    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_expectations_match_single_state_reference(self, encoding, num_qubits, input_dim):
        # row by row: encode one state, run the circuit on it, read the ensemble
        rng = np.random.default_rng(11)
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        X = rng.uniform(0.1, 1.0, size=(4, input_dim))
        Z = 0.1 * rng.normal(size=X.shape)
        got = model.expectations(Z, X)
        assert got.shape == (4, num_qubits)
        for row, v in zip(got, Z + X):
            if encoding == "amplitude":
                state = amplitude_encode(v, num_qubits)
            else:
                encoder = ParamCircuit.from_gates(num_qubits, angle_encode(v, num_qubits))
                state = apply_circuit(encoder, [], StateVector.zero(num_qubits))
            final = apply_circuit(model.circuit, model.theta, state)
            assert np.abs(row - expect_ensemble(final, model.ensemble)).max() <= 1e-12

    def test_output_norm_bound(self):
        # with isometric upsampling and Pauli-Z readout, ||f|| <= sqrt(K)
        rng = np.random.default_rng(1)
        model = build_default_model("amplitude", 4, 16, seed=2)
        for _ in range(20):
            z = rng.normal(size=16)
            x = rng.uniform(0.1, 1.0, size=16)
            assert np.linalg.norm(model.forward_batch(z[None], x[None])) <= np.sqrt(4) + 1e-9


class TestReversePasses:
    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_vjp_matches_finite_differences(self, encoding):
        rng = np.random.default_rng(2)
        model = build_default_model(encoding, 4, 16, seed=3, random_ops=12)
        z = rng.normal(size=16) * 0.3
        x = rng.uniform(0.1, 1.0, size=16)
        cot = rng.normal(size=16)
        vjp = model.backward_batch(z[None], x[None], cot[None], need_theta=False)[0][0]
        eps = 1e-5
        for j in range(16):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            diff = model.forward_batch(zp[None], x[None])[0] - model.forward_batch(zm[None], x[None])[0]
            fd = cot @ diff / (2 * eps)
            assert abs(vjp[j] - fd) < 1e-5

    def test_vjp_linear_in_cotangent(self):
        rng = np.random.default_rng(3)
        model = build_default_model("amplitude", 3, 8, seed=4, random_ops=8)
        z = rng.normal(size=8) * 0.2
        x = rng.uniform(0.1, 1.0, size=8)
        cot = rng.normal(size=8)
        scaled, _ = model.backward_batch(z[None], x[None], 2.5 * cot[None], need_theta=False)
        unit, _ = model.backward_batch(z[None], x[None], cot[None], need_theta=False)
        assert np.allclose(scaled, 2.5 * unit, atol=1e-12)

    def test_vjp_zero_cotangent(self):
        model = build_default_model("amplitude", 2, 4, seed=5, random_ops=4)
        out, _ = model.backward_batch(np.zeros((1, 4)), np.array([[1.0, 0, 0, 0]]), np.zeros((1, 4)))
        assert np.array_equal(out, np.zeros((1, 4)))

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_wrong_input_width_rejected(self, encoding):
        # an amplitude model must not read (3, 8) rows as the first 8 of its 16 amplitudes
        model = build_default_model(encoding, 4, 16, seed=3)
        Z = X = np.full((3, 8), 0.5)

        def backward(Z, X):
            return model.backward_batch(Z, X, np.ones((3, 16)))

        for call in (model.forward_batch, model.jacobian_factors, backward):
            with pytest.raises(DimensionError):
                call(Z, X)

    def test_grad_theta_empty_circuit(self):
        model = _identity_model()
        _, grad = model.backward_batch(np.zeros((1, 4)), np.array([[1.0, 0, 0, 0]]), np.ones((1, 4)))
        assert grad.shape == (0,)

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_grad_theta_matches_parameter_shift(self, encoding):
        rng = np.random.default_rng(4)
        model = build_default_model(encoding, 4, 16, seed=6, random_ops=10)
        z = rng.normal(size=16) * 0.3
        x = rng.uniform(0.1, 1.0, size=16)
        cot = rng.normal(size=16)
        _, grad = model.backward_batch(z[None], x[None], cot[None], need_z=False)
        # shift rule applies to the circuit expectations; chain upsample by hand
        input_state = StateVector(model.num_qubits, _pre_circuit_state(model, z, x))
        chat = cot @ model.upsample.matrix
        for slot in range(model.num_params):
            shift = parameter_shift_grad(model.circuit, model.theta, input_state, model.ensemble, slot)
            assert abs(grad[slot] - chat @ shift) < 1e-6

    def test_grad_theta_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = build_default_model("amplitude", 3, 8, seed=7, random_ops=8)
        z = rng.normal(size=8) * 0.2
        x = rng.uniform(0.1, 1.0, size=8)
        cot = rng.normal(size=8)
        _, grad = model.backward_batch(z[None], x[None], cot[None], need_z=False)
        eps = 1e-5
        for j in range(model.num_params):
            up = dataclasses.replace(model)
            model.theta[j] += eps
            f_plus = cot @ model.forward_batch(z[None], x[None])[0]
            model.theta[j] -= 2 * eps
            f_minus = cot @ model.forward_batch(z[None], x[None])[0]
            model.theta[j] += eps
            assert abs(grad[j] - (f_plus - f_minus) / (2 * eps)) < 1e-5

    def test_batched_matches_single(self):
        rng = np.random.default_rng(6)
        model = build_default_model("amplitude", 4, 16, seed=8, random_ops=10)
        Z = rng.normal(size=(5, 16)) * 0.2
        X = rng.uniform(0.1, 1.0, size=(5, 16))
        C = rng.normal(size=(5, 16))
        batched, summed_theta = model.backward_batch(Z, X, C)
        single_theta = np.zeros(model.num_params)
        for i in range(5):
            dz, dtheta = model.backward_batch(Z[i : i + 1], X[i : i + 1], C[i : i + 1])
            assert np.abs(batched[i] - dz[0]).max() < 1e-12
            single_theta += dtheta
        assert np.abs(summed_theta - single_theta).max() < 1e-10


class TestJacobianFactors:
    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_factors_reproduce_the_vjp(self, encoding, num_qubits, input_dim):
        # J_b = S D_b, so J_b^T c = D_b^T S^T c must be the backward pass's dZ
        rng = np.random.default_rng(14)
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        X = rng.uniform(0.1, 1.0, size=(3, input_dim))
        Z = 0.1 * rng.normal(size=X.shape)
        C = rng.normal(size=X.shape)
        S, D = model.jacobian_factors(Z, X)
        assert S.shape == (input_dim, num_qubits) and D.shape == (3, num_qubits, input_dim)
        vjp = model.backward_batch(Z, X, C, need_theta=False)[0]
        assert np.abs(np.einsum("bkn,bk->bn", D, C @ S) - vjp).max() <= 1e-12 * np.abs(vjp).max()


def _gate_by_gate_backward(model, Z, X, C):
    """(dZ, dtheta) from the circuit run on the B batch rows and one adjoint sweep over them."""
    combined = Z + X
    ops = resolve_circuit(model.circuit, model.theta)
    states = apply_ops(ops, enc.states(model.encoding, combined))
    chat = C @ model.upsample.matrix
    bra = (chat @ model.ensemble.diagonals(model.num_qubits)) * states
    dtheta, back = adjoint_sweep(ops, states, bra, num_params=model.num_params)
    return enc.encode(model.encoding, combined)[1](back), dtheta


def _rel(got, expected, scale=None):
    return np.abs(got - expected).max() / np.abs(expected if scale is None else scale).max()


SHAPES = [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)]


class TestCompiledReverseAgainstGateByGate:
    """The d-row reverse path of ``backward_batch`` against sweeping the B batch rows."""

    def _batch(self, input_dim, rows=4, seed=21):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.1, 1.0, size=(rows, input_dim))
        return 0.1 * rng.normal(size=X.shape), X, rng.normal(size=X.shape)

    @pytest.mark.parametrize("encoding, num_qubits, input_dim", SHAPES)
    def test_dz_and_dtheta_match(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        Z, X, C = self._batch(input_dim)
        dZ, dtheta = model.backward_batch(Z, X, C)
        ref_dZ, ref_dtheta = _gate_by_gate_backward(model, Z, X, C)
        assert _rel(dZ, ref_dZ) <= 1e-12
        assert _rel(dtheta, ref_dtheta) <= 1e-12

    @pytest.mark.parametrize("encoding, num_qubits, input_dim", SHAPES[:2])
    def test_stacked_unroll_equals_per_layer_sum(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        _, X, G = self._batch(input_dim)
        iterates = deqsolve.direct_unroll_batch(model, X, 5)
        per_layer, C = np.zeros(model.num_params), G
        for i in range(5, 0, -1):
            C, dtheta = model.backward_batch(iterates[i - 1], X, C)
            per_layer += dtheta
        assert _rel(deqsolve.unroll_backward_batch(model, X, iterates, G), per_layer) <= 1e-12

    def test_theta_written_in_place_recompiles(self, tmp_path):
        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05, seed=42)
        model, head = build_from_config(cfg)
        Z, X, C = self._batch(model.input_dim)

        def same_as_fresh(m):
            fresh = dataclasses.replace(m, theta=m.theta.copy())
            got, expected = m.backward_batch(Z, X, C), fresh.backward_batch(Z, X, C)
            return all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

        model.backward_batch(Z, X, C)
        model.theta[3] += 0.1
        assert same_as_fresh(model)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, cfg, model, head)
        loaded = load_checkpoint(path)[1]
        assert same_as_fresh(loaded)
        model.theta[:] = build_from_config(cfg)[0].theta  # what load_checkpoint does to its parameters
        assert same_as_fresh(model)


class TestAngleEncoderAgainstGates:
    """The product-state encoder and its vjp against the gate-by-gate adjoint."""

    @pytest.mark.parametrize("num_qubits", [2, 4])
    def test_matches_trainable_encoding_circuit(self, num_qubits):
        # the 4Q encoding rotations become trainable slots 0..4Q-1 holding z + x,
        # so adjoint_gradients' dtheta over them is dE/dz and the rest is dE/dtheta
        rng = np.random.default_rng(9)
        n = 4 * num_qubits
        model = build_default_model("angle", num_qubits, n, seed=10, random_ops=12)
        z = rng.normal(size=n) * 0.3
        x = rng.uniform(0.0, 2.0 * np.pi, size=n)
        cot = rng.normal(size=n)
        encoder = [
            GateOp(g.kind, g.target, param_slot=k)
            for k, g in enumerate(angle_encode(z + x, num_qubits))
        ]
        shifted = [
            g if g.param_slot is None else dataclasses.replace(g, param_slot=g.param_slot + n)
            for g in model.circuit.gates
        ]
        circuit = ParamCircuit(num_qubits, tuple(encoder + shifted), n + model.num_params)
        chat = cot @ model.upsample.matrix
        dtheta, _ = adjoint_gradients(
            circuit, np.concatenate([z + x, model.theta]), StateVector.zero(num_qubits),
            chat, model.ensemble,
        )
        dz, dtheta_model = model.backward_batch(z[None], x[None], cot[None])
        assert np.abs(dtheta[:n] - dz[0]).max() < 1e-12
        assert np.abs(dtheta[n:] - dtheta_model).max() < 1e-12


def _pre_circuit_state(model, z, x):
    return enc.states(model.encoding, (z + x)[None])[0]


class TestBuilders:
    def test_block4_no_random_ops_has_twelve_slots(self):
        circuit, theta = build_block4(0, random_ops=0)
        assert circuit.num_params == 12
        assert theta.shape == (12,)

    def test_block4_deterministic(self):
        a, ta = build_block4(42)
        b, tb = build_block4(42)
        assert a == b and np.array_equal(ta, tb)

    def test_block4_expected_parameter_count(self):
        counts = [build_block4(seed)[0].num_params for seed in range(3000)]
        assert abs(np.mean(counts) - (12 + 37.5)) < 0.3

    def test_staircase_windows(self):
        circuit, theta = build_staircase10(1)
        assert circuit.num_qubits == 10
        assert theta.shape == (circuit.num_params,)
        # four blocks at offsets 0, 2, 4, 6; every gate stays in its window
        blocks = [build_block4(child_seed(1, "block", b))[0] for b in range(4)]
        assert circuit.num_params == sum(b.num_params for b in blocks)
        i = 0
        for b, offset in enumerate(range(0, 7, 2)):
            for gate in blocks[b].gates:
                placed = circuit.gates[i]
                assert placed.target == gate.target + offset
                if gate.control is not None:
                    assert placed.control == gate.control + offset
                i += 1
        assert i == len(circuit.gates)

    def test_staircase_degenerate_is_single_block(self):
        circuit, theta = build_staircase10(3, num_qubits=4)
        block, block_theta = build_block4(child_seed(3, "block", 0))
        assert circuit == block
        assert np.array_equal(theta, block_theta)

    def test_staircase_rejects_odd_qubit_counts(self):
        with pytest.raises(DimensionError):
            build_staircase10(0, num_qubits=7)


class TestModelValidation:
    def test_mismatched_upsample(self):
        with pytest.raises(DimensionError):
            QuantumModel(
                encoding=EncodingSpec("amplitude", 2, 4),
                circuit=ParamCircuit(2, (), 0),
                theta=np.zeros(0),
                ensemble=ObservableEnsemble.pauli_z_all(2),
                upsample=UpsampleMap(3, 4),
            )

    def test_mismatched_theta(self):
        with pytest.raises(DimensionError):
            QuantumModel(
                encoding=EncodingSpec("amplitude", 2, 4),
                circuit=ParamCircuit(2, (), 0),
                theta=np.zeros(3),
                ensemble=ObservableEnsemble.pauli_z_all(2),
                upsample=UpsampleMap(2, 4),
            )
