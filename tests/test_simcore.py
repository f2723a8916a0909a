"""Gate application, circuit validation, and the three gradient routes."""
import numpy as np
import pytest

from qdeq.errors import DimensionError, InvalidGateError, UnsupportedGateError
from qdeq.measurement import ObservableEnsemble
from qdeq.simcore import (
    CNOT,
    GATE_KINDS,
    RX,
    RY,
    GateOp,
    ParamCircuit,
    StateVector,
    adjoint_gradients,
    adjoint_sweep,
    apply_circuit,
    apply_ops,
    parameter_shift_grad,
    random_layer,
    resolve_circuit,
)

from conftest import dense_circuit


def _random_circuit(seed, num_qubits, num_ops):
    gates, theta = random_layer(seed, num_qubits, num_ops)
    return ParamCircuit.from_gates(num_qubits, gates), theta


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestApplyCircuit:
    def test_pauli_x_flips_zero(self):
        # RX(pi) = -iX: Pauli X up to a global phase
        circuit = ParamCircuit(1, (GateOp(RX, 0, fixed_angle=np.pi),), 0)
        out = apply_circuit(circuit, [], StateVector.zero(1))
        assert np.allclose(out.amplitudes, [0.0, -1j])

    def test_ry_half_pi(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        out = apply_circuit(circuit, [np.pi / 2], StateVector.zero(1))
        expected = [np.cos(np.pi / 4), np.sin(np.pi / 4)]
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_bell_state(self):
        # RY(pi/2) takes |0> to (|0> + |1>)/sqrt(2), as a Hadamard would
        gates = (GateOp(RY, 0, fixed_angle=np.pi / 2), GateOp(CNOT, target=1, control=0))
        circuit = ParamCircuit(2, gates, 0)
        out = apply_circuit(circuit, [], StateVector.zero(2))
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_input_state_unmodified(self):
        state = StateVector.zero(2)
        before = state.amplitudes.copy()
        circuit = ParamCircuit(2, (GateOp(RY, 0, fixed_angle=np.pi / 2),), 0)
        apply_circuit(circuit, [], state)
        assert np.array_equal(state.amplitudes, before)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            num_qubits = int(rng.integers(1, 4))
            circuit, theta = _random_circuit(seed, num_qubits, 12)
            state = _random_state(rng, num_qubits)
            fast = apply_circuit(circuit, theta, state).amplitudes
            dense = dense_circuit(circuit, theta) @ state.amplitudes
            assert np.abs(fast - dense).max() < 1e-12

    def test_unitarity_on_random_circuits(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            num_qubits = int(rng.integers(1, 7))
            circuit, theta = _random_circuit(seed + 100, num_qubits, 30)
            out = apply_circuit(circuit, theta, _random_state(rng, num_qubits))
            assert abs(out.norm() - 1.0) < 1e-9

    def test_theta_length_mismatch(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        with pytest.raises(DimensionError):
            apply_circuit(circuit, [0.1, 0.2], StateVector.zero(1))

    def test_qubit_count_mismatch(self):
        circuit = ParamCircuit(2, (GateOp(RY, 0, fixed_angle=np.pi / 2),), 0)
        with pytest.raises(DimensionError):
            apply_circuit(circuit, [], StateVector.zero(3))

    def test_determinism(self):
        circuit, theta = _random_circuit(5, 3, 20)
        state = _random_state(np.random.default_rng(1), 3)
        a = apply_circuit(circuit, theta, state).amplitudes
        b = apply_circuit(circuit, theta, state).amplitudes
        assert np.array_equal(a, b)


class TestGateValidation:
    def test_rotation_needs_exactly_one_angle_source(self):
        with pytest.raises(InvalidGateError):
            GateOp(RY, 0)
        with pytest.raises(InvalidGateError):
            GateOp(RY, 0, param_slot=0, fixed_angle=0.3)

    def test_cnot_rejects_angles_and_self_control(self):
        with pytest.raises(InvalidGateError):
            GateOp(CNOT, 0, control=0)
        with pytest.raises(InvalidGateError):
            GateOp(CNOT, target=1, control=0, param_slot=0)

    def test_gate_set_is_rotations_and_cnot(self):
        assert GATE_KINDS == ("rx", "ry", "rz", "cnot")
        for kind in ("x", "h"):
            with pytest.raises(InvalidGateError, match="unknown gate kind"):
                GateOp(kind, 0)

    def test_circuit_reports_offending_gate_index(self):
        gates = (GateOp(RY, 0, fixed_angle=np.pi / 2), GateOp(RX, 5, fixed_angle=np.pi))
        with pytest.raises(InvalidGateError, match="gate 1"):
            ParamCircuit(2, gates, 0)

    def test_unreferenced_slot_rejected(self):
        with pytest.raises(InvalidGateError, match="unreferenced"):
            ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 2)


class TestAdjointGradients:
    def test_single_ry_matches_analytic(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        ensemble = ObservableEnsemble.pauli_z_all(1)
        dtheta, _ = adjoint_gradients(circuit, [np.pi / 3], StateVector.zero(1), [1.0], ensemble)
        assert abs(dtheta[0] - (-np.sin(np.pi / 3))) < 1e-12

    def test_empty_circuit_gives_empty_gradient(self):
        circuit = ParamCircuit(2, (), 0)
        ensemble = ObservableEnsemble.pauli_z_all(2)
        dtheta, dinput = adjoint_gradients(circuit, [], StateVector.zero(2), [1.0, 0.5], ensemble)
        assert dtheta.shape == (0,)
        assert dinput.shape == (4,)

    def test_input_cotangent_is_conjugated_operator_action(self):
        # dE/d(conj(amps)) must equal U^dagger M_tot U |input> exactly
        rng = np.random.default_rng(2)
        circuit, theta = _random_circuit(11, 2, 10)
        ensemble = ObservableEnsemble.pauli_z_all(2)
        state = _random_state(rng, 2)
        cot = rng.normal(size=2)
        _, dinput = adjoint_gradients(circuit, theta, state, cot, ensemble)
        u = dense_circuit(circuit, theta)
        m_tot = u.conj().T @ np.diag(cot @ ensemble.diagonals(2)) @ u
        assert np.abs(dinput - m_tot @ state.amplitudes).max() < 1e-10

    def test_matches_parameter_shift_on_random_circuit(self):
        rng = np.random.default_rng(0)
        circuit, theta = _random_circuit(21, 4, 16)
        assert circuit.num_params >= 8
        ensemble = ObservableEnsemble.pauli_z_all(4)
        state = _random_state(rng, 4)
        cot = rng.normal(size=4)
        dtheta, _ = adjoint_gradients(circuit, theta, state, cot, ensemble)
        for slot in range(circuit.num_params):
            shift = parameter_shift_grad(circuit, theta, state, ensemble, slot)
            expected = cot @ shift
            assert abs(dtheta[slot] - expected) <= 1e-8 * max(1.0, abs(expected))


class TestParameterShift:
    def _setup(self, theta):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        return circuit, ObservableEnsemble.pauli_z_all(1)

    def test_stationary_point(self):
        circuit, ensemble = self._setup(0.0)
        grad = parameter_shift_grad(circuit, [0.0], StateVector.zero(1), ensemble, 0)
        assert abs(grad[0]) < 1e-12

    def test_quarter_turn(self):
        circuit, ensemble = self._setup(np.pi / 2)
        grad = parameter_shift_grad(circuit, [np.pi / 2], StateVector.zero(1), ensemble, 0)
        assert abs(grad[0] + 1.0) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        circuit, theta = _random_circuit(31, 3, 14)
        ensemble = ObservableEnsemble.pauli_z_all(3)
        state = _random_state(rng, 3)
        eps = 1e-5
        for slot in range(circuit.num_params):
            shift = parameter_shift_grad(circuit, theta, state, ensemble, slot)
            plus, minus = theta.copy(), theta.copy()
            plus[slot] += eps
            minus[slot] -= eps
            diags = ensemble.diagonals(3)
            e_plus = diags @ np.abs(apply_circuit(circuit, plus, state).amplitudes) ** 2
            e_minus = diags @ np.abs(apply_circuit(circuit, minus, state).amplitudes) ** 2
            fd = (e_plus - e_minus) / (2 * eps)
            assert np.abs(shift - fd).max() < 1e-6

    def test_repeated_slot_sums_occurrences(self):
        gates = (GateOp(RY, 0, param_slot=0), GateOp(RY, 0, param_slot=0))
        circuit = ParamCircuit(1, gates, 1)
        ensemble = ObservableEnsemble.pauli_z_all(1)
        theta = np.array([0.4])
        grad = parameter_shift_grad(circuit, theta, StateVector.zero(1), ensemble, 0)
        # two stacked RY(theta) equal RY(2 theta): derivative -2 sin(2 theta)
        assert abs(grad[0] + 2 * np.sin(0.8)) < 1e-10

    def test_unbound_slot_rejected(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        ensemble = ObservableEnsemble.pauli_z_all(1)
        with pytest.raises(UnsupportedGateError):
            parameter_shift_grad(circuit, [0.1], StateVector.zero(1), ensemble, 3)


class TestLargeBatchedStates:
    """Batches above 2**14 amplitudes, the size every 10-qubit training batch has."""

    Q, B = 8, 128

    def _circuit(self):
        gates, theta = random_layer(1, self.Q, 40)
        gates += [GateOp(RY, 3, fixed_angle=np.pi / 2), GateOp(RX, 6, fixed_angle=np.pi)]
        return ParamCircuit.from_gates(self.Q, gates), theta

    def _states(self, seed):
        rng = np.random.default_rng(seed)
        shape = (self.B, 1 << self.Q)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return states / np.linalg.norm(states, axis=1, keepdims=True)

    def test_matches_dense_oracle(self):
        circuit, theta = self._circuit()
        cnots = [g for g in circuit.gates if g.kind == CNOT]
        assert any(g.control > g.target for g in cnots)
        assert any(g.control < g.target for g in cnots)
        states = self._states(12)
        out = apply_ops(resolve_circuit(circuit, theta), states.copy())
        dense = states @ dense_circuit(circuit, theta).T
        assert np.abs(out - dense).max() < 1e-12

    def test_adjoint_theta_gradient_matches_parameter_shift(self):
        circuit, theta = self._circuit()
        states = self._states(13)
        ensemble = ObservableEnsemble.pauli_z_all(self.Q)
        cot = np.random.default_rng(14).normal(size=(self.B, self.Q))
        ops = resolve_circuit(circuit, theta)
        final = apply_ops(ops, states.copy())
        bra = (cot @ ensemble.diagonals(self.Q)) * final
        dtheta, _ = adjoint_sweep(ops, final, bra, num_params=circuit.num_params)
        for slot in (0, circuit.num_params // 2, circuit.num_params - 1):
            expected = sum(
                cot[i] @ parameter_shift_grad(
                    circuit, theta, StateVector(self.Q, states[i]), ensemble, slot
                )
                for i in range(self.B)
            )
            assert abs(dtheta[slot] - expected) <= 1e-8 * max(1.0, abs(expected))


class TestRandomLayer:
    def test_deterministic(self):
        a_gates, a_init = random_layer(7, 4, 50)
        b_gates, b_init = random_layer(7, 4, 50)
        assert a_gates == b_gates
        assert np.array_equal(a_init, b_init)

    def test_empty(self):
        gates, init = random_layer(0, 4, 0)
        assert gates == [] and init.shape == (0,)

    def test_single_qubit_redraws_cnot(self):
        gates, _ = random_layer(123, 1, 200)
        assert all(g.kind != CNOT for g in gates)
        assert len(gates) == 200

    def test_mean_cnot_count(self):
        counts = []
        for seed in range(10000):
            gates, _ = random_layer(seed, 4, 50)
            counts.append(sum(g.kind == CNOT for g in gates))
        assert abs(np.mean(counts) - 12.5) < 0.2

    def test_negative_ops_rejected(self):
        with pytest.raises(DimensionError):
            random_layer(0, 4, -1)


def test_gradient_triple_agreement_small():
    """Adjoint, parameter-shift, and central differences agree to 1e-6."""
    rng = np.random.default_rng(9)
    checked = 0
    seed = 0
    while checked < 8:
        seed += 1
        num_qubits = int(rng.integers(1, 5))
        circuit, theta = _random_circuit(seed, num_qubits, int(rng.integers(4, 14)))
        if not 1 <= circuit.num_params <= 16:
            continue
        checked += 1
        ensemble = ObservableEnsemble.pauli_z_all(num_qubits)
        state = _random_state(rng, num_qubits)
        diags = ensemble.diagonals(num_qubits)
        for k in range(num_qubits):
            onehot = np.zeros(num_qubits)
            onehot[k] = 1.0
            adjoint, _ = adjoint_gradients(circuit, theta, state, onehot, ensemble)
            for slot in range(circuit.num_params):
                shift = parameter_shift_grad(circuit, theta, state, ensemble, slot)[k]
                plus, minus = theta.copy(), theta.copy()
                plus[slot] += 1e-5
                minus[slot] -= 1e-5
                e_p = diags[k] @ np.abs(apply_circuit(circuit, plus, state).amplitudes) ** 2
                e_m = diags[k] @ np.abs(apply_circuit(circuit, minus, state).amplitudes) ** 2
                fd = (e_p - e_m) / 2e-5
                assert abs(adjoint[slot] - shift) < 1e-6
                assert abs(adjoint[slot] - fd) < 1e-6
                assert abs(shift - fd) < 1e-6
