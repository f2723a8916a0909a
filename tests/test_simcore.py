"""Gate application, circuit validation, and the three gradient routes."""
import tracemalloc

import numpy as np
import pytest

from qdeq import simcore
from qdeq.errors import DimensionError, InvalidGateError, UnsupportedGateError
from qdeq.measurement import ObservableEnsemble
from qdeq.qmodel import build_default_model
from qdeq.simcore import (
    CNOT,
    GATE_KINDS,
    RX,
    RY,
    RZ,
    GateOp,
    ParamCircuit,
    StateVector,
    adjoint_sweep,
    apply_circuit,
    apply_cone,
    apply_ops,
    parameter_shift_grad,
    random_layer,
    resolve_circuit,
)

import oracle
from conftest import adjoint_gradient, worst_gradient_gap
from oracle import dense_circuit, dense_gate


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
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

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

    @pytest.mark.parametrize("control, target", [(0, 9), (9, 0), (1, 5), (6, 2)])
    def test_cnot_wider_than_four_qubits_rejected(self, control, target):
        with pytest.raises(DimensionError, match="spans more than 4 qubits"):
            GateOp(CNOT, target, control=control)
        GateOp(CNOT, control + (3 if control < target else -3), control=control)  # the widest one that fits

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


class TestResolveCircuit:
    def test_compiles_each_gate_at_its_angle(self):
        gates = (
            GateOp(RY, 0, param_slot=1),
            GateOp(RX, 1, fixed_angle=-0.0),
            GateOp(CNOT, target=1, control=0),
            GateOp(RX, 1, fixed_angle=0.7),
            GateOp(RY, 1, param_slot=0),
        )
        circuit = ParamCircuit(2, gates, 2)
        theta = np.array([0.25, -1.5])
        (run,) = resolve_circuit(circuit, theta)  # two qubits: one run on the whole state
        assert run.offset == 0
        assert np.abs(run.unitary - dense_circuit(circuit, theta)).max() <= 1e-15
        # the trainable gates in circuit order: their slots, the product of the gates after each,
        # and their generators Y on qubit 0 and on qubit 1
        assert run.slots.tolist() == [1, 0]
        after_first = np.linalg.multi_dot([dense_gate(g, theta, 2) for g in reversed(gates[1:])])
        assert np.abs(run.suffixes - [after_first, np.eye(4)]).max() <= 1e-15
        pauli_y = np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(run.generators, [np.kron(np.eye(2), pauli_y), np.kron(pauli_y, np.eye(2))])
        with pytest.raises(DimensionError, match="theta has 3 entries"):
            resolve_circuit(circuit, [0.1, 0.2, 0.3])


def _zero(num_qubits):
    return StateVector.zero(num_qubits).amplitudes


def _pauli_z(num_qubits):
    return ObservableEnsemble(num_qubits).diagonals()


class TestAdjointGradients:
    """``adjoint_sweep`` on one state (``conftest.adjoint_gradient``) against the dense oracle."""

    def test_single_ry_matches_analytic(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        dtheta, _ = adjoint_gradient(circuit, [np.pi / 3], _zero(1), [1.0], _pauli_z(1))
        assert abs(dtheta[0] - (-np.sin(np.pi / 3))) < 1e-12

    def test_empty_circuit_gives_empty_gradient(self):
        circuit = ParamCircuit(2, (), 0)
        dtheta, dinput = adjoint_gradient(circuit, [], _zero(2), [1.0, 0.5], _pauli_z(2))
        assert dtheta.shape == (0,)
        assert dinput.shape == (4,)

    def test_input_cotangent_is_conjugated_operator_action(self):
        # dE/d(conj(amps)) must equal U^dagger M_tot U |input> exactly
        rng = np.random.default_rng(2)
        circuit, theta = _random_circuit(11, 2, 10)
        state = _random_state(rng, 2)
        cot = rng.normal(size=2)
        _, dinput = adjoint_gradient(circuit, theta, state.amplitudes, cot, _pauli_z(2))
        u = dense_circuit(circuit, theta)
        m_tot = u.conj().T @ np.diag(cot @ oracle.pauli_z_diagonals(2)) @ u
        assert np.abs(dinput - m_tot @ state.amplitudes).max() < 1e-10

    def test_matches_parameter_shift_on_random_circuit(self):
        rng = np.random.default_rng(0)
        circuit, theta = _random_circuit(21, 4, 16)
        assert circuit.num_params >= 8
        state = _random_state(rng, 4)
        cot = rng.normal(size=4)
        dtheta, _ = adjoint_gradient(circuit, theta, state.amplitudes, cot, _pauli_z(4))
        for slot in range(circuit.num_params):
            shift = oracle.parameter_shift(circuit, theta, state.amplitudes, oracle.pauli_z_diagonals(4), slot)
            expected = cot @ shift
            assert abs(dtheta[slot] - expected) <= 1e-8 * max(1.0, abs(expected))


class TestParameterShift:
    def _setup(self, theta):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        return circuit, ObservableEnsemble(1)

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
        ensemble = ObservableEnsemble(3)
        state = _random_state(rng, 3)
        for slot in range(circuit.num_params):
            shift = parameter_shift_grad(circuit, theta, state, ensemble, slot)
            fd = oracle.central_difference(circuit, theta, state.amplitudes, oracle.pauli_z_diagonals(3), slot)
            assert np.abs(shift - fd).max() < 1e-6

    def test_repeated_slot_sums_occurrences(self):
        gates = (GateOp(RY, 0, param_slot=0), GateOp(RY, 0, param_slot=0))
        circuit = ParamCircuit(1, gates, 1)
        ensemble = ObservableEnsemble(1)
        theta = np.array([0.4])
        grad = parameter_shift_grad(circuit, theta, StateVector.zero(1), ensemble, 0)
        # two stacked RY(theta) equal RY(2 theta): derivative -2 sin(2 theta)
        assert abs(grad[0] + 2 * np.sin(0.8)) < 1e-10

    def test_unbound_slot_rejected(self):
        circuit = ParamCircuit(1, (GateOp(RY, 0, param_slot=0),), 1)
        ensemble = ObservableEnsemble(1)
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
        ensemble = ObservableEnsemble(self.Q)
        cot = np.random.default_rng(14).normal(size=(self.B, self.Q))
        ops = resolve_circuit(circuit, theta)
        final = apply_ops(ops, states.copy())
        bra = (cot @ ensemble.diagonals()) * final
        dtheta, _ = adjoint_sweep(ops, final, bra, num_params=circuit.num_params)
        diags = oracle.pauli_z_diagonals(self.Q)
        for slot in (0, circuit.num_params // 2, circuit.num_params - 1):
            expected = np.sum(cot * oracle.parameter_shift(circuit, theta, states, diags, slot))
            assert abs(dtheta[slot] - expected) <= 1e-8 * max(1.0, abs(expected))


class TestRowBlocks:
    """Both passes walk the batch in row blocks; a block holds 16 rows at Q=10."""

    Q = 10

    def _circuit(self):
        gates, theta = random_layer(2, self.Q, 80)
        gates += [GateOp(RY, 4, fixed_angle=0.3), GateOp(CNOT, 9, control=6)]
        return ParamCircuit.from_gates(self.Q, gates), theta

    def _states(self, seed, rows):
        rng = np.random.default_rng(seed)
        shape = (rows, 1 << self.Q)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return states / np.linalg.norm(states, axis=1, keepdims=True)

    @pytest.mark.parametrize("rows", [37, 1])  # 37 rows: blocks of 16, 16 and 5
    def test_blocked_runs_match_per_row_runs(self, rows):
        assert simcore._BLOCK_BYTES // ((1 << self.Q) * 16) == 16
        circuit, theta = self._circuit()
        ensemble = ObservableEnsemble(self.Q)
        diags = ensemble.diagonals()
        states = self._states(21, rows)
        cot = np.random.default_rng(22).normal(size=(rows, self.Q))
        ops = resolve_circuit(circuit, theta)
        final = apply_ops(ops, states.copy())
        bra = np.stack([cot[i] @ diags for i in range(rows)]) * final
        dtheta, back = adjoint_sweep(ops, final, bra, num_params=circuit.num_params)
        expected = np.zeros(circuit.num_params)
        for i in range(rows):
            assert np.array_equal(final[i], apply_ops(ops, states[i : i + 1].copy())[0])
            row_dtheta, row_back = adjoint_gradient(circuit, theta, states[i], cot[i], diags)
            assert np.array_equal(back[i], row_back)
            expected += row_dtheta
        assert np.abs(dtheta - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_no_batch_sized_temporaries(self):
        circuit, theta = self._circuit()
        ops = resolve_circuit(circuit, theta)
        states = self._states(23, 256)
        bra = states[::-1].copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            apply_ops(ops, states)
            apply_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            adjoint_sweep(ops, states, bra, num_params=circuit.num_params)
            sweep_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert apply_peak < 0.5 * states.nbytes
        assert sweep_peak < 0.5 * states.nbytes


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

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_narrow_layers_match_the_frozen_draw(self, num_qubits):
        # at Q <= 4 every target is in the window, so the draw is the unrestricted one: every
        # shipped circuit (4-qubit blocks) is unchanged
        for seed in range(200):
            gates, init = random_layer(seed, num_qubits, 50)
            ref_gates, ref_init = _unrestricted_random_layer(seed, num_qubits, 50)
            assert gates == ref_gates and np.array_equal(init, ref_init)

    @pytest.mark.parametrize("num_qubits", range(5, 11))
    def test_wide_layers_draw_cnots_within_four_qubits(self, num_qubits):
        spans = set()
        for seed in range(50):
            gates, _ = random_layer(seed, num_qubits, 50)
            spans |= {abs(g.control - g.target) for g in gates if g.kind == CNOT}
        assert spans == {1, 2, 3}


def _unrestricted_random_layer(seed, num_qubits, num_ops):
    """``random_layer`` as it drew before CNOTs were held to 4 adjacent qubits, kept as a frozen
    reference: the target uniform over every other qubit."""
    rng = np.random.default_rng(seed)
    kinds = (RX, RY, RZ, CNOT)
    gates, init = [], []
    for _ in range(num_ops):
        kind = kinds[rng.integers(4)]
        while kind == CNOT and num_qubits < 2:
            kind = kinds[rng.integers(4)]
        if kind == CNOT:
            control = int(rng.integers(num_qubits))
            target = int(rng.integers(num_qubits - 1))
            if target >= control:
                target += 1
            gates.append(GateOp(CNOT, target=target, control=control))
        else:
            target = int(rng.integers(num_qubits))
            gates.append(GateOp(kind, target=target, param_slot=len(init)))
            init.append(rng.uniform(0.0, 2.0 * np.pi))
    return gates, np.array(init)


def test_gradient_triple_agreement_small():
    """Adjoint, parameter-shift, and central differences agree to 1e-6."""
    assert worst_gradient_gap(seed=9, count=8, max_qubits=4, num_ops=(4, 14)) < 1e-6


# ---------------------------------------------------------------------------
# gate-by-gate reference: the scalar kernels that applied one gate at a time to a batch of states
# (qubit 0 = least significant bit), before the circuit was compiled to fused 16 x 16 runs

# Pauli generator of each rotation, as the scalars (u00, u01, u10, u11); None marks a diagonal gate
_GENERATOR = {RX: (0.0, 1.0, 1.0, 0.0), RY: (0.0, -1j, 1j, 0.0), RZ: (1.0, None, None, -1.0)}


def _bit_view(states, q):
    b, n = states.shape
    return states.reshape(b, n >> (q + 1), 2, 1 << q)


def _apply_1q(states, q, u00, u01, u10, u11):
    """Apply the scalars [[u00, u01], [u10, u11]] to qubit q; ``u01 is None`` marks a diagonal gate."""
    v = _bit_view(states, q)
    if u01 is None:
        v[:, :, 0, :] *= u00
        v[:, :, 1, :] *= u11
        return
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :].copy()
    np.add(u00 * a, u01 * b, out=v[:, :, 0, :])
    a *= u10
    b *= u11
    np.add(a, b, out=v[:, :, 1, :])


def _apply_cnot(states, control, target):
    """Swap the target halves of the control=1 half, through a 6-axis view."""
    high, low = max(control, target), min(control, target)
    b, n = states.shape
    v = states.reshape(b, n >> (high + 1), 2, 1 << (high - low - 1), 2, 1 << low)
    if control < target:
        v = v.swapaxes(2, 4)  # axis 2 is now the control bit, axis 4 the target
    a = v[:, :, 1, :, 0, :].copy()
    v[:, :, 1, :, 0, :] = v[:, :, 1, :, 1, :]
    v[:, :, 1, :, 1, :] = a


def _apply_gate(gate, angle, states):
    if gate.kind == CNOT:
        _apply_cnot(states, gate.control, gate.target)
        return
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    if gate.kind == RX:
        _apply_1q(states, gate.target, c, -1j * s, -1j * s, c)
    elif gate.kind == RY:
        _apply_1q(states, gate.target, c, -s, s, c)
    else:
        _apply_1q(states, gate.target, c - 1j * s, None, None, c + 1j * s)


def _gate_by_gate(circuit, theta, states, bra):
    """(final states, dtheta, U^dagger bra) from one kernel call per gate, forward then backward."""
    angles = [theta[g.param_slot] if g.param_slot is not None else g.fixed_angle or 0.0 for g in circuit.gates]
    ket = states.copy()
    for g, angle in zip(circuit.gates, angles):
        _apply_gate(g, angle, ket)
    final, bra = ket.copy(), bra.copy()
    dtheta = np.zeros(circuit.num_params)
    for g, angle in reversed(list(zip(circuit.gates, angles))):
        if g.param_slot is not None:
            pk = ket.copy()
            _apply_1q(pk, g.target, *_GENERATOR[g.kind])
            dtheta[g.param_slot] += np.vdot(bra, pk).imag
        _apply_gate(g, -angle, ket)
        _apply_gate(g, -angle, bra)
    return final, dtheta, bra


class TestFusedRuns:
    """``apply_ops`` and ``adjoint_sweep`` run each fused run of gates on 4 adjacent qubits as 16 x 16
    matmuls; they must agree with the gate-by-gate reference applied to every row."""

    def _check(self, circuit, theta, rows, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, 1 << circuit.num_qubits)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        bra = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        final, dtheta, back = _gate_by_gate(circuit, theta, states, bra)
        ops = resolve_circuit(circuit, theta)
        fused = apply_ops(ops, states.copy())
        fused_dtheta, fused_back = adjoint_sweep(ops, final, bra.copy(), num_params=circuit.num_params)
        for got, want in ((fused, final), (fused_dtheta, dtheta), (fused_back, back)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def _plan(self, circuit):
        return [(off, stop - start) for off, start, stop in simcore._fusion_plan(circuit.gates, circuit.num_qubits)]

    def test_staircase_is_four_runs_of_one_block_each(self):
        model = build_default_model("amplitude", 10, 100, seed=3)
        assert self._plan(model.circuit) == [(0, 66), (2, 66), (4, 66), (6, 66)]
        self._check(model.circuit, model.theta, rows=20, seed=31)  # two row blocks: 16 and 4 rows

    def test_four_qubit_circuit_is_one_run(self):
        model = build_default_model("angle", 4, 16, seed=3)
        assert self._plan(model.circuit) == [(0, 66)]
        self._check(model.circuit, model.theta, rows=16, seed=32)

    def test_eight_qubit_layer_is_runs_at_several_offsets(self):
        # CNOTs across the full 4-qubit window first and last: 4 -> 7 at offset 4, 6 -> 3 at offset 3
        gates, theta = random_layer(5, 8, 120)
        gates = [GateOp(CNOT, 7, control=4)] + gates + [GateOp(RY, 6, fixed_angle=0.4), GateOp(CNOT, 3, control=6)]
        circuit = ParamCircuit.from_gates(8, gates)
        plan = self._plan(circuit)
        assert plan[0][0] == 4 and plan[-1][0] == 3 and len({off for off, _ in plan}) > 2
        assert sum(count for _, count in plan) == len(gates)
        self._check(circuit, theta, rows=70, seed=33)  # two row blocks: 64 and 6 rows

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_narrow_circuits_are_one_run(self, num_qubits):
        circuit, theta = _random_circuit(num_qubits, num_qubits, 40)
        assert self._plan(circuit) == [(0, 40)]
        self._check(circuit, theta, rows=5, seed=34 + num_qubits)


def _full_width_sweep(ops, final, bra, num_params):
    """(dtheta, U^dagger bra) with every run at full width and the kets undone from ``final``: the
    sweep as it ran before the light cone, for rows that fit in one row block."""
    dtheta, ket, bra = np.zeros(num_params), final.copy(), bra.copy()
    for run in reversed(ops):
        back, d = run.unitary.conj().T, len(run.unitary)
        bv, kv = (simcore._window(x, run.offset, d).swapaxes(0, 2).reshape(d, -1) for x in (bra, ket))
        env = np.zeros_like(run.unitary)
        env += bv.conj() @ kv.T
        forms = run.suffixes @ run.generators @ run.suffixes.conj().transpose(0, 2, 1)
        np.add.at(dtheta, run.slots, (forms.reshape(len(forms), env.size) @ env.reshape(-1)).imag)
        simcore._apply_step(ket, run.offset, back)
        simcore._apply_step(bra, run.offset, back)
    return dtheta, bra


class TestLightCone:
    """``apply_cone`` runs each run only on the columns that the basis rows and the runs before it
    reach, and ``adjoint_sweep`` reads its kets, cutting the bra to each stretch's width: against the
    gate-by-gate reference (1e-13) and the full-width path, which gives the same final kets bit for
    bit."""

    def _check(self, circuit, theta, rows, widths, seed):
        ops = resolve_circuit(circuit, theta)
        assert [width for _, _, width in simcore._stretches(ops, rows)] == widths
        kets = apply_cone(ops, np.eye(rows, dtype=np.complex128))
        assert [ket.shape for ket in kets] == [(rows, width) for width in widths]
        states = np.eye(rows, 1 << circuit.num_qubits, dtype=np.complex128)
        assert np.array_equal(kets[-1], apply_ops(ops, states.copy()))
        rng = np.random.default_rng(seed)
        bra = rng.normal(size=states.shape) + 1j * rng.normal(size=states.shape)
        final, dtheta, back = _gate_by_gate(circuit, theta, states, bra)
        cone_dtheta, cone_back = adjoint_sweep(ops, kets, bra.copy(), num_params=circuit.num_params)
        assert cone_back.shape == (rows, widths[0])  # the inputs' entries past the rows' width are not read
        for got, want in ((kets[-1], final), (cone_dtheta, dtheta), (cone_back, back[:, : widths[0]])):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        full_dtheta, _ = _full_width_sweep(ops, final, bra, circuit.num_params)
        assert np.abs(cone_dtheta - full_dtheta).max() <= 1e-13 * np.abs(full_dtheta).max()
        return ops, kets

    def test_staircase_on_a_hundred_basis_rows(self):
        model = build_default_model("amplitude", 10, 100, seed=3)
        # runs at 128, 128, 256 and 1024 columns; 1024-column row blocks hold 16 rows
        ops, kets = self._check(model.circuit, model.theta, rows=100, widths=[128, 256, 1024], seed=41)
        assert [stop - start for start, stop, _ in simcore._stretches(ops, 100)] == [2, 1, 1]
        assert np.array_equal(model._compiled()[1], kets[-1])

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_four_qubit_model_is_one_stretch_at_full_width(self, encoding):
        model = build_default_model(encoding, 4, 16, seed=3)
        ops, V, _ = model._compiled()
        kets = model._compiled_at[5]
        assert len(kets) == 1 and kets[0] is V
        assert np.array_equal(V, apply_ops(ops, np.eye(16, dtype=np.complex128)))
        bra = np.random.default_rng(43).normal(size=(16, 16)) + 0j
        dtheta, back = adjoint_sweep(ops, kets, bra.copy(), num_params=model.num_params)
        full_dtheta, full_back = _full_width_sweep(ops, V, bra, model.num_params)
        assert np.array_equal(dtheta, full_dtheta) and np.array_equal(back, full_back)


@pytest.mark.parametrize(
    "encoding, num_qubits, input_dim", [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)]
)
def test_sweep_without_the_bra_skips_only_the_first_undo(encoding, num_qubits, input_dim, monkeypatch):
    # return_bra=False drops the undo through the first run, which no dtheta reads: dtheta is
    # bit-identical and one run's undo fewer is applied to the bra
    model = build_default_model(encoding, num_qubits, input_dim, seed=3)
    ops, V, _ = model._compiled()
    kets = model._compiled_at[5]
    bra = np.random.default_rng(44).normal(size=V.shape) + 1j * np.random.default_rng(45).normal(size=V.shape)
    steps = []
    original = simcore._apply_step
    monkeypatch.setattr(simcore, "_apply_step", lambda s, o, step: steps.append(s.shape) or original(s, o, step))
    dtheta, back = adjoint_sweep(ops, kets, bra.copy(), num_params=model.num_params)
    kept = len(steps)
    steps.clear()
    lean_dtheta, lean_back = adjoint_sweep(ops, kets, bra.copy(), num_params=model.num_params, return_bra=False)
    assert lean_back is None and back is not None
    assert np.array_equal(lean_dtheta, dtheta)
    assert kept - len(steps) == len(simcore._row_blocks(kets[0]))
