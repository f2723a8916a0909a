"""Dense-matrix oracle: the slow, obvious version of each reference the tests hold the library to.

A gate is its full 2**Q x 2**Q matrix, a Kronecker product of 2 x 2 factors with qubit 0 the
least significant bit of the basis index, and a circuit runs gate by gate. States are plain
complex arrays of 2**Q amplitudes, one state or a (B, 2**Q) stack. Nothing here imports
``qdeq``: the rotations, the Pauli-Z signs and both encodings are written out again, so a fault
in the library's gate library, run fusion or encoders shows up as a disagreement. A gate costs
4**Q entries, so the tests use the oracle up to Q = 8.
"""
from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _rot_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _kron_chain(factors):
    # qubit 0 is the least significant bit, so it sits rightmost in the chain:
    # full = kron(f_{Q-1}, ..., f_1, f_0)
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = np.kron(out, f)
    return out


def _gate_angles(circuit, theta) -> np.ndarray:
    """Each gate's angle: theta[param_slot], its fixed angle, or 0 for a CNOT."""
    return np.array([theta[g.param_slot] if g.param_slot is not None else g.fixed_angle or 0.0
                     for g in circuit.gates])


def _dense_at(gate, angle: float, num_qubits: int) -> np.ndarray:
    if gate.kind == "cnot":
        on = [_I2] * num_qubits
        off = [_I2] * num_qubits
        off[gate.control] = _P0
        on[gate.control] = _P1
        on[gate.target] = _X
        return _kron_chain(off) + _kron_chain(on)
    factors = [_I2] * num_qubits
    factors[gate.target] = _rot_matrix(gate.kind, angle)
    return _kron_chain(factors)


def dense_gate(gate, theta, num_qubits: int) -> np.ndarray:
    angle = theta[gate.param_slot] if gate.param_slot is not None else gate.fixed_angle
    return _dense_at(gate, angle, num_qubits)


def dense_circuit(circuit, theta) -> np.ndarray:
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate(gate, theta, circuit.num_qubits) @ u
    return u


# ---------------------------------------------------------------------------
# readouts and state preparation


def pauli_z_diagonals(num_qubits: int) -> np.ndarray:
    """(Q, 2**Q): Z on qubit s reads +1 where bit s of the basis index is 0 and -1 where it is 1."""
    return np.array([[-1.0 if (index >> s) & 1 else 1.0 for index in range(1 << num_qubits)]
                     for s in range(num_qubits)])


def amplitude_state(x, num_qubits: int) -> np.ndarray:
    """x / |x| in the first len(x) of 2**Q complex amplitudes, zeros after."""
    x = np.asarray(x, dtype=float)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[: len(x)] = x / np.linalg.norm(x)
    return amps


def angle_state(x, num_qubits: int) -> np.ndarray:
    """The product over qubits q of RY(x[4q+3]) RX(x[4q+2]) RZ(x[4q+1]) RY(x[4q]) |0>."""
    kets = []
    for q in range(num_qubits):
        a = x[4 * q : 4 * q + 4]
        u = _rot_matrix("ry", a[3]) @ _rot_matrix("rx", a[2]) @ _rot_matrix("rz", a[1]) @ _rot_matrix("ry", a[0])
        kets.append(u[:, 0])
    return _kron_chain(kets)


def _readouts(circuit, angles, states, diags) -> np.ndarray:
    for gate, angle in zip(circuit.gates, angles):
        states = states @ _dense_at(gate, angle, circuit.num_qubits).T
    return np.abs(states) ** 2 @ np.asarray(diags).T


def expectations(circuit, theta, states, diags) -> np.ndarray:
    """<M_k> after the circuit at theta, for the diagonal observables ``diags`` (K, 2**Q): (K,) per state."""
    return _readouts(circuit, _gate_angles(circuit, theta), states, diags)


# ---------------------------------------------------------------------------
# the two gradient references


def parameter_shift(circuit, theta, states, diags, slot: int) -> np.ndarray:
    """d<M_k>/d theta[slot] by the shift rule: (f(a + pi/2) - f(a - pi/2)) / 2 at each gate bound to
    the slot, summed over those gates."""
    angles = _gate_angles(circuit, theta)
    total = 0.0
    for i, gate in enumerate(circuit.gates):
        if gate.param_slot == slot:
            shift = np.zeros_like(angles)
            shift[i] = np.pi / 2
            total = total + 0.5 * (_readouts(circuit, angles + shift, states, diags)
                                   - _readouts(circuit, angles - shift, states, diags))
    return total


def central_difference(circuit, theta, states, diags, slot: int, step: float = 1e-5) -> np.ndarray:
    """d<M_k>/d theta[slot] by a central difference of ``step``."""
    plus, minus = np.array(theta, dtype=float), np.array(theta, dtype=float)
    plus[slot] += step
    minus[slot] -= step
    return (expectations(circuit, plus, states, diags) - expectations(circuit, minus, states, diags)) / (2 * step)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Pure-state trace distance sqrt(1 - |<a|b>|^2) of two amplitude arrays.

    Bit-identical amplitudes short-circuit to exactly zero: the square root
    amplifies the ~1e-16 rounding of a self-overlap into ~1e-8 otherwise.
    """
    if np.array_equal(a, b):
        return 0.0
    overlap = abs(np.vdot(a, b))
    return float(np.sqrt(max(0.0, 1.0 - overlap**2)))
