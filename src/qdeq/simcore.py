"""Dense statevector simulation with exact gradients.

States live in arrays of shape (batch, 2**Q), complex128, qubit 0 = least
significant bit of the basis index. The gate set is RX, RY and RZ (trainable
or fixed-angle) and CNOT, all that the circuit builders emit. Two kernels
apply every gate in place on reshaped views of the batch, at any state size:
``_apply_1q`` does slice arithmetic on the halves where the qubit is 0 and 1
(``u01 = None`` marks a diagonal gate, which only scales them), and
``_apply_cnot`` swaps the target halves inside the control=1 half. No
2**Q x 2**Q matrix is built outside the test oracles.

Gate coefficients are scalars: per-sample data never reach this module, since
the encodings (``encoding.py``) build the input states and chain their
cotangents back.

``_apply_op`` is the one gate dispatch. The forward pass and the reverse
(adjoint) sweep share it; the sweep walks the gate list backwards once for the
derivative of every trainable angle and the input-state cotangent. The
parameter-shift rule (f(theta + pi/2) - f(theta - pi/2)) / 2 is the second,
exact route for Pauli-generated rotations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, InvalidGateError, UnsupportedGateError

RX = "rx"
RY = "ry"
RZ = "rz"
CNOT = "cnot"

ROTATION_KINDS = (RX, RY, RZ)
GATE_KINDS = ROTATION_KINDS + (CNOT,)


@dataclass(frozen=True)
class GateOp:
    """One gate: a rotation (trainable via ``param_slot`` or fixed-angle) or CNOT."""

    kind: str
    target: int
    control: Optional[int] = None
    param_slot: Optional[int] = None
    fixed_angle: Optional[float] = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        if self.kind in ROTATION_KINDS:
            if (self.param_slot is None) == (self.fixed_angle is None):
                raise InvalidGateError(
                    f"{self.kind} gate needs exactly one of param_slot/fixed_angle"
                )
            if self.control is not None:
                raise InvalidGateError("rotation gates take no control qubit")
        else:
            if self.param_slot is not None or self.fixed_angle is not None:
                raise InvalidGateError("cnot takes no angle or slot")
            if self.control is None:
                raise InvalidGateError("cnot needs a control qubit")
            if self.control == self.target:
                raise InvalidGateError("cnot control and target must differ")


@dataclass
class StateVector:
    """Pure state of ``num_qubits`` qubits as 2**Q complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DimensionError("num_qubits must be >= 1")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 1 << self.num_qubits:
            raise DimensionError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape[0]}"
            )
        self.amplitudes = amps

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered gate list over ``num_qubits`` qubits with ``num_params`` trainable slots."""

    num_qubits: int
    gates: tuple
    num_params: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        seen = set()
        for i, g in enumerate(self.gates):
            if not isinstance(g, GateOp):
                raise InvalidGateError(f"gate {i} is not a GateOp")
            if not 0 <= g.target < self.num_qubits:
                raise InvalidGateError(f"gate {i}: target {g.target} out of range")
            if g.control is not None and not 0 <= g.control < self.num_qubits:
                raise InvalidGateError(f"gate {i}: control {g.control} out of range")
            if g.param_slot is not None:
                if not 0 <= g.param_slot < self.num_params:
                    raise InvalidGateError(
                        f"gate {i}: param_slot {g.param_slot} outside [0, {self.num_params})"
                    )
                seen.add(g.param_slot)
        if seen != set(range(self.num_params)):
            missing = sorted(set(range(self.num_params)) - seen)
            raise InvalidGateError(f"unreferenced param slots {missing}")

    @classmethod
    def from_gates(cls, num_qubits: int, gates: Sequence[GateOp]) -> "ParamCircuit":
        slots = [g.param_slot for g in gates if g.param_slot is not None]
        return cls(num_qubits, tuple(gates), max(slots) + 1 if slots else 0)


class Op(NamedTuple):
    """Resolved gate ready for application, its angle baked in."""

    kind: str
    target: int
    control: int
    angle: float
    slot: int  # -1 unless the angle came from theta[slot]


# ---------------------------------------------------------------------------
# kernels: in place on states of shape (B, 2**Q); a reshaped view splits the
# basis index at the gate's qubit(s), so one slice expression serves any size


def _bit_view(states: np.ndarray, q: int) -> np.ndarray:
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


# Pauli generator of each rotation: R(angle) = exp(-i angle P / 2)
_GENERATOR = {RX: (0.0, 1.0, 1.0, 0.0), RY: (0.0, -1j, 1j, 0.0), RZ: (1.0, None, None, -1.0)}


def _rotation(kind, angle):
    c = np.cos(0.5 * angle)
    s = np.sin(0.5 * angle)
    if kind == RX:
        return c, -1j * s, -1j * s, c
    if kind == RY:
        return c, -s, s, c
    return c - 1j * s, None, None, c + 1j * s


def _apply_op(op, arrays, sign=1.0):
    """Apply ``op`` (its inverse when ``sign`` is -1) in place to each array in ``arrays``.

    CNOT is self-inverse, so ``sign`` only flips rotation angles.
    """
    if op.kind == CNOT:
        for states in arrays:
            _apply_cnot(states, op.control, op.target)
        return
    u = _rotation(op.kind, sign * op.angle)
    for states in arrays:
        _apply_1q(states, op.target, *u)


# ---------------------------------------------------------------------------
# compiled program execution


def resolve_circuit(circuit: ParamCircuit, theta: np.ndarray) -> list[Op]:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != circuit.num_params:
        raise DimensionError(
            f"theta has {theta.shape[0]} entries, circuit expects {circuit.num_params}"
        )
    ops = []
    for g in circuit.gates:
        if g.param_slot is not None:
            angle, slot = theta[g.param_slot], g.param_slot
        else:
            angle, slot = (0.0 if g.fixed_angle is None else g.fixed_angle), -1
        control = -1 if g.control is None else g.control
        ops.append(Op(g.kind, g.target, control, float(angle), slot))
    return ops


def apply_ops(ops, states):
    """Apply a resolved op list in place to states of shape (B, 2**Q)."""
    for op in ops:
        _apply_op(op, (states,))
    return states


def adjoint_sweep(ops, final_states, bra, num_params=0, need_theta=True):
    """Reverse sweep computing d(Re<bra|ket>)-style rotation derivatives.

    ``final_states`` is the ket after all ops; ``bra`` is M_total |ket> (the
    expectation cotangent). Returns (dtheta summed over the batch,
    back-propagated bra). The returned bra equals U^dagger M_total U |input>,
    i.e. dE/d(conj(amplitude)) at the input state; the encodings' vjps chain
    it back to the real pre-encode vector.
    """
    # the ket is only consumed by derivative vdots; once the last (lowest-index)
    # trainable rotation has been processed, only the bra needs to keep walking
    remaining = sum(1 for op in ops if op.slot >= 0) if need_theta else 0
    ket = final_states.copy() if remaining else None
    b = bra.copy()
    dtheta = np.zeros(num_params)
    for op in reversed(ops):
        if ket is not None and op.slot >= 0:
            pk = ket.copy()  # P|ket> for the rotation's generator P
            _apply_1q(pk, op.target, *_GENERATOR[op.kind])
            d = np.einsum("bi,bi->b", b.conj(), pk).imag
            dtheta[op.slot] += d.sum()
            remaining -= 1
            if remaining == 0:
                ket = None
        _apply_op(op, (b,) if ket is None else (ket, b), sign=-1.0)
    return dtheta, b


# ---------------------------------------------------------------------------
# public operations


def apply_circuit(circuit: ParamCircuit, theta, state: StateVector) -> StateVector:
    """U(theta)|state>, leaving the input untouched."""
    if state.num_qubits != circuit.num_qubits:
        raise DimensionError(
            f"state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    ops = resolve_circuit(circuit, theta)
    states = state.amplitudes[None, :].copy()
    apply_ops(ops, states)
    return StateVector(circuit.num_qubits, states[0])


def _expectations(ops, input_amps, diags):
    states = apply_ops(ops, input_amps[None, :].copy())
    return diags @ np.abs(states[0]) ** 2


def adjoint_gradients(circuit, theta, input_state: StateVector, cost_cotangent, ensemble):
    """One reverse pass: (dtheta, complex input-amplitude cotangent).

    dtheta[j] = d(sum_k cotangent_k <M_k>)/d theta_j. The second return is
    dE/d(conj(amplitudes)) of the input state.
    """
    if input_state.num_qubits != circuit.num_qubits:
        raise DimensionError("input state qubit count does not match circuit")
    cot = np.asarray(cost_cotangent, dtype=np.float64).reshape(-1)
    diags = np.asarray(ensemble.diagonals(circuit.num_qubits))
    if cot.shape[0] != diags.shape[0]:
        raise DimensionError(
            f"cotangent has {cot.shape[0]} entries, ensemble has {diags.shape[0]}"
        )
    ops = resolve_circuit(circuit, theta)
    states = input_state.amplitudes[None, :].copy()
    apply_ops(ops, states)
    bra = (cot @ diags)[None, :] * states
    dtheta, back = adjoint_sweep(ops, states, bra, num_params=circuit.num_params)
    return dtheta, back[0]


def parameter_shift_grad(circuit, theta, input_state: StateVector, ensemble, slot: int):
    """Exact derivative of each ensemble expectation w.r.t. theta[slot].

    Uses (f(theta + pi/2 e_slot) - f(theta - pi/2 e_slot)) / 2 per occurrence
    of the slot, which is exact for Pauli-generated rotations.
    """
    ops = resolve_circuit(circuit, theta)
    where = [i for i, op in enumerate(ops) if op.slot == slot]
    if not where:
        raise UnsupportedGateError(f"slot {slot} is not bound to any rotation gate")
    diags = np.asarray(ensemble.diagonals(circuit.num_qubits))
    amps = np.asarray(input_state.amplitudes, dtype=np.complex128)
    total = np.zeros(diags.shape[0])
    for i in where:
        op = ops[i]
        plus = ops.copy()
        plus[i] = op._replace(angle=op.angle + np.pi / 2)
        minus = ops.copy()
        minus[i] = op._replace(angle=op.angle - np.pi / 2)
        e_plus = _expectations(plus, amps, diags)
        e_minus = _expectations(minus, amps, diags)
        total += 0.5 * (e_plus - e_minus)
    return total


def random_layer(seed: int, num_qubits: int, num_ops: int):
    """Seeded random gate layer: kinds uniform over {RX, RY, RZ, CNOT}.

    Rotations receive fresh trainable slots with uniform(0, 2*pi) initial
    values; returns (gates, theta_init). On a single qubit a drawn CNOT is
    redrawn rather than raising.
    """
    if num_ops < 0:
        raise DimensionError("num_ops must be >= 0")
    rng = np.random.default_rng(seed)
    kinds = (RX, RY, RZ, CNOT)
    gates: list[GateOp] = []
    init: list[float] = []
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
