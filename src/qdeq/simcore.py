"""Dense statevector simulation with exact gradients.

States live in arrays of shape (batch, 2**Q), complex128, qubit 0 = least
significant bit of the basis index. The gate set is RX, RY and RZ (trainable
or fixed-angle) and CNOT, all that the circuit builders emit. Two kernels
apply one gate in place on reshaped views of a batch, at any state size:
``_apply_1q`` does slice arithmetic on the halves where the qubit is 0 and 1
(``u01 = None`` marks a diagonal gate, which only scales them), and
``_apply_cnot`` swaps the target halves inside the control=1 half.

The circuit meets the batch in fused runs (as in qsim and Qulacs).
``_fusion_plan`` groups the gates into maximal runs of consecutive gates
whose qubits fit in one window of w = min(4, Q) adjacent qubits: the 10-qubit
staircase is 4 runs of 66 gates at offsets 0, 2, 4 and 6, a 4-qubit circuit
one run. The kernels build each run's 2**w x 2**w unitary on the identity
rows, and the passes apply it as one matmul on a (rows, 2**(Q-off-w), 2**w,
2**off) view; only a CNOT wider than the window runs its kernel on the
batch. No 2**Q x 2**Q matrix is built outside the test oracles.

Gate coefficients are scalars: per-sample data never reach this module, since
the encodings (``encoding.py``) build the input states and chain their
cotangents back.

``resolve_circuit`` pairs each ``GateOp`` with its angle, and ``_apply_op`` is
the one dispatch over these (gate, angle) pairs. The reverse (adjoint) sweep
walks the runs backwards once, collecting each run's 2**w x 2**w environment
from the rows; one gate-by-gate sweep per run on 2**w rows then gives the
derivative of every trainable angle, and the input-state cotangent is the
bra swept back. The model runs both passes on the d basis rows of its encoded
states (16 at Q=4, 100 at Q=10, in 16-row blocks of ``_BLOCK_BYTES`` that
stay in a core's L2 cache with their temporaries), the references on one
row. The parameter-shift rule (f(theta + pi/2) - f(theta - pi/2)) / 2 is the
second, exact route.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def _coefficients(ops, sign=1.0):
    """Each pair's kernel scalars (its inverse's when ``sign`` is -1); None for the self-inverse CNOT."""
    return [None if g.kind == CNOT else _rotation(g.kind, sign * angle) for g, angle in ops]


def _apply_op(gate, u, states, offset=0):
    """Apply ``gate`` with its scalars ``u`` from ``_coefficients`` in place to ``states``.

    ``offset`` shifts the gate's qubits down, for states of the window of qubits from ``offset``.
    """
    if u is None:
        _apply_cnot(states, gate.control - offset, gate.target - offset)
    else:
        _apply_1q(states, gate.target - offset, *u)


def _sweep_gates(pairs, ket, bra, dtheta, offset):
    """Undo ``pairs`` on ket and bra in place, last first, adding 2 Re<bra, d ket / d theta_j> to dtheta."""
    for (g, _), u in zip(reversed(pairs), reversed(_coefficients(pairs, sign=-1.0))):
        if g.param_slot is not None:
            pk = ket.copy()  # P|ket> for the rotation's generator P
            _apply_1q(pk, g.target - offset, *_GENERATOR[g.kind])
            dtheta[g.param_slot] += np.vdot(bra, pk).imag
        _apply_op(g, u, ket, offset)
        _apply_op(g, u, bra, offset)


# bytes of states per row block: a block and its kernels' temporaries stay in L2
_BLOCK_BYTES = 256 << 10


def _row_blocks(states):
    rows = max(1, _BLOCK_BYTES // (states.shape[1] * states.itemsize))
    return [slice(start, start + rows) for start in range(0, states.shape[0], rows)]


# ---------------------------------------------------------------------------
# gate fusion: a run of consecutive gates on one window of w adjacent qubits is
# one 2**w x 2**w matrix, applied to a (rows, 2**(Q-off-w), 2**w, 2**off) view

_WINDOW = 4  # qubits per run: 16 x 16 matrices


def _fusion_plan(ops, num_qubits):
    """[(offset, pairs)]: maximal runs of consecutive (gate, angle) pairs whose qubits fit in the
    w = min(4, Q) qubits from ``offset``; a CNOT wider than w is a lone gate, with offset None."""
    w = min(_WINDOW, num_qubits)
    plan, lo, hi = [], -w, 0  # lo..hi: the qubits of the open run; wider than w when none is open
    for pair in ops:
        a = b = pair[0].target
        c = pair[0].control
        if c is not None:
            a, b = (a, c) if a < c else (c, a)
        joined_lo, joined_hi = (a if a < lo else lo), (b if b > hi else hi)
        if joined_hi - joined_lo < w:
            lo, hi = joined_lo, joined_hi
            plan[-1][0] = lo
            plan[-1][1].append(pair)
        elif b - a < w:
            lo, hi = a, b
            plan.append([lo, [pair]])
        else:
            lo, hi = -w, 0
            plan.append([None, [pair]])
    return [(None if lo is None else min(lo, num_qubits - w), pairs) for lo, pairs in plan]


def _run_rows(pairs, offset, w):
    """U^T for the run's unitary U: its gates applied to the 2**w identity rows."""
    rows = np.eye(1 << w, dtype=np.complex128)
    for (g, _), u in zip(pairs, _coefficients(pairs)):
        _apply_op(g, u, rows, offset)
    return rows


def _window(states, offset, w):
    b, n = states.shape
    return states.reshape(b, n >> (offset + w), 1 << w, 1 << offset)


def _apply_matrix(states, matrix, offset, w):
    """states <- matrix acting on the window of w qubits from ``offset``, in place."""
    v = _window(states, offset, w)
    np.matmul(matrix, v, out=v)


# ---------------------------------------------------------------------------
# compiled program execution


def resolve_circuit(circuit: ParamCircuit, theta: np.ndarray) -> list[tuple[GateOp, float]]:
    """The circuit's gates, each paired with theta[param_slot], its fixed angle, or 0.0 for a CNOT."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != circuit.num_params:
        raise DimensionError(
            f"theta has {theta.shape[0]} entries, circuit expects {circuit.num_params}"
        )
    ops = []
    for g in circuit.gates:
        angle = g.fixed_angle if g.param_slot is None else theta[g.param_slot]
        ops.append((g, 0.0 if angle is None else float(angle)))
    return ops


def apply_ops(ops, states):
    """Apply resolved (gate, angle) pairs in place to states of shape (B, 2**Q), one row block at a time.

    Each run of ``_fusion_plan`` is one matmul; a lone wide CNOT runs its kernel.
    """
    q = states.shape[1].bit_length() - 1
    w = min(_WINDOW, q)
    plan = _fusion_plan(ops, q)
    steps = [(off, pairs[0][0] if off is None else _run_rows(pairs, off, w).T) for off, pairs in plan]
    for rows in _row_blocks(states):
        block = states[rows]  # a contiguous view: the matmuls and kernels write through it
        for off, step in steps:
            if off is None:
                _apply_op(step, None, block)
            else:
                _apply_matrix(block, step, off, w)
    return states


def adjoint_sweep(ops, final_states, bra, num_params=0):
    """Reverse sweep: dtheta_j = sum over rows of 2 Re<bra, d ket / d theta_j>, bra held fixed.

    ``final_states`` holds the kets after all ops; ``bra`` is swept in place:
    it is overwritten and returned. Returns (dtheta, U^dagger bra). With
    bra = M_total |ket> that is the expectation's gradient and
    dE/d(conj(amplitude)) at the input state (``adjoint_gradients``). The
    model passes the d basis rows U|e_i> and a bra built from its batch.

    Walking the runs of ``_fusion_plan`` backwards, each row block adds the
    run's 2**w x 2**w environment E[a, c] = sum conj(bra_a) ket_c and undoes
    the run on ket and bra. A run's dtheta then comes from one gate-by-gate
    sweep on the 2**w identity rows with bra E^H; the first run's undo, needed
    only for the returned bra, is that sweep's output kets.
    """
    dtheta = np.zeros(num_params)
    q = final_states.shape[1].bit_length() - 1
    w = min(_WINDOW, q)
    plan = _fusion_plan(ops, q)
    # U^dagger = conj(U^T) of each run but the first, whose undo comes from its local sweep below
    undo = [None if off is None or i == 0 else _run_rows(pairs, off, w).conj()
            for i, (off, pairs) in enumerate(plan)]
    envs = [np.zeros((1 << w, 1 << w), dtype=np.complex128) for _ in plan]
    for rows in _row_blocks(bra):
        b, ket = bra[rows], final_states[rows].copy()
        for i in reversed(range(len(plan))):
            off, pairs = plan[i]
            if off is None:  # a lone wide CNOT, which has no angle
                _sweep_gates(pairs, ket, b, dtheta, 0)
                continue
            bv, kv = (_window(x, off, w).swapaxes(0, 2).reshape(1 << w, -1) for x in (b, ket))
            envs[i] += bv.conj() @ kv.T
            if undo[i] is not None:
                _apply_matrix(ket, undo[i], off, w)
                _apply_matrix(b, undo[i], off, w)
    for i, (off, pairs) in enumerate(plan):
        if off is not None:
            local = np.eye(1 << w, dtype=np.complex128)
            _sweep_gates(pairs, local, envs[i].conj().T.copy(), dtheta, off)
            if i == 0:
                for rows in _row_blocks(bra):
                    _apply_matrix(bra[rows], local.T, off, w)
    return dtheta, bra


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
    where = [i for i, (g, _) in enumerate(ops) if g.param_slot == slot]
    if not where:
        raise UnsupportedGateError(f"slot {slot} is not bound to any rotation gate")
    diags = np.asarray(ensemble.diagonals(circuit.num_qubits))
    amps = np.asarray(input_state.amplitudes, dtype=np.complex128)
    total = np.zeros(diags.shape[0])
    for i in where:
        g, angle = ops[i]
        plus, minus = ops.copy(), ops.copy()
        plus[i], minus[i] = (g, angle + np.pi / 2), (g, angle - np.pi / 2)
        total += 0.5 * (_expectations(plus, amps, diags) - _expectations(minus, amps, diags))
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
