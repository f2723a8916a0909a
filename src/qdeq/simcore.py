"""Dense statevector simulation with exact gradients.

States live in arrays of shape (batch, 2**Q), complex128, qubit 0 = least
significant bit of the basis index. The gate set is RX, RY and RZ (trainable
or fixed-angle) and CNOT, all that the circuit builders emit. Gate angles are
scalars: per-sample data never reach this module, since the encodings
(``encoding.py``) build the input states and chain their cotangents back.

A gate has one representation: a 2**w x 2**w matrix on a window of
w = min(4, Q) adjacent qubits, A = cos(a/2) B - i sin(a/2) P at angle a. A
rotation has B = I and P its Pauli generator, a CNOT its basis permutation B
and P = 0; ``_gate_library`` holds the (B, P) pairs by gate code. As in qsim
and Qulacs, ``_fusion_plan`` groups the gates into maximal runs of
consecutive gates that fit in one window: the 10-qubit staircase is 4 runs of
66 gates at offsets 0, 2, 4 and 6, a 4-qubit circuit one run.
``resolve_circuit`` compiles the circuit once per theta: each run's gate
matrices as one gathered stack, then one loop of matmuls for its unitary U.
``apply_ops`` runs that program, one matmul per run on a (rows, 2**(Q-off-w),
2**w, 2**off) view; only a CNOT wider than the window stays a lone step, a
gather of its permutation. No 2**Q x 2**Q matrix is built outside the test
oracles.

Rows that occupy only the m lowest basis states leave the top qubits at |0>,
and ``apply_cone`` runs the program only where they reach: each run acts on
the lowest 2**q columns that cover the rows and every run before it
(``_stretches``): the 10-qubit staircase on 100 rows runs at 128, 128, 256 and
1024 columns. The kets at the end of each stretch of runs at one width are
kept; the last of them is U|rows>. A readout Z_q commutes with every run after
the last on q, so it reads that run's kets (``cone_widths``).

``adjoint_sweep`` walks the runs backwards once over those kets, collecting
each run's 2**w x 2**w environment from the rows and undoing the run on the
bra with U^dagger; each stretch's bra term joins as the sweep enters it. Past
a stretch's first run, the bra is cut to the width of the stretch before: its
other entries meet only zero ket entries from there on. Each trainable angle's
derivative is one contraction of the environment with the gate's generator
carried to the run's output; the input-state cotangent is the bra swept back.
The model runs both passes on the d basis rows of its encoded states (16 at
Q=4, 100 at Q=10, in row blocks of ``_BLOCK_BYTES`` that stay in a core's L2
cache), the references on one row. The parameter-shift rule
(f(theta + pi/2) - f(theta - pi/2)) / 2 is the second, exact route.
"""
from __future__ import annotations

import functools
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
# gate matrices and their fusion into runs on windows of w adjacent qubits

_WINDOW = 4  # qubits per run: 16 x 16 matrices

# Pauli generator of each rotation: R(angle) = exp(-i angle P / 2) = cos(angle/2) I - i sin(angle/2) P
GENERATORS = {RX: np.array([[0.0, 1.0], [1.0, 0.0]]), RY: np.array([[0, -1j], [1j, 0]]), RZ: np.diag([1.0, -1.0])}

_KIND_INDEX = {kind: k for k, kind in enumerate(GATE_KINDS)}


def _cnot_permutation(index, control, target):
    """The basis index that each index trades places with under a CNOT (the map is its own inverse)."""
    return index ^ (((index >> control) & 1) << target)


@functools.lru_cache(maxsize=None)
def _gate_library(w):
    """Read-only (B, P) stacks of shape (3 w + w**2, 2**w, 2**w), indexed by gate code: a rotation of
    kind k (0, 1, 2 for RX, RY, RZ) on window qubit t has code k w + t, a CNOT 3 w + control w + target."""
    d = 1 << w
    eye = np.eye(d)
    basis = np.zeros((3 * w + w * w, d, d), dtype=np.complex128)
    generator = np.zeros_like(basis)
    for k, kind in enumerate(ROTATION_KINDS):
        for t in range(w):
            basis[k * w + t] = eye
            generator[k * w + t] = np.kron(np.kron(np.eye(d >> (t + 1)), GENERATORS[kind]), np.eye(1 << t))
    for c in range(w):
        for t in range(w):
            if c != t:
                basis[3 * w + c * w + t] = eye[_cnot_permutation(np.arange(d), c, t)]
    basis.flags.writeable = generator.flags.writeable = False
    return basis, generator


def _fusion_plan(gates, num_qubits):
    """[(offset, start, stop)]: maximal runs gates[start:stop] whose qubits fit in the w = min(4, Q)
    qubits from ``offset``, the lowest such window, so that a run reaches no basis state above its
    top qubit's; a CNOT wider than w is a lone gate, with offset None."""
    w = min(_WINDOW, num_qubits)
    plan, lo, hi = [], -w, 0  # lo..hi: the qubits of the open run; wider than w when none is open
    for i, g in enumerate(gates):
        a = b = g.target
        c = g.control
        if c is not None:
            a, b = (a, c) if a < c else (c, a)
        joined_lo, joined_hi = (a if a < lo else lo), (b if b > hi else hi)
        if joined_hi - joined_lo < w:
            lo, hi = joined_lo, joined_hi
            plan[-1][0], plan[-1][2] = hi, i + 1
        elif b - a < w:
            lo, hi = a, b
            plan.append([hi, i, i + 1])
        else:
            lo, hi = -w, 0
            plan.append([None, i, i + 1])
    return [(None if hi is None else max(0, hi - w + 1), start, stop) for hi, start, stop in plan]


class _Run(NamedTuple):
    """One step of a compiled circuit.

    A run of gates A_1 ... A_G on the w qubits from ``offset`` holds its unitary U = A_G ... A_1
    and, for each trainable gate j, the product S_j = A_G ... A_(j+1) of the gates after it, the
    generator P_j and the theta slot. A CNOT wider than the window has offset None, and
    ``unitary`` holds its basis permutation (``_cnot_permutation``) of the lowest basis states up to
    its higher qubit, which repeats along the qubits above. Either way, the run acts within the
    ``_reach`` lowest basis states.
    """

    offset: Optional[int]
    unitary: np.ndarray
    suffixes: Optional[np.ndarray] = None
    generators: Optional[np.ndarray] = None
    slots: Optional[np.ndarray] = None


def _compile(gates, angles, num_qubits):
    """[_Run] for ``gates`` at ``angles``, one per run of ``_fusion_plan``.

    A run's gate matrices come from ``_gate_library`` as one stack, gathered by gate code; one loop
    of 2**w x 2**w matmuls, S_(j-1) = S_j A_j from S_G = I, then gives its suffixes and U = S_0.
    """
    w = min(_WINDOW, num_qubits)
    basis, generator = _gate_library(w)
    fields = np.array(
        [(_KIND_INDEX[g.kind], g.target, g.control or 0, -1 if g.param_slot is None else g.param_slot)
         for g in gates], dtype=np.intp).reshape(-1, 4)
    half = 0.5 * np.asarray(angles, dtype=np.float64)[:, None, None]
    cos, sin = np.cos(half), np.sin(half)
    program = []
    for off, start, stop in _fusion_plan(gates, num_qubits):
        kind, target, control, slot = fields[start:stop].T
        if off is None:
            c, t = control[0], target[0]
            program.append(_Run(None, _cnot_permutation(np.arange(2 << max(c, t)), c, t)))
            continue
        code = np.where(kind < 3, kind * w + target - off, 3 * w + (control - off) * w + target - off)
        matrices = basis[code]
        matrices *= cos[start:stop]
        matrices -= 1j * sin[start:stop] * generator[code]
        suffix = np.empty((stop - start + 1, 1 << w, 1 << w), dtype=np.complex128)
        suffix[-1] = np.eye(1 << w)
        for j in range(stop - start - 1, -1, -1):
            np.matmul(suffix[j + 1], matrices[j], out=suffix[j])
        trainable = np.flatnonzero(slot >= 0)
        program.append(_Run(off, suffix[0].copy(), suffix[trainable + 1], generator[code[trainable]], slot[trainable]))
    return program


# bytes of states per row block: a block and its matmuls' temporaries stay in L2
_BLOCK_BYTES = 256 << 10


def _row_blocks(states):
    rows = max(1, _BLOCK_BYTES // (states.shape[1] * states.itemsize))
    return [slice(start, start + rows) for start in range(0, states.shape[0], rows)]


def _window(states, offset, d):
    """(rows, 2**(Q-off-w), d, 2**off) view of states, d = 2**w: axis 2 is the window of qubits from ``offset``."""
    b, n = states.shape
    return states.reshape(b, n // (d << offset), d, 1 << offset)


def _apply_step(states, offset, step):
    """states <- the matrix ``step`` acting on the window of qubits from ``offset``, in place; with
    offset None, ``step`` is a basis permutation of the len(step) lowest basis states, applied as a
    gather on each block of len(step) columns."""
    if offset is None:
        v = _window(states, 0, len(step))
        v[:] = v[:, :, step]
    else:
        v = _window(states, offset, len(step))
        np.matmul(step, v, out=v)


def _reach(run):
    """The number of lowest basis states that a run acts within: 2**(its highest qubit + 1)."""
    return len(run.unitary) << (run.offset or 0)


def _stretches(ops, width):
    """The light cone of rows on the ``width`` lowest basis states, as [(start, stop, cone width)].

    Run i acts on the lowest 2**q columns that cover the rows and every run up to it; the runs
    ops[start:stop] share one such width, and a stretch starts where a run first reaches a new
    qubit. Rows on every basis state are one stretch at full width.
    """
    stretches, width = [], 1 << (width - 1).bit_length()
    for i, run in enumerate(ops):
        if _reach(run) > width or not stretches:
            width = max(width, _reach(run))
            stretches.append([i, i + 1, width])
        else:
            stretches[-1][1] = i + 1
    return stretches


# ---------------------------------------------------------------------------
# compiled program execution


def _gate_angles(circuit, theta):
    """Each gate's angle: theta[param_slot], its fixed angle, or 0 for a CNOT."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] != circuit.num_params:
        raise DimensionError(
            f"theta has {theta.shape[0]} entries, circuit expects {circuit.num_params}"
        )
    return np.array([theta[g.param_slot] if g.param_slot is not None else g.fixed_angle or 0.0
                     for g in circuit.gates])


def resolve_circuit(circuit: ParamCircuit, theta: np.ndarray) -> list[_Run]:
    """The circuit compiled at theta (``_compile``), once: ``apply_ops`` runs the program and
    ``adjoint_sweep`` reverses it."""
    return _compile(circuit.gates, _gate_angles(circuit, theta), circuit.num_qubits)


def apply_ops(ops, states):
    """Apply the program ``ops`` of ``resolve_circuit`` in place to states of shape (B, N), one row
    block at a time: one matmul per run, one gather per lone wide CNOT. N is a power of two that
    covers every run's qubits: 2**Q, or the width of a stretch of ``apply_cone``."""
    for rows in _row_blocks(states):
        block = states[rows]  # a contiguous view: the steps write through it
        for run in ops:
            _apply_step(block, run.offset, run.unitary)
    return states


def _entry(run, inner, width):
    """The columns that the first run of a stretch on ``width`` columns reads of kets on ``inner``:
    all for a lone wide CNOT's gather or a run below the stretch's top qubit, else whole slices of
    2**offset columns, which meet only the first ``entry >> offset`` columns of U."""
    if run.offset is None or _reach(run) < width:
        return width
    return max(1 << (inner - 1).bit_length(), 1 << run.offset)


def apply_cone(ops, states):
    """The kets of the program ``ops`` on rows ``states`` (B, m) that occupy the m lowest basis
    states, in its light cone: a list with the kets at the end of each of ``_stretches``.

    Each stretch is one ``apply_ops`` call on the kets of the stretch before (the first works in
    place on rows of a power-of-two width). The run that widens the cone computes U[:, :c] @ x on
    the c window states that its input reaches (``_entry``): 4 of 16 for the staircase's last run.
    The last kets are U|rows>, at the width that the rows and the program reach. At Q=10 the
    staircase on 100 rows keeps (100, 128) and (100, 256) kets before them, 0.6 MiB; rows on every
    basis state keep only U|rows>.
    """
    kets = []
    for start, stop, width in _stretches(ops, states.shape[1]):
        run, entry = ops[start], _entry(ops[start], states.shape[1], width)
        if entry > states.shape[1]:
            states = np.pad(states, ((0, 0), (0, entry - states.shape[1])))
        if entry < width:
            c = entry >> run.offset
            states = (run.unitary[:, :c] @ _window(states, run.offset, c)).reshape(len(states), width)
            start += 1
        kets.append(apply_ops(ops[start:stop], states))
    return kets or [states]


def cone_widths(ops, kets, num_qubits):
    """Per qubit q, the width of the kets of ``apply_cone`` at the end of the last stretch with a
    run on q, a lone wide CNOT counting as on every qubit (the first kets' width if no run acts on
    q): Z_q commutes with every later run, so its readout reads those kets."""
    w, widths = min(_WINDOW, num_qubits), np.full(num_qubits, kets[0].shape[1])
    for start, stop, width in _stretches(ops, kets[0].shape[1]):
        for run in ops[start:stop]:
            widths[slice(0, None) if run.offset is None else slice(run.offset, run.offset + w)] = width
    return tuple(widths.tolist())


def adjoint_sweep(ops, final_states, bra, num_params=0, return_bra=True):
    """Reverse sweep: dtheta_j = sum over rows of 2 Re<bra, d ket / d theta_j>, bra held fixed.

    ``final_states`` holds the kets of the program ``ops``: the list of ``apply_cone``, or the kets
    after the last run alone (one stretch at their width, as for rows on every basis state).
    ``bra`` is the bra of the last kets, or a list of bra terms (or None), one per kets: the sweep
    adds each, the cotangent of its kets, into the bra as it enters their stretch, in place in the
    term; a widening run's undo writes a new, narrower bra. Returns (dtheta, U^dagger bra), swept
    back to the width of the first stretch (128 columns for the staircase on 100 rows): with
    bra = M_total |ket>, the expectation's gradient and dE/d(conj(amplitude)) at the input state.
    With ``return_bra`` False it skips the undo through the first run, which only the swept bra
    reads, and returns None in its place.

    Walking the runs backwards, each row block adds the run's 2**w x 2**w environment
    E[a, c] = sum conj(bra_a) ket_c and undoes the run on the bra with U^dagger. Each stretch reads
    its kept kets, and undoes a copy of them only back through the runs after its first. A
    stretch's bra is cut to its width first: its entries past that width meet only zero ket
    entries from there on; the run that widened the cone computes only the entries U[:, :c]^dagger
    that survive the cut (``_entry``). As d ket / d theta_j = -i/2 S_j P_j S_j^dagger ket at the
    run's output, the run's dtheta is then Im sum_(a, c) E[a, c] (S_j P_j S_j^dagger)[a, c], one
    batched product for all its gates.
    """
    kets = [final_states] if isinstance(final_states, np.ndarray) else final_states
    terms = bra if isinstance(bra, list) else [None] * (len(kets) - 1) + [bra]
    stretches, dtheta, bra = _stretches(ops, kets[0].shape[1]), np.zeros(num_params), None
    undo = [run.unitary if run.offset is None else run.unitary.conj().T for run in ops]  # a CNOT undoes itself
    envs = [None if run.offset is None else np.zeros_like(run.unitary) for run in ops]
    for s in range(len(stretches) - 1, -1, -1):
        (start, stop, width), kept, term = stretches[s], kets[s], terms[s]
        if term is not None:
            bra = term[:, :width] if bra is None else np.add(term[:, :width], bra[:, :width], out=term[:, :width])
        if bra is None:
            continue  # no readout reads the kets from here on
        bra = bra[:, :width]
        entry = _entry(ops[start], stretches[s - 1][2], width) if s else width
        out = bra if entry == width else np.empty((len(bra), entry), dtype=np.complex128)
        if not (s or return_bra):
            out = None  # nothing reads the bra past the first run
        for rows in _row_blocks(bra):
            b, ket = bra[rows], kept[rows]
            if stop - start > 1:
                ket = ket.copy()  # undone below, back to the stretch's first run
            for i in range(stop - 1, start - 1, -1):
                run, env = ops[i], envs[i]
                if env is not None:
                    bv, kv = (_window(x, run.offset, len(env)).swapaxes(0, 2).reshape(len(env), -1) for x in (b, ket))
                    env += bv.conj() @ kv.T
                if i > start:
                    _apply_step(ket, run.offset, undo[i])
                if i > start or out is bra:
                    _apply_step(b, run.offset, undo[i])
                elif out is not None:
                    c = entry >> run.offset
                    np.matmul(undo[i][:c], _window(b, run.offset, len(env)), out=_window(out[rows], run.offset, c))
        bra = out
    for run, env in zip(ops, envs):
        if env is not None:
            forms = run.suffixes @ run.generators @ run.suffixes.conj().transpose(0, 2, 1)
            np.add.at(dtheta, run.slots, (forms.reshape(len(forms), env.size) @ env.reshape(-1)).imag)
    return dtheta, (terms[0] if bra is None else bra) if return_bra else None


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


def parameter_shift_grad(circuit, theta, input_state: StateVector, ensemble, slot: int):
    """Exact derivative of each ensemble expectation w.r.t. theta[slot].

    Uses (f(theta + pi/2 e_slot) - f(theta - pi/2 e_slot)) / 2 per occurrence
    of the slot, which is exact for Pauli-generated rotations.
    """
    angles = _gate_angles(circuit, theta)
    where = [i for i, g in enumerate(circuit.gates) if g.param_slot == slot]
    if not where:
        raise UnsupportedGateError(f"slot {slot} is not bound to any rotation gate")
    diags = np.asarray(ensemble.diagonals(circuit.num_qubits))
    amps = np.asarray(input_state.amplitudes, dtype=np.complex128)
    total = np.zeros(diags.shape[0])
    for i in where:
        plus, minus = angles.copy(), angles.copy()
        plus[i] += np.pi / 2
        minus[i] -= np.pi / 2
        total += 0.5 * (_expectations(_compile(circuit.gates, plus, circuit.num_qubits), amps, diags)
                        - _expectations(_compile(circuit.gates, minus, circuit.num_qubits), amps, diags))
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
