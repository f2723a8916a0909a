"""Quantum model family: encoding + parametrized circuit + readout + upsample.

A model maps an iterate z and input x to S <M_k>, the K readouts of the state
U(theta)|encode(z + x)> taken back to the input width by the upsample matrix S
(n, K). Forward and reverse passes work on (B, n) batches of samples only; a
single sample is a one-row batch. ``expectations`` is the one place that runs
the gate kernels on the B states of ``encoding.states``; the reverse passes use
the K readout forms on the d = ``EncodingSpec.width`` basis rows that encoded
states occupy (``_compiled``), never the B rows, and ``encoding.encode``'s vjp
and jvp.

Circuit builders follow the 4-qubit block (seeded random layer, then a
trainable RY wall, RZ wall, CNOT ring, RY wall) and its 10-qubit staircase
extension (4-qubit blocks at qubit offsets 0, 2, 4, 6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoding as enc
from .errors import DimensionError
from .measurement import ObservableEnsemble, UpsampleMap
from .seeding import child_seed, substream
from .simcore import (
    CNOT,
    RY,
    RZ,
    GateOp,
    ParamCircuit,
    adjoint_sweep,
    apply_ops,
    random_layer,
    resolve_circuit,
)


@dataclass
class QuantumModel:
    encoding: enc.EncodingSpec
    circuit: ParamCircuit
    theta: np.ndarray
    ensemble: ObservableEnsemble
    upsample: UpsampleMap

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if self.encoding.num_qubits != self.circuit.num_qubits:
            raise DimensionError("encoding and circuit disagree on qubit count")
        if self.theta.shape[0] != self.circuit.num_params:
            raise DimensionError(
                f"theta has {self.theta.shape[0]} entries, circuit expects {self.circuit.num_params}"
            )
        if self.upsample.num_outputs != self.ensemble.size:
            raise DimensionError("upsample source dim must equal ensemble size")
        if self.upsample.target_dim != self.encoding.input_dim:
            raise DimensionError("upsample target dim must equal encoding input dim")
        self.ensemble.diagonals(self.circuit.num_qubits)  # validates sites
        self._compiled_at = None  # (theta copy, ops, V, H) from ``_compiled``

    # -- shape helpers -----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def input_dim(self) -> int:
        return self.encoding.input_dim

    @property
    def num_params(self) -> int:
        return self.circuit.num_params

    def same_shape_as(self, other: "QuantumModel") -> bool:
        return (
            self.encoding == other.encoding
            and self.ensemble == other.ensemble
            and self.upsample == other.upsample
            and self.circuit.num_qubits == other.circuit.num_qubits
            and self.circuit.num_params == other.circuit.num_params
        )

    # -- forward -----------------------------------------------------------

    def expectations(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(B, K) readouts <M_k> of U(theta)|encode(z + x)>, from the gate kernels on the B states."""
        states = enc.states(self.encoding, enc.inject(Z, X))
        final = apply_ops(resolve_circuit(self.circuit, self.theta), states)
        return (final.real**2 + final.imag**2) @ self.ensemble.diagonals(self.num_qubits).T

    def forward_batch(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self.expectations(Z, X) @ self.upsample.matrix.T

    # -- reverse -----------------------------------------------------------

    def _compiled(self):
        """(ops, V, H) at theta, rebuilt when theta's values differ from the cached copy.

        V (d, 2**Q) is U(theta) on the d basis rows that encoded states occupy (the encoding's
        ``width``: n for amplitude, 2**Q for angle encoding), so a row psi ends as psi @ V. H (d, K*d) stacks
        H_k = V diag(m_k) V^dagger: <M_k> = psi H_k psi^dagger (only Re H_k for real amplitude
        rows). Values key the cache, because the optimizer and checkpoint loads write theta in place.
        """
        if self._compiled_at is None or not np.array_equal(self._compiled_at[0], self.theta):
            ops = resolve_circuit(self.circuit, self.theta)
            d = self.encoding.width
            V = apply_ops(ops, np.eye(d, 1 << self.num_qubits, dtype=np.complex128))
            diags = self.ensemble.diagonals(self.num_qubits)
            if self.encoding.kind == enc.AMPLITUDE:
                Vf = V.view(np.float64)  # real and imaginary parts interleaved
                H = [(Vf * np.repeat(m, 2)) @ Vf.T for m in diags]
            else:
                H = [(V * m) @ V.conj().T for m in diags]
            self._compiled_at = (self.theta.copy(), ops, V, np.stack(H, axis=1).reshape(d, -1))
        return self._compiled_at[1:]

    def backward_batch(self, Z, X, cotangents, need_z: bool = True, need_theta: bool = True, tangents=None):
        """(dZ, dtheta) for sum_b cotangent_b . forward(z_b, x_b), from the forms of ``_compiled``.

        With chat = c S, dZ is the encoder vjp of sum_k chat_bk psi_b H_k. dtheta
        is summed over the batch (scale cotangents by 1/B upstream for a batch
        mean). The objective is sum_k tr(H_k^T R_k) with R_k = sum_b chat_bk
        psi_b^T conj(psi_b), so one adjoint sweep over the d rows of V, with bra
        sum_k (R_k^T V) * m_k, gives it whatever B is. ``tangents`` T (B, K, n)
        add the theta-gradient of sum_bk <D_bk, T_bk> (D of ``jacobian_factors``,
        T fixed): as <vjp(bra), t> = 2 Re<bra, jvp(t)>, that adds psi_b^H Phi_bk
        + Phi_bk^H psi_b, Phi_bk = jvp(T_bk), to R_k^T before the sweep.
        """
        ops, V, H = self._compiled()
        psi, encode_vjp, encode_jvp = enc.encode(self.encoding, enc.inject(Z, X))
        chat = np.atleast_2d(cotangents) @ self.upsample.matrix
        dZ = dtheta = None
        if need_z:
            dZ = encode_vjp(np.einsum("bk,bkd->bd", chat, (psi @ H).reshape(chat.shape + (-1,))))
        if need_theta:
            bra, rows = np.zeros_like(V), psi.conj().T
            for k, (c, m) in enumerate(zip(chat.T, self.ensemble.diagonals(self.num_qubits))):
                Rt = rows @ (c[:, None] * psi)  # R_k^T; real for amplitude rows, so a real matmul
                if tangents is not None:
                    Y = rows @ encode_jvp(tangents[:, k])
                    Rt += Y + Y.conj().T
                bra += m * ((Rt @ V.view(np.float64)).view(np.complex128) if Rt.dtype.kind == "f" else Rt @ V)
            dtheta = adjoint_sweep(ops, V, bra, num_params=self.num_params)[0]
        return dZ, dtheta

    def jacobian_factors(self, Z: np.ndarray, X: np.ndarray):
        """(S, D) with d forward(z_b, x_b) / d z_b = S @ D[b], of rank K.

        S is the (n, K) upsample matrix ``UpsampleMap.matrix``. Row k of D[b] (shape (B, K, n)) is
        readout k's input cotangent psi_b H_k chained through the encoder vjp.
        """
        psi, encode_vjp, _ = enc.encode(self.encoding, enc.inject(Z, X))
        PH = (psi @ self._compiled()[2]).reshape(len(psi), self.ensemble.size, -1)
        D = np.stack([encode_vjp(PH[:, k]) for k in range(self.ensemble.size)], axis=1)
        return self.upsample.matrix, D


# ---------------------------------------------------------------------------
# circuit builders


def _trainable_block(num_qubits: int, slot_base: int) -> tuple[list[GateOp], int]:
    """RY wall, RZ wall, CNOT ring, RY wall; returns gates and slot count used."""
    def wall(kind, first):
        return [GateOp(kind, target=q, param_slot=slot_base + first + q) for q in range(num_qubits)]

    ring = [GateOp(CNOT, target=(q + 1) % num_qubits, control=q) for q in range(num_qubits)]
    return wall(RY, 0) + wall(RZ, num_qubits) + ring + wall(RY, 2 * num_qubits), 3 * num_qubits


def build_block(seed: int, num_qubits: int, random_ops: int = 50):
    """Seeded random layer followed by the trainable wall/ring layer.

    Returns (circuit, theta_init); random-layer rotations are trainable too.
    """
    gates, layer_init = random_layer(seed, num_qubits, random_ops)
    wall, wall_slots = _trainable_block(num_qubits, len(layer_init))
    wall_init = substream(seed, "trainable-wall").uniform(0.0, 2.0 * np.pi, wall_slots)
    circuit = ParamCircuit(num_qubits, tuple(gates + wall), len(layer_init) + wall_slots)
    return circuit, np.concatenate([layer_init, wall_init])


def build_block4(seed: int, random_ops: int = 50):
    """The 4-qubit block of the classifier circuit (12 trainable wall slots)."""
    return build_block(seed, 4, random_ops)


def _remap_gate(g: GateOp, qubit_offset: int, slot_offset: int) -> GateOp:
    return GateOp(
        g.kind,
        target=g.target + qubit_offset,
        control=None if g.control is None else g.control + qubit_offset,
        param_slot=None if g.param_slot is None else g.param_slot + slot_offset,
        fixed_angle=g.fixed_angle,
    )


def build_staircase10(seed: int, random_ops_per_block: int = 50, num_qubits: int = 10):
    """Staircase of 4-qubit blocks at stride 2 (offsets 0, 2, ..., Q-4).

    Each block gets an independent seed derived from ``seed`` and its index.
    Returns (circuit, theta_init).
    """
    if num_qubits < 4 or (num_qubits - 4) % 2 != 0:
        raise DimensionError("staircase needs an even qubit count >= 4")
    gates: list[GateOp] = []
    inits = []
    slot_base = 0
    for b, offset in enumerate(range(0, num_qubits - 3, 2)):
        block, init = build_block4(child_seed(seed, "block", b), random_ops_per_block)
        gates.extend(_remap_gate(g, offset, slot_base) for g in block.gates)
        inits.append(init)
        slot_base += block.num_params
    circuit = ParamCircuit(num_qubits, tuple(gates), slot_base)
    return circuit, np.concatenate(inits) if inits else np.array([])


def build_default_model(
    encoding_kind: str,
    num_qubits: int,
    input_dim: int,
    seed: int,
    random_ops: int = 50,
) -> QuantumModel:
    """Model with one Pauli-Z per qubit and the standard circuit for Q."""
    if num_qubits <= 4:
        circuit, theta = build_block(child_seed(seed, "circuit"), num_qubits, random_ops)
    else:
        circuit, theta = build_staircase10(child_seed(seed, "circuit"), random_ops, num_qubits)
    return QuantumModel(
        encoding=enc.EncodingSpec(encoding_kind, num_qubits, input_dim),
        circuit=circuit,
        theta=theta,
        ensemble=ObservableEnsemble.pauli_z_all(num_qubits),
        upsample=UpsampleMap(num_qubits, input_dim),
    )
