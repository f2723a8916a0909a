"""Quantum model family: encoding + parametrized circuit + readout + upsample.

A model maps an iterate z and input x to upsample(<M_k>) of the state
U(theta)|encode(z + x)>. Forward and reverse passes work on (B, n) batches of
samples only; a single sample is a one-row batch.

Circuit builders follow the 4-qubit block (seeded random layer, then a
trainable RY wall, RZ wall, CNOT ring, RY wall) and its 10-qubit staircase
extension (4-qubit blocks at qubit offsets 0, 2, 4, 6).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import encoding as enc
from .errors import DimensionError
from .measurement import (
    ObservableEnsemble,
    UpsampleMap,
    expect_batch,
    upsample_batch,
    upsample_transpose_batch,
)
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


class Prepared(NamedTuple):
    """Cached forward pass at fixed (Z, X), reused by ``jacobian_factors`` and the backward sweeps."""

    combined: np.ndarray  # z + x, shape (B, n)
    norms: Optional[np.ndarray]  # pre-encode norms (amplitude encoding only)
    states: np.ndarray  # final states (B, 2**Q)
    ops: list


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

    def prepare(self, Z: np.ndarray, X: np.ndarray) -> Prepared:
        """Run encode + circuit for a batch, keeping what the sweep needs."""
        combined = enc.inject(Z, X)
        ops = resolve_circuit(self.circuit, self.theta)
        if self.encoding.kind == enc.AMPLITUDE:
            states, norms = enc.amplitude_encode_batch(combined, self.num_qubits)
        else:
            states, norms = enc.angle_encode_batch(combined, self.num_qubits), None
        apply_ops(ops, states)
        return Prepared(combined, norms, states, ops)

    def forward_batch(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        diags = self.ensemble.diagonals(self.num_qubits)
        return upsample_batch(expect_batch(self.prepare(Z, X).states, diags), self.upsample)

    # -- reverse -----------------------------------------------------------

    def backward_batch(
        self,
        Z: np.ndarray,
        X: np.ndarray,
        cotangents: np.ndarray,
        need_z: bool = True,
        need_theta: bool = True,
        prepared: Optional[Prepared] = None,
    ):
        """(dZ, dtheta) for sum_b cotangent_b . forward(z_b, x_b).

        dZ is per sample; dtheta is summed over the batch (scale cotangents by
        1/B upstream for a batch mean).
        """
        prep = prepared if prepared is not None else self.prepare(Z, X)
        diags = self.ensemble.diagonals(self.num_qubits)
        chat = upsample_transpose_batch(np.atleast_2d(cotangents), self.upsample)
        bra = (chat @ diags) * prep.states
        dtheta, back = adjoint_sweep(
            prep.ops, prep.states, bra, num_params=self.num_params, need_theta=need_theta
        )
        dZ = self._encode_vjp(prep, back) if need_z else None
        return dZ, (dtheta if need_theta else None)

    def jacobian_factors(self, Z: np.ndarray, X: np.ndarray, prepared: Optional[Prepared] = None):
        """(S, D) with d forward(z_b, x_b) / d z_b = S @ D[b], of rank K.

        S is the (n, K) upsample matrix. Row k of D[b] (shape (B, K, n)) is
        readout k's input cotangent U^dagger M_k U psi_b chained through the
        encoder vjp; U^dagger is read from the d columns of U that encoded
        states occupy (the first n for amplitude encoding, all 2**Q for angle).
        """
        prep = prepared if prepared is not None else self.prepare(Z, X)
        dim = 1 << self.num_qubits
        d = self.input_dim if self.encoding.kind == enc.AMPLITUDE else dim
        cols = apply_ops(prep.ops, np.eye(d, dim, dtype=np.complex128)).conj().T
        diags = self.ensemble.diagonals(self.num_qubits)
        D = np.stack([self._encode_vjp(prep, prep.states @ (m[:, None] * cols)) for m in diags], axis=1)
        return upsample_batch(np.eye(self.ensemble.size), self.upsample).T, D

    def _encode_vjp(self, prep: Prepared, bra: np.ndarray) -> np.ndarray:
        """Chain a complex input-state cotangent back to the real z + x."""
        if self.encoding.kind == enc.AMPLITUDE:
            return enc.amplitude_encode_vjp(prep.combined, prep.norms, bra)
        return enc.angle_encode_vjp(prep.combined, bra)


# ---------------------------------------------------------------------------
# circuit builders


def _trainable_block(num_qubits: int, slot_base: int) -> tuple[list[GateOp], int]:
    """RY wall, RZ wall, CNOT ring, RY wall; returns gates and slot count used."""
    gates = []
    s = slot_base
    for q in range(num_qubits):
        gates.append(GateOp(RY, target=q, param_slot=s))
        s += 1
    for q in range(num_qubits):
        gates.append(GateOp(RZ, target=q, param_slot=s))
        s += 1
    for q in range(num_qubits):
        gates.append(GateOp(CNOT, target=(q + 1) % num_qubits, control=q))
    for q in range(num_qubits):
        gates.append(GateOp(RY, target=q, param_slot=s))
        s += 1
    return gates, s - slot_base


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
