"""Classical-to-quantum encodings and the fixed-point input injection.

Amplitude encoding normalizes the (zero-padded) vector straight into the
amplitudes; angle encoding writes four rotation angles per qubit in the
Y, Z, X, Y order. Injection is elementwise addition of the original input
into the current iterate; the encoder normalizes downstream where needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .simcore import RX, RY, RZ, GateOp, Op, StateVector

AMPLITUDE = "amplitude"
ANGLE = "angle"

_ANGLE_ORDER = (RY, RZ, RX, RY)

_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class EncodingSpec:
    kind: str
    num_qubits: int
    input_dim: int

    def __post_init__(self):
        if self.kind not in (AMPLITUDE, ANGLE):
            raise DimensionError(f"unknown encoding kind {self.kind!r}")
        if self.kind == AMPLITUDE and self.input_dim > (1 << self.num_qubits):
            raise DimensionError(
                f"amplitude encoding fits at most {1 << self.num_qubits} entries, got {self.input_dim}"
            )
        if self.kind == ANGLE and self.input_dim != 4 * self.num_qubits:
            raise DimensionError(
                f"angle encoding needs exactly {4 * self.num_qubits} entries, got {self.input_dim}"
            )


def inject(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Combine the current iterate with the original input (elementwise add)."""
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if z.shape != x.shape:
        raise DimensionError(f"inject shapes differ: {z.shape} vs {x.shape}")
    return z + x


def amplitude_encode(x: np.ndarray, num_qubits: int) -> StateVector:
    """Normalized zero-padded x as real amplitudes; rejects the zero vector."""
    states, _ = amplitude_encode_batch(np.asarray(x, dtype=np.float64)[None, :], num_qubits)
    return StateVector(num_qubits, states[0])


def amplitude_encode_batch(X: np.ndarray, num_qubits: int):
    """(B, n) -> complex states (B, 2**Q) plus the row norms used."""
    X = np.asarray(X, dtype=np.float64)
    dim = 1 << num_qubits
    if X.shape[1] > dim:
        raise DimensionError(f"{X.shape[1]} entries exceed 2**{num_qubits} amplitudes")
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms <= _DEGENERATE_NORM)
    if bad.size:
        raise DegenerateInputError(
            f"cannot amplitude-encode (near-)zero vectors at rows {bad.tolist()}",
            rows=bad,
        )
    states = np.zeros((X.shape[0], dim), dtype=np.complex128)
    states[:, : X.shape[1]] = X / norms[:, None]
    return states, norms


def amplitude_encode_vjp(X: np.ndarray, norms: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Chain the complex amplitude cotangent back to the real pre-encode vector.

    ``bra`` is dE/d(conj(amplitudes)); with phi = pad(x)/|x| the real gradient is
    dE/dx_b = w_b/|x| - x_b (w . x)/|x|^3 over the first n entries, w = 2 Re(bra).
    """
    n = X.shape[1]
    w = 2.0 * bra.real[:, :n]
    unit = X / norms[:, None]
    proj = np.einsum("bi,bi->b", w, unit)
    return (w - unit * proj[:, None]) / norms[:, None]


def angle_encode(x: np.ndarray, num_qubits: int) -> list[GateOp]:
    """Fixed-angle rotation list RY,RZ,RX,RY per qubit from 4*Q values."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != 4 * num_qubits:
        raise DimensionError(f"angle encoding needs {4 * num_qubits} values, got {x.shape[0]}")
    gates = []
    for q in range(num_qubits):
        for j, kind in enumerate(_ANGLE_ORDER):
            gates.append(GateOp(kind, target=q, fixed_angle=float(x[4 * q + j])))
    return gates


def angle_encode_ops(num_qubits: int) -> list[Op]:
    """Resolved ops reading per-sample angles from input columns 0..4Q-1."""
    ops = []
    for q in range(num_qubits):
        for j, kind in enumerate(_ANGLE_ORDER):
            ops.append(Op(kind, q, -1, 0.0, 4 * q + j, -1))
    return ops
