"""Classical-to-quantum encodings and the fixed-point input injection.

``encode`` is the one batch encoder: it encodes each row once and returns the
amplitudes it occupies with their vjp and jvp, so the simulator runs only the
trainable circuit. Amplitude encoding normalizes the (zero-padded) vector straight
into the amplitudes. Angle encoding rotates each qubit's |0> by Y, Z, X, Y
angles and builds the product state from the per-qubit 2-vectors. Injection
adds the original input to the current iterate; the encoder normalizes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .simcore import GENERATORS, RX, RY, RZ, GateOp, StateVector

AMPLITUDE = "amplitude"
ANGLE = "angle"

_ANGLE_ORDER = (RY, RZ, RX, RY)

_DEGENERATE_NORM = 1e-12

# -i P for each rotation's generator P, as Python scalars: R(a) = cos(a/2) I + sin(a/2) (-i P)
_MINUS_I_GENERATOR = {kind: np.real_if_close(-1j * p).ravel().tolist() for kind, p in GENERATORS.items()}


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

    @property
    def width(self) -> int:
        """d, the amplitudes an encoded row occupies: n for amplitude, 2**Q for angle encoding."""
        return self.input_dim if self.kind == AMPLITUDE else 1 << self.num_qubits


def inject(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Combine the current iterate with the original input (elementwise add)."""
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if z.shape != x.shape:
        raise DimensionError(f"inject shapes differ: {z.shape} vs {x.shape}")
    return z + x


def encode(spec: EncodingSpec, X: np.ndarray):
    """(psi, vjp, jvp) for the (B, n) rows of X, each row encoded once.

    psi holds each row's d = ``spec.width`` occupied amplitudes: the real unit rows
    X / |X| (amplitude) or the complex product states (angle). vjp maps dE/d(conj(psi)),
    of width d or 2**Q, to the real (B, n) gradient and jvp a real tangent to d psi.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1:] != (spec.input_dim,):
        raise DimensionError(f"{spec.kind} encoding takes (B, {spec.input_dim}) rows, got {X.shape}")
    if spec.kind == ANGLE:
        angles = X.reshape(len(X), spec.num_qubits, 4)
        kets = _qubit_kets(angles)
        return _product(kets[-1]), partial(_angle_vjp, angles, kets), partial(_angle_jvp, angles, kets)
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms <= _DEGENERATE_NORM)
    if bad.size:
        raise DegenerateInputError(f"cannot amplitude-encode (near-)zero rows {bad.tolist()}", rows=bad)
    unit = X / norms[:, None]

    def jvp(tangent):  # (I - phi phi^T) t / |x| per row
        return (tangent - unit * np.einsum("bi,bi->b", tangent, unit)[:, None]) / norms[:, None]

    # the vjp is the jvp of w = 2 Re(bra) on the n occupied entries, as the Jacobian is symmetric
    return unit, lambda bra: jvp(2.0 * bra.real[:, : spec.input_dim]), jvp


def amplitude_encode(x: np.ndarray, num_qubits: int) -> StateVector:
    """Normalized zero-padded x as real amplitudes; rejects the zero vector."""
    x = np.asarray(x, dtype=np.float64)
    amps = np.zeros(1 << num_qubits)
    amps[: len(x)] = encode(EncodingSpec(AMPLITUDE, num_qubits, len(x)), x[None])[0][0]
    return StateVector(num_qubits, amps)


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


def _rotation(kind, angle):
    """R(angle) = cos(angle/2) I - i sin(angle/2) P as the entries (u00, u01, u10, u11), per angle."""
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    k00, k01, k10, k11 = _MINUS_I_GENERATOR[kind]
    if k00:  # a Pauli is diagonal or off-diagonal: skip the zero products
        return c + k00 * s, 0.0, 0.0, c + k11 * s
    return c, k01 * s, k10 * s, c


def _rotate(u, ket):
    """Apply the 2x2 matrix with entries (u00, u01, u10, u11) to the 2-vectors ket[..., :2]."""
    u00, u01, u10, u11 = u
    a, b = ket[..., 0], ket[..., 1]
    return np.stack([u00 * a + u01 * b, u10 * a + u11 * b], axis=-1)


def _qubit_kets(angles: np.ndarray) -> list:
    """Each qubit's ket after each of its four rotations: four (B, Q, 2) arrays."""
    kets = [np.array([1.0, 0.0], dtype=np.complex128)]
    for j, kind in enumerate(_ANGLE_ORDER):
        kets.append(_rotate(_rotation(kind, angles[..., j]), kets[-1]))
    return kets[1:]


def _product(kets: np.ndarray) -> np.ndarray:
    """(B, k, 2) per-qubit kets -> (B, 2**k) product state, qubit 0 least significant."""
    out = np.ones((kets.shape[0], 1), dtype=np.complex128)
    for q in range(kets.shape[1]):
        out = (kets[:, q, :, None] * out[:, None, :]).reshape(kets.shape[0], -1)
    return out


def _angle_vjp(angles: np.ndarray, kets: list, bra: np.ndarray) -> np.ndarray:
    """Chain the complex state cotangent ``bra`` = dE/d(conj(amplitudes)) back to the (B, Q, 4) angles.

    dE/dx_(q,j) = 2 Re<env_q, d phi_q/d x_(q,j)>, where env_q is ``bra`` contracted
    with every other qubit's ket; env_q walks back through qubit q's rotations
    as the adjoint sweep walks the bra.
    """
    rows = angles.shape[0]
    phi = kets[-1]
    env = np.empty_like(phi)
    for q in range(phi.shape[1]):
        high, low = _product(phi[:, q + 1 :]).conj(), _product(phi[:, :q]).conj()
        env[:, q] = np.einsum("bhsl,bh,bl->bs", bra.reshape(rows, -1, 2, 1 << q), high, low)
    grad = np.empty(angles.shape)
    for j, kind in reversed(list(enumerate(_ANGLE_ORDER))):
        # 2 Re<env, -i/2 P ket> = Im<env, P ket> for R(a) = exp(-i a P / 2)
        grad[..., j] = np.einsum("bqs,bqs->bq", env.conj(), _rotate(GENERATORS[kind].ravel(), kets[j])).imag
        env = _rotate(_rotation(kind, -angles[..., j]), env)
    return grad.reshape(rows, -1)


def _angle_jvp(angles: np.ndarray, kets: list, tangent: np.ndarray) -> np.ndarray:
    """d(product state)/d(angles) along the real ``tangent``, complex (B, 2**Q): each qubit's ket
    derivative by the product rule over its rotations, summed over which ket is differentiated."""
    steps = tangent.reshape(angles.shape)
    dket = np.zeros_like(kets[0])
    for j, kind in enumerate(_ANGLE_ORDER):
        generated = _rotate(GENERATORS[kind].ravel(), kets[j])  # P R(a)|.>, R(a) = exp(-i a P / 2)
        dket = _rotate(_rotation(kind, angles[..., j]), dket) - 0.5j * steps[..., j, None] * generated
    phi, qubits = kets[-1], np.arange(angles.shape[1])[:, None]
    return sum(_product(np.where(qubits == q, dket, phi)) for q in qubits[:, 0])
