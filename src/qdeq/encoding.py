"""Classical-to-quantum encodings and the fixed-point input injection.

``encode`` is the one batch encoder: it encodes each row once and returns the
amplitudes it occupies with their vjp and jvp, so the simulator runs only the
trainable circuit; ``encoder`` encodes the rows S e + x that a solve meets for
one batch x. Amplitude encoding normalizes the (zero-padded) vector straight
into the amplitudes. Angle encoding rotates each qubit's |0> by Y, Z, X, Y
angles and builds the product state from the per-qubit 2-vectors, one closed
form in the cos and sin of the half-angles; the derivative kets, one product of
their 16 monomials with a constant, are built on the first vjp or jvp call of
an encode and shared by every later one. Injection adds the original input to
the current iterate; the encoder normalizes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .simcore import RX, RY, RZ, GateOp, StateVector

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
        return _qubit_kets(_half_angle_trig(X, spec.num_qubits))
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms <= _DEGENERATE_NORM)
    if bad.size:
        raise DegenerateInputError(f"cannot amplitude-encode (near-)zero rows {bad.tolist()}", rows=bad)
    unit = X / norms[:, None]

    def jvp(tangent):  # (I - phi phi^T) t / |x| per row
        return (tangent - unit * np.einsum("bi,bi->b", tangent, unit)[:, None]) / norms[:, None]

    # the vjp is the jvp of w = 2 Re(bra) on the n occupied entries, as the Jacobian is symmetric
    return unit, lambda bra: jvp(2.0 * bra.real[:, : spec.input_dim]), jvp


def encoder(spec: EncodingSpec, X: np.ndarray, upsample):
    """e -> ``encode`` of the rows S e + x, for (B, K) readouts e, S = ``upsample.matrix`` (n, K).

    Amplitude rows add e S^T + x as ``inject`` does. Angle rows take cos and sin of x/2 once, here, and
    per call those of (scale/2) e, added by cos(a + b) = cos a cos b - sin a sin b and sin(a + b) =
    sin a cos b + cos a sin b; readout k covers the r = n/K angles from r k on, so its trig, repeated to
    cover g = gcd(r, 4) angles of a qubit each (none at r = 4), broadcasts over them. An all-zero e
    reads x's cos and sin as they are, as ``encode`` of x does."""
    X = np.asarray(X, dtype=np.float64)
    if spec.kind == AMPLITUDE:
        return lambda E: encode(spec, inject(E @ upsample.matrix.T, X))
    if X.shape[1:] != (spec.input_dim,):
        raise DimensionError(f"{spec.kind} encoding takes (B, {spec.input_dim}) rows, got {X.shape}")
    c, s = _half_angle_trig(X, spec.num_qubits)
    g = np.gcd(upsample.repeat, 4)
    split = (4 // g, g) + c.shape[1:]  # angle j = g j' + t of qubit q reads value (q, j')

    def encode_at(E):
        if not E.any():
            return _qubit_kets((c, s))
        half = (0.5 * upsample.scale) * np.repeat(E, upsample.repeat // g, axis=1)
        half = half.reshape(split[2], -1, split[0]).transpose(2, 0, 1)[:, None]
        ce, se, cx, sx = np.cos(half), np.sin(half), c.reshape(split), s.reshape(split)
        return _qubit_kets(((cx * ce - sx * se).reshape(c.shape), (sx * ce + cx * se).reshape(c.shape)))

    return encode_at


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


def _ket(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R_Y(a_3) R_X(a_2) R_Z(a_1) R_Y(a_0)|0> as complex (..., 2), from the cosines c and
    sines s (4, ...) of the half-angles a_j / 2.

    The closed form applies the four rotations in turn on real and imaginary parts,
    rounding as the 2 x 2 matrix products would.
    """
    c0, c1, c2, c3 = c
    s0, s1, s2, s3 = s
    # R_Z(a_1) R_Y(a_0)|0> = (c0 (c1 - i s1), s0 (c1 + i s1)) = (u, v)
    ur, ui, vr, vi = c0 * c1, -(c0 * s1), s0 * c1, s0 * s1
    # R_X(a_2): (w, y) = (c2 u - i s2 v, c2 v - i s2 u)
    wr, wi, yr, yi = c2 * ur + s2 * vi, c2 * ui - s2 * vr, c2 * vr + s2 * ui, c2 * vi - s2 * ur
    # R_Y(a_3): (c3 w - s3 y, s3 w + c3 y)
    ket = np.empty(c.shape[1:] + (2,), dtype=np.complex128)
    ket.real[..., 0], ket.imag[..., 0] = c3 * wr - s3 * yr, c3 * wi - s3 * yi
    ket.real[..., 1], ket.imag[..., 1] = s3 * wr + c3 * yr, s3 * wi + c3 * yi
    return ket


def _half_angle_trig(X: np.ndarray, num_qubits: int):
    """cos and sin (4, B, Q) of the (B, 4 Q) rows' half-angles, each angle's values contiguous."""
    half = np.ascontiguousarray(np.moveaxis(0.5 * X.reshape(len(X), num_qubits, 4), -1, 0))
    return np.cos(half), np.sin(half)


def _qubit_kets(trig):
    """(psi, vjp, jvp) of the angle rows whose half-angles have the cosines and sines trig (4, B, Q),
    from each qubit's ket (B, Q, 2). vjp and jvp share (dkets, highs), built on first call: dkets[:, q, j]
    (B, 2) is d phi_q / d a_(q,j), the 16 monomials prod_j (c_j or s_j) (bit j of the index picks s_j)
    times ``_derivative_table``, and highs[q] (B, 2**(Q-1-q)) the product state of the qubits above q."""
    c, s = trig
    kets = _ket(c, s)

    @cache
    def derivatives():
        pairs = np.stack([c, s], axis=1)  # (4, 2, B, Q)
        monomials = pairs[0] * pairs[1][:, None] * pairs[2][:, None, None] * pairs[3][:, None, None, None]
        dkets = (monomials.reshape(16, -1).T @ _derivative_table()).view(np.complex128)
        dkets = dkets.reshape(kets.shape[:2] + (4, 2))
        top = np.ones((len(kets), 1), dtype=np.complex128)
        return dkets, [_product(kets[:, q + 1 :]) for q in range(kets.shape[1] - 1)] + [top]

    return _product(kets), partial(_angle_vjp, kets, derivatives), partial(_angle_jvp, kets, derivatives)


@cache
def _derivative_table() -> np.ndarray:
    """(16, 16) real, read-only: monomial m's coefficients in the derivative kets, as (angle j, amplitude,
    real and imaginary part). A ket is multilinear in its pairs (c_j, s_j), so its coefficient of m is
    ``_ket`` at c = 1 - bits, s = bits of m (angles 0 and pi); dR(a)/da = R(a + pi)/2 takes (c_j, s_j)
    to (-s_j, c_j)/2, so derivative j's is half the ket's at m with bit j flipped, negated if it is set."""
    m = np.arange(16)
    bits = (m >> np.arange(4)[:, None]) & 1
    corners = _ket(1.0 - bits, bits.astype(np.float64))  # (16, 2)
    table = np.stack([(0.5 - bits[j])[:, None] * corners[m ^ (1 << j)] for j in range(4)], 1).view(np.float64)
    table.setflags(write=False)
    return table.reshape(16, 16)


def _kron(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (B, h) and (B, l), ``low`` the less significant factor."""
    return (high[:, :, None] * low[:, None, :]).reshape(len(high), -1)


def _product(kets: np.ndarray) -> np.ndarray:
    """(B, k, 2) per-qubit kets -> (B, 2**k) product state, qubit 0 least significant: built
    batch-last, so every product runs along the batch, and returned as the transposed view."""
    kets = np.ascontiguousarray(kets.transpose(1, 2, 0))
    out = kets[0]
    for ket in kets[1:]:
        out = (ket[:, None] * out).reshape(2 * len(out), -1)
    return out.T


def _angle_vjp(kets: np.ndarray, derivatives, bra: np.ndarray) -> np.ndarray:
    """Chain the complex state cotangent ``bra`` = dE/d(conj(amplitudes)) back to the (B, Q, 4) angles.

    dE/dx_(q,j) = 2 Re<env_q, d phi_q/d x_(q,j)>, where env_q is ``bra`` contracted with
    every other qubit's ket: with the qubits below q one at a time as q rises (a prefix),
    then with highs[q] (a suffix). The sweep carries conj(bra), so it contracts with the
    kets as they are and ends with conj(env_q).
    """
    dkets, highs = derivatives()
    rows, qubits = kets.shape[:2]
    rest, env = bra.conj(), np.empty_like(kets)  # rest: conj(bra) with the qubits below q contracted
    for q in range(qubits - 1):
        rest = rest.reshape(rows, -1, 2)
        env[:, q] = (highs[q][:, None, :] @ rest)[:, 0]
        rest = (rest @ kets[:, q, :, None])[..., 0]
    env[:, -1] = rest  # no qubit above the top one
    return 2.0 * np.einsum("bqs,bqjs->bqj", env, dkets).real.reshape(rows, -1)


def _angle_jvp(kets: np.ndarray, derivatives, tangent: np.ndarray) -> np.ndarray:
    """d(product state)/d(angles) along the real ``tangent``, complex (B, 2**Q): sum_q
    high_q (x) d phi_q (x) low_q with d phi_q = sum_j t_(q,j) d phi_q/d a_(q,j), accumulated
    from the top qubit down by the product rule d(high (x) phi) = d high (x) phi + high (x) d phi."""
    dkets, highs = derivatives()
    rows, qubits = kets.shape[:2]
    parts = dkets.view(np.float64).reshape(rows, qubits, 4, 4)  # a real product on the complex parts
    dphi = np.einsum("bqj,bqjr->bqr", tangent.reshape(rows, qubits, 4), parts).view(np.complex128)
    out = dphi[:, -1]
    for q in range(qubits - 2, -1, -1):
        out = _kron(out, kets[:, q]) + _kron(highs[q], dphi[:, q])
    return out
