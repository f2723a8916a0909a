"""Quantum model family: encoding + parametrized circuit + readout + upsample.

A model maps an iterate z and input x to S <M_k>, the readouts M_k = Z_k on each
of the K = Q qubits of the state U(theta)|encode(z + x)> taken back to the input
width by the upsample matrix S (n, K). The model derives its readouts
(``ensemble``) from the circuit and S (``upsample``) from K and n alone, so K
must divide n. Forward and reverse passes work on (B, n) batches of samples
only; a single sample is a one-row batch. Every pass reads what ``_compiled``
builds once per theta: the circuit's program (``simcore.resolve_circuit``: one
16 x 16 matrix per run of gates on 4 adjacent qubits, 4 runs for the 10-qubit
staircase and 1 at Q=4, with the products the sweep needs), and the K readout
forms from that program run on the d = ``EncodingSpec.width`` basis rows of the
encoded states, never on the B rows, and only in their light cone
(``simcore.apply_cone``). The theta-gradient is one adjoint sweep of the same
program over the kets of the same d rows, which builds no run matrix and runs no
forward pass of its own. Each readout form and bra term reads the narrowest kets
that its observable commutes past (``simcore.cone_widths``). The Broyden solve
reads ``readout_map``, which encodes no amplitude row. The solvers encode each
layer input S e + x once through ``encoder(x)`` and read it through
``readouts``, ``pullback_z``, ``pullback_theta`` and ``jacobian_factors``; angle
rows fill the basis, so all four read them through V alone (one (B, d) @ (d, d)
product for all K readouts) and build no forms. ``forward_batch`` and
``backward_batch`` compose these for the benchmark's gradient gate. Each Z_k is
diagonal, so the readout forms and the sweep's bra depend on a basis column only
through its diagonal entries: both are built once per class of equal columns
(``ObservableEnsemble.classes``, groups of up to 5 qubits), one batched matmul
per group, not one product per observable.

Circuit builders follow the 4-qubit block (seeded random layer, then a
trainable RY wall, RZ wall, CNOT ring, RY wall) and its 10-qubit staircase
extension (4-qubit blocks at qubit offsets 0, 2, 4, 6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoding as enc
from .errors import DegenerateInputError, DimensionError
from .measurement import ObservableEnsemble, UpsampleMap
from .seeding import child_seed, substream
from .simcore import (
    CNOT,
    RY,
    RZ,
    GateOp,
    ParamCircuit,
    adjoint_sweep,
    apply_cone,
    cone_widths,
    random_layer,
    resolve_circuit,
)


@dataclass
class QuantumModel:
    encoding: enc.EncodingSpec
    circuit: ParamCircuit
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if self.encoding.num_qubits != self.circuit.num_qubits:
            raise DimensionError("encoding and circuit disagree on qubit count")
        if self.theta.shape[0] != self.circuit.num_params:
            raise DimensionError(
                f"theta has {self.theta.shape[0]} entries, circuit expects {self.circuit.num_params}"
            )
        self.ensemble = ObservableEnsemble(self.circuit.num_qubits)
        self.upsample = UpsampleMap(self.ensemble.size, self.encoding.input_dim)  # K must divide n
        self._compiled_at = None  # (theta copy, program, V, H, A, kets, widths) of ``_compiled``; angle: H = A = None

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

    # -- forward -----------------------------------------------------------

    def encode(self, Z: np.ndarray, X: np.ndarray):
        """(psi, vjp, jvp) of the layer inputs z + x (``encoding.encode``), which ``readouts``
        and the pullbacks read, so a caller that keeps them encodes each input once."""
        return enc.encode(self.encoding, enc.inject(Z, X))

    def encoder(self, X: np.ndarray):
        """e -> ``encode(e @ S.T, X)`` on (B, K) readouts e (``encoding.encoder``), bit for bit for amplitude
        rows; angle rows take the trig of X once here and of e per call."""
        return enc.encoder(self.encoding, X, self.upsample)

    def readouts(self, psi: np.ndarray) -> np.ndarray:
        """(B, K) readouts <M_k> of the encoded rows psi (``_compiled``): |psi_b V|^2 . m_k for angle rows,
        one product for every k; psi_b H_k psi_b^T for amplitude rows, as their real H_k cost less at Q=10."""
        if self.encoding.kind == enc.ANGLE:  # the squared parts of psi V, each part read by its column's m
            a = (psi @ self._compiled()[1]).view(np.float64)
            return np.square(a) @ np.repeat(self.ensemble.diagonals().T, 2, axis=0)
        PH = (psi @ self._compiled()[2]).reshape(len(psi), self.ensemble.size, -1)
        return np.einsum("bkd,bd->bk", PH, psi.conj()).real

    def forward_batch(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(B, n) layer outputs S <M_k> at z + x. No solver calls it: it is the forward pass that
        the benchmark's gradient gate (``benchmarks/gate.py``) differences."""
        return self.readouts(self.encode(Z, X)[0]) @ self.upsample.matrix.T

    def readout_map(self, X: np.ndarray):
        """(values, jacobian) at the rows of X: e -> E(S e + x) on (B, K) iterates e, and e -> (dE/de
        (B, K, K), the ``encode`` of S e + x). Angle rows run ``encoder(X)``, ``readouts`` and
        ``jacobian_factors`` @ S. Amplitude rows encode nothing: with x = S c + p, S^T p = 0, w = e + c
        and u = S w + p, E_k = (w^T A_k w + 2 w.b_k + a_k) / (|w|^2 + |p|^2) and dE_k/de =
        2 (S^T H_k u - E_k w) / |u|^2; A_k = S^T H_k S comes from ``_compiled``, b_k = S^T H_k p and
        a_k = p^T H_k p from one product per batch. The forms are stored batch-last: c, w and a as
        (K, B), 2 b_k as (K, K, B), so each evaluation is one product of the A_k stacked (K*K, K) with
        w and contractions along the batch axis. The closures still take (B, K) iterates and return
        (B, K) values and (B, K, K) Jacobians, as transposed views. Rows with |u| <= the encoder's
        threshold raise DegenerateInputError naming them."""
        X, S = np.asarray(X, dtype=np.float64), self.upsample.matrix
        encoded = self.encoder(X)
        if self.encoding.kind != enc.AMPLITUDE:
            factors = lambda rows: (self.jacobian_factors(*rows[:2]) @ S, rows)
            return lambda E: self.readouts(encoded(E)[0]), lambda E: factors(encoded(E))
        H, SHS = self._compiled()[2], self._compiled_at[4]
        c = S.T @ X.T
        p = X - c.T @ S.T
        pH = (p @ H).reshape(len(X), len(S.T), -1)  # rows p H_k
        b2 = 2.0 * np.ascontiguousarray((pH @ S).transpose(1, 2, 0))  # 2 b_k
        a, pp = np.einsum("bkd,bd->kb", pH, p), np.einsum("bd,bd->b", p, p)

        def forms(E):  # (w, |u|^2, A_k w, E), batch-last
            w = E.T + c
            uu = np.einsum("kb,kb->b", w, w) + pp
            bad = np.flatnonzero(np.sqrt(uu) <= enc._DEGENERATE_NORM)
            if bad.size:
                raise DegenerateInputError(f"cannot amplitude-encode (near-)zero rows {bad.tolist()}", rows=bad)
            Aw = (SHS.T @ w).reshape(b2.shape)
            return w, uu, Aw, (np.einsum("kjb,jb->kb", Aw + b2, w) + a) / uu

        def jacobian(E):  # S^T H_k u = A_k w + b_k
            w, uu, Aw, values = forms(E)
            return (2.0 * (Aw + 0.5 * b2 - values[:, None] * w) / uu).transpose(2, 0, 1), encoded(E)

        return lambda E: forms(E)[3].T, jacobian

    # -- reverse -----------------------------------------------------------

    def _compiled(self):
        """(ops, V, H) at theta, rebuilt when theta's values change; ops is the program of
        ``simcore.resolve_circuit``, which the sweep reuses. H is None for angle rows, which read V alone.

        V is U(theta) on the d basis rows that encoded states occupy (the encoding's ``width``: n
        for amplitude, 2**Q for angle encoding) at the columns they reach, so a row psi ends as
        psi @ V: the last of the kets that ``simcore.apply_cone`` keeps per stretch of the rows'
        light cone, (100, 128), (100, 256) and V (100, 1024) at Q=10, V alone at Q=4 or for angle
        rows. For amplitude rows, H (d, K*d) stacks the real H_k = Re K_s diag(m_k) K_s^dagger:
        <M_k> = psi H_k psi^T, K_s the narrowest kets that M_k commutes past (128 columns for
        Z0-Z3 at Q=10, 256 for Z4-Z5). H_k = sum_c m_k[c] G_c over ``ObservableEnsemble.classes``
        at those widths, one batched Gram G_c = K_c K_c^T per group of observables on the real
        view K_c of its classes' columns; the cache also holds [A_1 ... A_K] (K, K*K),
        A_k = S^T H_k S, for ``readout_map``. Values key the cache, because the optimizer and
        checkpoint loads write theta in place.
        """
        if self._compiled_at is None or not np.array_equal(self._compiled_at[0], self.theta):
            ops = resolve_circuit(self.circuit, self.theta)
            d, K, S = self.encoding.width, self.ensemble.size, self.upsample.matrix
            kets = apply_cone(ops, np.eye(d, dtype=np.complex128))
            widths = cone_widths(ops, kets, self.num_qubits)
            H = SHS = None  # angle rows read V alone
            if self.encoding.kind == enc.AMPLITUDE:
                at, H = {ket.shape[1]: ket for ket in kets}, np.empty((K, d, d))
                for obs, signs, cols, slots in self.ensemble.classes(widths):
                    Kc = np.take(at[len(slots)], cols, axis=1).view(np.float64).transpose(1, 0, 2)  # real view
                    H[obs] = _combine(signs, Kc @ Kc.conj().transpose(0, 2, 1))
                H = H.transpose(1, 0, 2).reshape(d, -1)
                SHS = ((S.T @ H).reshape(K, K, d) @ S).reshape(K, -1)
            self._compiled_at = (self.theta.copy(), ops, kets[-1], H, SHS, kets, widths)
        return self._compiled_at[1:4]

    def backward_batch(self, Z, X, cotangents, need_z: bool = True, need_theta: bool = True, tangents=None):
        """(dZ, dtheta) for sum_b cotangent_b . forward(z_b, x_b): ``encode``, then ``pullback_z``
        and ``pullback_theta`` on the encoded rows; ``tangents`` as in ``pullback_theta``. No
        solver calls it: it is what the benchmark's gradient gate (``benchmarks/gate.py``) checks."""
        psi, encode_vjp, encode_jvp = self.encode(Z, X)
        dZ = self.pullback_z(psi, encode_vjp, cotangents) if need_z else None
        dtheta = self.pullback_theta(psi, cotangents, encode_jvp, tangents) if need_theta else None
        return dZ, dtheta

    def pullback_z(self, psi, encode_vjp, cotangents) -> np.ndarray:
        """dZ (B, n) for sum_b cotangent_b . forward at the encoded rows psi: with chat = c S,
        the encoder vjp of sum_k chat_bk psi_b H_k, with V and H from ``_compiled``. For angle rows
        that is (psi_b V * (chat_b @ m)) V^dagger, m the (K, d) diagonals, as in ``readouts``."""
        chat = np.atleast_2d(cotangents) @ self.upsample.matrix
        if self.encoding.kind == enc.ANGLE:
            V = self._compiled()[1]
            return encode_vjp(((psi @ V) * (chat @ self.ensemble.diagonals())) @ V.conj().T)
        PH = (psi @ self._compiled()[2]).reshape(chat.shape + (-1,))
        parts = PH.view(np.float64)  # real chat times PH's parts, with no cast of chat; real PH as it is
        return encode_vjp(np.einsum("bk,bkr->br", chat, parts).view(PH.dtype))

    def pullback_theta(self, psi, cotangents, encode_jvp=None, tangents=None) -> np.ndarray:
        """dtheta for sum_b cotangent_b . forward at the encoded rows psi, summed over the rows.

        Scale cotangents by 1/B upstream for a batch mean. The objective is sum_k tr(H_k^T R_k)
        with R_k = sum_b chat_bk psi_b^T conj(psi_b), chat = c S, so one adjoint sweep over the
        kets of the d rows (``_compiled``) gives it whatever B is. Its bra term at the kets K_s
        of a stretch is sum_k (R_k^T K_s) * m_k over the observables that read them; column j is
        M_c K_s[:, j], M_c = sum_k m_k[c] R_k^T, for the class c of j in each group of
        ``ObservableEnsemble.classes``: one batched M_c @ K_c per group.
        ``tangents`` T (B, K, n) add the theta-gradient of sum_bk <D_bk, T_bk> (D of
        ``jacobian_factors``, T fixed): as <vjp(bra), t> = 2 Re<bra, jvp(t)>, that adds
        psi_b^H Phi_bk + Phi_bk^H psi_b, Phi_bk = encode_jvp(T_bk), to R_k^T first.
        Angle rows read V alone: bra psi^H ((psi V) * (chat @ m)) (+ psi^H sum_k (Phi_k V) * m_k +
        sum_k Phi_k^H ((psi V) * m_k)), m the (K, d) diagonals.
        """
        ops, V, _ = self._compiled()
        kets, widths = self._compiled_at[5:]
        chat = np.atleast_2d(cotangents) @ self.upsample.matrix
        rows, d = psi.conj().T, len(V)
        if self.encoding.kind == enc.ANGLE:
            m, a, bra = self.ensemble.diagonals(), psi @ V, 0.0
            left = a * (chat @ m)
            if tangents is not None:
                Phi = np.stack([encode_jvp(tangents[:, k]) for k in range(len(m))])  # (K, B, d)
                left += np.einsum("kbd,kd->bd", Phi @ V, m)
                bra = Phi.conj().reshape(-1, d).T @ (a * m[:, None]).reshape(-1, d)
            return adjoint_sweep(ops, kets, [rows @ left + bra], num_params=self.num_params, return_bra=False)[0]
        R = np.empty((len(chat.T), d, d))  # R_k^T, real for amplitude rows
        for k, c in enumerate(chat.T):
            np.matmul(rows, c[:, None] * psi, out=R[k])
            if tangents is not None:
                Y = rows @ encode_jvp(tangents[:, k])
                R[k] += Y + Y.conj().T
        terms = [None] * len(kets)  # a real R_k^T multiplies the kets' real view
        stretch = {ket.shape[1]: s for s, ket in enumerate(kets)}
        for obs, signs, cols, slots in self.ensemble.classes(widths):
            s = stretch[len(slots)]
            out = np.empty((d, cols.size), dtype=np.complex128)  # term columns in class order
            np.matmul(_combine(signs.T, R[obs]),  # M_c (C, d, d)
                      np.take(kets[s], cols, axis=1).view(np.float64).transpose(1, 0, 2),  # K_c (C, d, 2s)
                      out=out.reshape(d, *cols.shape).view(np.float64).transpose(1, 0, 2))
            term = np.take(out, slots, axis=1)  # to basis order
            terms[s] = term if terms[s] is None else terms[s] + term
        return adjoint_sweep(ops, kets, terms, num_params=self.num_params, return_bra=False)[0]

    def jacobian_factors(self, psi: np.ndarray, encode_vjp) -> np.ndarray:
        """D (B, K, n) with d forward(z_b, x_b) / d z_b = S @ D[b], of rank K, at the encoded rows psi.

        S is the (n, K) upsample matrix ``UpsampleMap.matrix``, so D[b] @ S is the K x K Jacobian
        of the readouts e -> E(S e + x_b). Row k of D[b] is readout k's input cotangent
        psi_b H_k chained through the encoder vjp, or ((psi_b V) * m_k) V^dagger for angle rows.
        """
        _, V, H = self._compiled()
        PH = (((psi @ V)[:, None] * self.ensemble.diagonals()) @ V.conj().T
              if self.encoding.kind == enc.ANGLE else (psi @ H).reshape(len(psi), self.ensemble.size, -1))
        return np.stack([encode_vjp(PH[:, k]) for k in range(self.ensemble.size)], axis=1)


def _combine(weights, X):
    """sum_c weights[i, c] X[c] for real weights (I, C) and a real or complex stack X (C, d, d)."""
    flat = X.reshape(len(X), -1).view(np.float64)  # a real product on the complex entries' parts
    return (weights @ flat).view(X.dtype).reshape(len(weights), *X.shape[1:])


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
        block, init = build_block(child_seed(seed, "block", b), 4, random_ops_per_block)
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
    )
