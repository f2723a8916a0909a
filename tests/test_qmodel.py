"""Model assembly: forward chain, reverse passes, circuit builders."""
import dataclasses

import numpy as np
import pytest

from qdeq import deqsolve, qmodel
from qdeq import encoding as enc
from qdeq.encoding import EncodingSpec, amplitude_encode, angle_encode
from qdeq.errors import DimensionError
from qdeq.measurement import BASIS_PROJECTOR, PAULI_Z, ObservableEnsemble, UpsampleMap
from qdeq.qmodel import (
    QuantumModel,
    build_block,
    build_default_model,
    build_staircase10,
)
from qdeq.seeding import child_seed
from qdeq.simcore import (
    CNOT,
    RX,
    RY,
    GateOp,
    ParamCircuit,
    adjoint_sweep,
    apply_circuit,
    apply_ops,
    random_layer,
    resolve_circuit,
)
from qdeq.training import TrainConfig, build_from_config, load_checkpoint, save_checkpoint

import oracle
from test_simcore import _full_width_sweep


def _identity_model():
    return QuantumModel(
        encoding=EncodingSpec("amplitude", 2, 4),
        circuit=ParamCircuit(2, (), 0),
        theta=np.zeros(0),
        ensemble=ObservableEnsemble.pauli_z_all(2),
    )


class TestForward:
    def test_identity_circuit_hand_chain(self):
        model = _identity_model()
        x = np.array([1.0, 0.0, 0.0, 0.0])
        out = model.forward_batch(np.zeros((1, 4)), x[None])[0]
        # encode |00>, expectations (1, 1), repeat twice each with scale 1/sqrt(2)
        assert np.allclose(out, np.full(4, 1 / np.sqrt(2)), atol=1e-12)

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_brute_force_equivalence(self, encoding):
        rng = np.random.default_rng(0)
        num_qubits = 3 if encoding == "amplitude" else 2
        n = 6 if encoding == "amplitude" else 8  # amplitude: 6 of 8 amplitudes; angle: 4 * 2 qubits
        model = build_default_model(encoding, num_qubits, n, seed=9, random_ops=10)
        for _ in range(5):
            z = rng.normal(size=n) * 0.2
            x = rng.uniform(0.1, 1.0, size=n)
            fast = model.forward_batch(z[None], x[None])[0]
            # dense oracle: encoded state, full unitary, diagonal expectations
            psi = oracle.dense_circuit(model.circuit, model.theta) @ _oracle_state(model, z + x)
            expectations = oracle.pauli_z_diagonals(num_qubits) @ np.abs(psi) ** 2
            r = model.upsample.repeat
            expected = model.upsample.scale * np.repeat(expectations, r)
            assert np.abs(fast - expected).max() < 1e-10

    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_expectations_match_single_state_reference(self, encoding, num_qubits, input_dim):
        # row by row: encode one state, run the circuit on it, read the ensemble; the dense oracle
        # at Q=4, the library's single-state route at Q=10, where the oracle's 264 gates of
        # 1024 x 1024 would take seconds
        rng = np.random.default_rng(11)
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        X = rng.uniform(0.1, 1.0, size=(32, input_dim))
        Z = 0.1 * rng.normal(size=X.shape)
        got = model.readouts(model.encode(Z, X)[0])
        assert got.shape == (32, num_qubits)
        diags = oracle.pauli_z_diagonals(num_qubits)
        for row, v in zip(got, Z + X):
            if num_qubits == 10:
                psi = apply_circuit(model.circuit, model.theta, amplitude_encode(v, num_qubits)).amplitudes
                reference = diags @ np.abs(psi) ** 2
            else:
                reference = oracle.expectations(model.circuit, model.theta, _oracle_state(model, v), diags)
            assert np.abs(row - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_output_norm_bound(self):
        # with isometric upsampling and Pauli-Z readout, ||f|| <= sqrt(K)
        rng = np.random.default_rng(1)
        model = build_default_model("amplitude", 4, 16, seed=2)
        for _ in range(20):
            z = rng.normal(size=16)
            x = rng.uniform(0.1, 1.0, size=16)
            assert np.linalg.norm(model.forward_batch(z[None], x[None])) <= np.sqrt(4) + 1e-9


class TestReversePasses:
    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_vjp_matches_finite_differences(self, encoding):
        rng = np.random.default_rng(2)
        model = build_default_model(encoding, 4, 16, seed=3, random_ops=12)
        z = rng.normal(size=16) * 0.3
        x = rng.uniform(0.1, 1.0, size=16)
        cot = rng.normal(size=16)
        vjp = model.backward_batch(z[None], x[None], cot[None], need_theta=False)[0][0]
        eps = 1e-5
        for j in range(16):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            diff = model.forward_batch(zp[None], x[None])[0] - model.forward_batch(zm[None], x[None])[0]
            fd = cot @ diff / (2 * eps)
            assert abs(vjp[j] - fd) < 1e-5

    def test_vjp_linear_in_cotangent(self):
        rng = np.random.default_rng(3)
        model = build_default_model("amplitude", 3, 6, seed=4, random_ops=8)
        z = rng.normal(size=6) * 0.2
        x = rng.uniform(0.1, 1.0, size=6)
        cot = rng.normal(size=6)
        scaled, _ = model.backward_batch(z[None], x[None], 2.5 * cot[None], need_theta=False)
        unit, _ = model.backward_batch(z[None], x[None], cot[None], need_theta=False)
        assert np.allclose(scaled, 2.5 * unit, atol=1e-12)

    def test_vjp_zero_cotangent(self):
        model = build_default_model("amplitude", 2, 4, seed=5, random_ops=4)
        out, _ = model.backward_batch(np.zeros((1, 4)), np.array([[1.0, 0, 0, 0]]), np.zeros((1, 4)))
        assert np.array_equal(out, np.zeros((1, 4)))

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_wrong_input_width_rejected(self, encoding):
        # an amplitude model must not read (3, 8) rows as the first 8 of its 16 amplitudes
        model = build_default_model(encoding, 4, 16, seed=3)
        Z = X = np.full((3, 8), 0.5)

        def backward(Z, X):
            return model.backward_batch(Z, X, np.ones((3, 16)))

        for call in (model.forward_batch, model.encode, backward):
            with pytest.raises(DimensionError):
                call(Z, X)

    def test_grad_theta_empty_circuit(self):
        model = _identity_model()
        _, grad = model.backward_batch(np.zeros((1, 4)), np.array([[1.0, 0, 0, 0]]), np.ones((1, 4)))
        assert grad.shape == (0,)

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_grad_theta_matches_parameter_shift(self, encoding):
        rng = np.random.default_rng(4)
        model = build_default_model(encoding, 4, 16, seed=6, random_ops=10)
        z = rng.normal(size=16) * 0.3
        x = rng.uniform(0.1, 1.0, size=16)
        cot = rng.normal(size=16)
        _, grad = model.backward_batch(z[None], x[None], cot[None], need_z=False)
        # shift rule applies to the circuit expectations; chain upsample by hand
        input_state = _oracle_state(model, z + x)
        diags = oracle.pauli_z_diagonals(model.num_qubits)
        chat = cot @ model.upsample.matrix
        for slot in range(model.num_params):
            shift = oracle.parameter_shift(model.circuit, model.theta, input_state, diags, slot)
            assert abs(grad[slot] - chat @ shift) < 1e-6

    def test_grad_theta_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = build_default_model("amplitude", 3, 6, seed=7, random_ops=8)
        z = rng.normal(size=6) * 0.2
        x = rng.uniform(0.1, 1.0, size=6)
        cot = rng.normal(size=6)
        _, grad = model.backward_batch(z[None], x[None], cot[None], need_z=False)
        eps = 1e-5
        for j in range(model.num_params):
            up = dataclasses.replace(model)
            model.theta[j] += eps
            f_plus = cot @ model.forward_batch(z[None], x[None])[0]
            model.theta[j] -= 2 * eps
            f_minus = cot @ model.forward_batch(z[None], x[None])[0]
            model.theta[j] += eps
            assert abs(grad[j] - (f_plus - f_minus) / (2 * eps)) < 1e-5

    def test_batched_matches_single(self):
        rng = np.random.default_rng(6)
        model = build_default_model("amplitude", 4, 16, seed=8, random_ops=10)
        Z = rng.normal(size=(5, 16)) * 0.2
        X = rng.uniform(0.1, 1.0, size=(5, 16))
        C = rng.normal(size=(5, 16))
        batched, summed_theta = model.backward_batch(Z, X, C)
        single_theta = np.zeros(model.num_params)
        for i in range(5):
            dz, dtheta = model.backward_batch(Z[i : i + 1], X[i : i + 1], C[i : i + 1])
            assert np.abs(batched[i] - dz[0]).max() < 1e-12
            single_theta += dtheta
        assert np.abs(summed_theta - single_theta).max() < 1e-10


class TestJacobianFactors:
    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_factors_reproduce_the_vjp(self, encoding, num_qubits, input_dim):
        # J_b = S D_b, so J_b^T c = D_b^T S^T c must be the backward pass's dZ
        rng = np.random.default_rng(14)
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        X = rng.uniform(0.1, 1.0, size=(3, input_dim))
        Z = 0.1 * rng.normal(size=X.shape)
        C = rng.normal(size=X.shape)
        S, D = model.upsample.matrix, model.jacobian_factors(*model.encode(Z, X)[:2])
        assert D.shape == (3, num_qubits, input_dim)
        vjp = model.backward_batch(Z, X, C, need_theta=False)[0]
        assert np.abs(np.einsum("bkn,bk->bn", D, C @ S) - vjp).max() <= 1e-12 * np.abs(vjp).max()


def _map_inputs(num_qubits, input_dim, seed):
    """(E, X): 8 iterates and inputs; rows 1 and 4 scaled by 1e-6, rows 2 and 5 by 1e3 (both E and x)."""
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 1e-6, 1e3, 1.0, 1e-6, 1e3, 1.0, 1.0])[:, None]
    return scale * 0.3 * rng.normal(size=(8, num_qubits)), scale * rng.uniform(0.0, 1.0, size=(8, input_dim))


def _row_rel(got, expected):
    """The largest per-row relative gap, each row against its own largest entry."""
    axes = tuple(range(1, got.ndim))
    return (np.abs(got - expected).max(axis=axes) / np.abs(expected).max(axis=axes)).max()


class TestReadoutMap:
    """e -> E(S e + x) and its K x K Jacobian, which the Broyden solve and the adjoint read."""

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_map_against_the_oracle(self, encoding):
        # values from the dense oracle's encoded state and circuit, the Jacobian from its central differences
        model = build_default_model(encoding, 4, 16, seed=3)
        E, X = _map_inputs(4, 16, seed=20)
        S, diags = model.upsample.matrix, oracle.pauli_z_diagonals(4)
        state = oracle.amplitude_state if encoding == "amplitude" else oracle.angle_state
        values, jacobian = model.readout_map(X)

        def reference(E):
            states = np.stack([state(u, 4) for u in E @ S.T + X])
            return oracle.expectations(model.circuit, model.theta, states, diags)

        assert _row_rel(values(E), reference(E)) <= 1e-13
        # amplitude readouts see only a row's direction, so the step follows each row's scale;
        # angle readouts are periodic in the angles, so it is one absolute step
        step = 1e-5 * (np.abs(E).max(axis=1, keepdims=True) if encoding == "amplitude" else 1.0)
        fd = np.stack([(reference(E + step * e) - reference(E - step * e)) / (2 * step) for e in np.eye(4)], axis=2)
        assert _row_rel(jacobian(E)[0], fd) <= 1e-8

    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_map_against_encode_and_factors(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        E, X = _map_inputs(num_qubits, input_dim, seed=21)
        S = model.upsample.matrix
        values, jacobian = model.readout_map(X)
        # the map's encoder: for amplitude rows bit for bit ``encode(E @ S.T, X)``; angle rows add
        # the half-angles by the sum identities (``tests/test_encoding.py::TestEncoder``)
        psi, encode_vjp, _ = model.encoder(X)(E)
        J, (rows, _, _) = jacobian(E)
        assert _row_rel(values(E), model.readouts(psi)) <= 1e-13
        assert _row_rel(J, model.jacobian_factors(psi, encode_vjp) @ S) <= 1e-13
        assert np.array_equal(rows, psi)

    def test_amplitude_map_encodes_nothing(self, monkeypatch):
        model = build_default_model("amplitude", 10, 100, seed=3)
        E, X = _map_inputs(10, 100, seed=22)
        values = model.readout_map(X)[0]
        monkeypatch.setattr(enc, "encode", lambda *a: pytest.fail("the amplitude map encoded"))
        assert values(E).shape == (8, 10)


def _gate_by_gate_backward(model, Z, X, C):
    """(dZ, dtheta) from the circuit run on the B batch rows and one adjoint sweep over them."""
    combined = Z + X
    ops = resolve_circuit(model.circuit, model.theta)
    psi = enc.encode(model.encoding, combined)[0]
    states = np.zeros((len(psi), 1 << model.num_qubits), dtype=np.complex128)
    states[:, : psi.shape[1]] = psi
    apply_ops(ops, states)
    chat = C @ model.upsample.matrix
    bra = (chat @ model.ensemble.diagonals(model.num_qubits)) * states
    dtheta, back = adjoint_sweep(ops, states, bra, num_params=model.num_params)
    return enc.encode(model.encoding, combined)[1](back), dtheta


def _rel(got, expected, scale=None):
    return np.abs(got - expected).max() / np.abs(expected if scale is None else scale).max()


SHAPES = [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)]


class TestCompiledReverseAgainstGateByGate:
    """The d-row reverse path of ``backward_batch`` against sweeping the B batch rows."""

    def _batch(self, input_dim, rows=4, seed=21):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.1, 1.0, size=(rows, input_dim))
        return 0.1 * rng.normal(size=X.shape), X, rng.normal(size=X.shape)

    @pytest.mark.parametrize("encoding, num_qubits, input_dim", SHAPES)
    def test_dz_and_dtheta_match(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        Z, X, C = self._batch(input_dim)
        dZ, dtheta = model.backward_batch(Z, X, C)
        ref_dZ, ref_dtheta = _gate_by_gate_backward(model, Z, X, C)
        assert _rel(dZ, ref_dZ) <= 1e-12
        assert _rel(dtheta, ref_dtheta) <= 1e-12

    def test_circuit_below_the_top_qubit(self):
        # 10 amplitude rows and a circuit on qubits 0-3 of 5: the light cone ends at 16 columns, and
        # V is its last kets, unpadded; Z_4 reads them as all-|0> on qubit 4
        block, theta = build_block(5, 4, random_ops=10)
        circuit = ParamCircuit(5, block.gates, block.num_params)
        model = QuantumModel(EncodingSpec("amplitude", 5, 10), circuit, theta, ObservableEnsemble.pauli_z_all(5))
        V = model._compiled()[1]
        assert V.shape == (10, 16) and model._compiled_at[5][-1] is V
        Z, X, C = self._batch(10)
        dZ, dtheta = model.backward_batch(Z, X, C)
        ref_dZ, ref_dtheta = _gate_by_gate_backward(model, Z, X, C)
        assert _rel(dZ, ref_dZ) <= 1e-12
        assert _rel(dtheta, ref_dtheta) <= 1e-12

    @pytest.mark.parametrize("encoding, num_qubits, input_dim", SHAPES[:2])
    def test_stacked_unroll_equals_per_layer_sum(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        _, X, G = self._batch(input_dim)
        unroll = deqsolve.direct_unroll_batch(model, X, 5)
        per_layer, C = np.zeros(model.num_params), G
        for i in range(5, 0, -1):
            C, dtheta = model.backward_batch(unroll.iterates[i - 1], X, C)
            per_layer += dtheta
        assert _rel(deqsolve.unroll_backward_batch(model, unroll, G), per_layer) <= 1e-12

    def test_theta_written_in_place_recompiles(self, tmp_path):
        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05, seed=42)
        model, head = build_from_config(cfg)
        Z, X, C = self._batch(model.input_dim)

        def forward(m):
            return (m.forward_batch(Z, X),)

        def backward(m):
            return m.backward_batch(Z, X, C)

        def same_as_fresh(m, run):
            fresh = dataclasses.replace(m, theta=m.theta.copy())
            return all(a.tobytes() == b.tobytes() for a, b in zip(run(m), run(fresh)))

        # each pass runs first after each write, so it meets the compile of the theta before it
        path, initial = tmp_path / "checkpoint.json", model.theta.copy()
        for run in (forward, backward):
            run(model)
            model.theta -= 0.01 * np.arange(model.num_params)  # what adam_step does
            assert same_as_fresh(model, run)
            save_checkpoint(path, cfg, model, head)
            assert same_as_fresh(load_checkpoint(path)[1], run)
            model.theta[:] = initial  # what load_checkpoint does to its parameters
            assert same_as_fresh(model, run)


def _per_observable_forms(model):
    """(K, d, d) H_k = V diag(m_k) V^dagger, one product per observable (Re H_k for amplitude rows)."""
    V = model._compiled()[1]
    H = np.stack([(V * m) @ V.conj().T for m in model.ensemble.diagonals(model.num_qubits)])
    return H.real if model.encoding.kind == "amplitude" else H


def _per_observable_pullback_theta(model, psi, cotangents, encode_jvp=None, tangents=None):
    """dtheta with the sweep's bra summed one observable at a time: sum_k m_k * (R_k^T V)."""
    ops, V, _ = model._compiled()
    chat = np.atleast_2d(cotangents) @ model.upsample.matrix
    bra, rows = np.zeros_like(V), psi.conj().T
    for k, m in enumerate(model.ensemble.diagonals(model.num_qubits)):
        Rt = rows @ (chat[:, k, None] * psi)
        if tangents is not None:
            Y = rows @ encode_jvp(tangents[:, k])
            Rt = Rt + Y + Y.conj().T
        bra += m * (Rt @ V)
    return adjoint_sweep(ops, V, bra, num_params=model.num_params)[0]


def _projector_model():
    circuit, theta = build_block(4, 4, random_ops=10)
    return QuantumModel(
        encoding=EncodingSpec("amplitude", 4, 16),
        circuit=circuit,
        theta=theta,
        ensemble=ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 5, 9)),
    )


class TestClassBuiltForms:
    """The readout forms and the sweep's bra, built per class of equal diagonal columns, against
    one product per observable."""

    MODELS = {
        "amplitude-10": lambda: build_default_model("amplitude", 10, 100, seed=3),
        "angle-4": lambda: build_default_model("angle", 4, 16, seed=3),
        "projector-4": _projector_model,
    }

    @pytest.fixture(params=sorted(MODELS))
    def case(self, request):
        model = self.MODELS[request.param]()
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 1.0, size=(32, model.input_dim))
        return model, 0.1 * rng.normal(size=X.shape), X, rng.normal(size=X.shape)

    def test_forms(self, case):
        model = case[0]
        d, K = model.encoding.width, model.ensemble.size
        if model.encoding.kind == "angle":  # angle rows read V alone and build no forms
            assert model._compiled()[2] is None
            return
        H = model._compiled()[2].reshape(d, K, d).transpose(1, 0, 2)
        assert _rel(H, _per_observable_forms(model)) <= 1e-14

    @pytest.mark.parametrize("with_tangents", [False, True])
    def test_dtheta(self, case, with_tangents):
        model, Z, X, C = case
        T = None
        if with_tangents:
            T = np.random.default_rng(9).normal(size=(len(X), model.ensemble.size, model.input_dim))
        got = model.backward_batch(Z, X, C, need_z=False, tangents=T)[1]
        psi, _, encode_jvp = enc.encode(model.encoding, enc.inject(Z, X))
        assert _rel(got, _per_observable_pullback_theta(model, psi, C, encode_jvp, T)) <= 1e-14

    def test_penalized_implicit_backward(self, case, monkeypatch):
        model, Z, X, C = case
        dtheta, penalty = deqsolve.implicit_backward_batch(model, X, Z, C, jac_weight=0.7)
        ops, V, _ = model._compiled()
        H = _per_observable_forms(model).transpose(1, 0, 2).reshape(len(V), -1)
        monkeypatch.setattr(model, "_compiled", lambda: (ops, V, H))  # jacobian_factors reads H
        monkeypatch.setattr(model, "pullback_theta", lambda *a: _per_observable_pullback_theta(model, *a))
        ref_dtheta, ref_penalty = deqsolve.implicit_backward_batch(model, X, Z, C, jac_weight=0.7)
        assert _rel(dtheta, ref_dtheta) <= 1e-14
        assert abs(penalty - ref_penalty) <= 1e-14 * abs(ref_penalty)


def _full_width_build(model, psi, cotangents, encode_jvp=None, tangents=None):
    """(V, H, A, dtheta) as built before the observable cones: the circuit on eye(d, 2**Q), one
    class table at full width for the forms and the bra, and the sweep at full width
    (``_full_width_sweep``)."""
    ops = resolve_circuit(model.circuit, model.theta)
    d, N, K = model.encoding.width, 1 << model.num_qubits, model.ensemble.size
    V = apply_ops(ops, np.eye(d, N, dtype=np.complex128))
    table = model.ensemble.classes(model.num_qubits, (N,) * model.num_qubits)
    dtype = np.float64 if model.encoding.kind == "amplitude" else np.complex128
    H = np.zeros((K, d, d), dtype=dtype)
    for obs, signs, cols, _ in table:
        Vc = np.take(V, cols, axis=1).view(dtype).transpose(1, 0, 2)
        H[obs] = qmodel._combine(signs, Vc @ Vc.conj().transpose(0, 2, 1))
    H = H.transpose(1, 0, 2).reshape(d, -1)
    S = model.upsample.matrix
    A = ((S.T @ H).reshape(K, K, d) @ S).reshape(K, -1) if dtype == np.float64 else None
    chat, rows = np.atleast_2d(cotangents) @ S, psi.conj().T
    R = np.stack([rows @ (c[:, None] * psi) for c in chat.T])
    if tangents is not None:
        Y = np.stack([rows @ encode_jvp(tangents[:, k]) for k in range(K)])
        R = R + (Y + Y.conj().transpose(0, 2, 1))
    bra = np.zeros_like(V)
    for obs, signs, cols, slots in table:
        out = np.zeros((d, cols.size + 1), dtype=np.complex128)
        np.matmul(qmodel._combine(signs.T, R[obs]), np.take(V, cols, axis=1).view(R.dtype).transpose(1, 0, 2),
                  out=out[:, :-1].reshape(d, *cols.shape).view(R.dtype).transpose(1, 0, 2))
        bra += np.take(out, slots, axis=1)
    return V, H, A, _full_width_sweep(ops, V, bra, model.num_params)[0]


def _lone_cnot_model(opens_the_wide_stretch):
    """Q=8 on 40 amplitude rows (64 columns): a ``random_layer`` on qubits 0-5 with lone wide CNOTs,
    then a trainable block on qubits 4-7 (a run at offset 4 that widens the cone to 256 columns) or
    a lone CNOT 1 -> 7 that opens the 256-column stretch, as in ``TestLightCone``."""
    gates, theta = random_layer(6, 6, 60)
    if opens_the_wide_stretch:
        gates += [GateOp(CNOT, 7, control=1), GateOp(RY, 7, param_slot=len(theta)), GateOp(CNOT, 4, control=7),
                  GateOp(RX, 6, param_slot=len(theta) + 1)]
        theta = np.append(theta, [0.3, -1.1])
    else:
        block, wall = qmodel._trainable_block(4, len(theta))
        gates += [qmodel._remap_gate(g, 4, 0) for g in block]
        theta = np.append(theta, np.random.default_rng(6).uniform(0, 2 * np.pi, wall))
    circuit = ParamCircuit.from_gates(8, gates)
    return QuantumModel(EncodingSpec("amplitude", 8, 40), circuit, theta, ObservableEnsemble.pauli_z_all(8))


def _below_the_top_model():
    block, theta = build_block(5, 4, random_ops=10)
    circuit = ParamCircuit(5, block.gates, block.num_params)
    return QuantumModel(EncodingSpec("amplitude", 5, 10), circuit, theta, ObservableEnsemble.pauli_z_all(5))


def _high_run_first_model(rows):
    """Q=10 on ``rows`` amplitude rows: a trainable block on qubits 6-9 opens the cone at 1024
    columns from the rows' own (a power of two, at least the 64 columns below qubit 6), then a
    block on qubits 0-3."""
    gates, slots = [], 0
    for offset in (6, 0):
        block, count = qmodel._trainable_block(4, slots)
        gates += [qmodel._remap_gate(g, offset, 0) for g in block]
        slots += count
    theta = np.random.default_rng(7).uniform(0, 2 * np.pi, slots)
    return QuantumModel(EncodingSpec("amplitude", 10, rows), ParamCircuit.from_gates(10, gates), theta,
                        ObservableEnsemble.pauli_z_all(10))


def _with_ensemble(build, ensemble):
    return lambda: dataclasses.replace(build(), ensemble=ensemble)


def _projector_model_10():
    model = build_default_model("amplitude", 10, 100, seed=3)
    ensemble = ObservableEnsemble(BASIS_PROJECTOR, (1023, 0, 17, 512, 64, 5, 900, 99, 127, 128))
    return dataclasses.replace(model, ensemble=ensemble)


class TestObservableCones:
    """Each readout form and bra term comes from the narrowest kets that its observable commutes
    past, and the run that widens the cone reads only the window states its input reaches: against
    the full-width class build and sweep, within 1e-13, and bit for bit where the rows fill the
    basis (one stretch at full width)."""

    MODELS = {
        "staircase-10": (lambda: build_default_model("amplitude", 10, 100, seed=3),
                         (128,) * 4 + (256,) * 2 + (1024,) * 4),
        "lone-cnot-then-block-8": (lambda: _lone_cnot_model(False), (64,) * 4 + (256,) * 4),
        "lone-cnot-opens-8": (lambda: _lone_cnot_model(True), (256,) * 8),
        "below-the-top-5": (_below_the_top_model, (16,) * 5),
        "projectors-10": (_projector_model_10, (128,) * 4 + (256,) * 2 + (1024,) * 4),
        # Z0 and Z1 read the first stretch only: the sweep skips the two after it
        "low-sites-10": (_with_ensemble(lambda: build_default_model("amplitude", 10, 100, seed=3),
                                        ObservableEnsemble(PAULI_Z, (1, 0))), (128,) * 4 + (256,) * 2 + (1024,) * 4),
        # projectors 16-31 lie past the cone's 16 columns: their group reads 0
        "projectors-below-the-top-5": (_with_ensemble(_below_the_top_model, ObservableEnsemble(
            BASIS_PROJECTOR, (20, 31, 16, 17, 25, 3, 0, 7, 12, 9))), (16,) * 5),
        "high-run-first-100": (lambda: _high_run_first_model(100), (1024,) * 10),
        "high-run-first-10": (lambda: _high_run_first_model(10), (1024,) * 10),
        "amplitude-4": (lambda: build_default_model("amplitude", 4, 16, seed=3), (16,) * 4),
        "angle-4": (lambda: build_default_model("angle", 4, 16, seed=3), (16,) * 4),
    }

    @pytest.fixture(params=sorted(MODELS))
    def case(self, request):
        build, widths = self.MODELS[request.param]
        model = build()
        rng = np.random.default_rng(12)
        X = rng.uniform(0.1, 1.0, size=(24, model.input_dim))
        psi, _, encode_jvp = model.encode(0.1 * rng.normal(size=X.shape), X)
        T = rng.normal(size=(len(X), model.ensemble.size, model.input_dim))
        return model, widths, psi, rng.normal(size=X.shape), encode_jvp, T

    @pytest.mark.parametrize("with_tangents", [False, True])
    def test_forms_and_dtheta_match_the_full_width_build(self, case, with_tangents):
        model, widths, psi, C, encode_jvp, T = case
        T = T if with_tangents else None
        V, H, A, dtheta = _full_width_build(model, psi, C, encode_jvp, T)
        ops, got_V, got_H = model._compiled()
        assert model._compiled_at[6] == widths
        got = model.pullback_theta(psi, C, encode_jvp, T)
        exact = model.encoding.width == 1 << model.num_qubits  # one stretch at full width
        angle = model.encoding.kind == "angle"  # reads V alone: no forms, and a bra summed against V
        if exact:
            assert np.array_equal(got_V, V) and (angle or np.array_equal(got_H, H) and np.array_equal(got, dtheta))
        assert np.array_equal(got_V, V[:, : got_V.shape[1]]) and not V[:, got_V.shape[1] :].any()
        assert (got_H is None if angle else _rel(got_H, H) <= 1e-13) and _rel(got, dtheta) <= 1e-13
        if A is not None:
            assert (np.array_equal if exact else lambda a, b: _rel(a, b) <= 1e-13)(model._compiled_at[4], A)

    def test_penalized_implicit_backward_matches_the_full_width_build(self, case, monkeypatch):
        model, *_ = case
        rng = np.random.default_rng(13)
        X = rng.uniform(0.1, 1.0, size=(8, model.input_dim))
        Z, G = 0.1 * rng.normal(size=X.shape), rng.normal(size=X.shape)
        dtheta, penalty = deqsolve.implicit_backward_batch(model, X, Z, G, jac_weight=0.8)
        ops, _, _ = model._compiled()
        V, H = _full_width_build(model, np.eye(model.encoding.width), np.zeros((model.encoding.width,) * 2))[:2]
        monkeypatch.setattr(model, "_compiled", lambda: (ops, V, H))  # jacobian_factors reads H
        monkeypatch.setattr(model, "pullback_theta", lambda *a: _full_width_build(model, *a)[3])
        ref_dtheta, ref_penalty = deqsolve.implicit_backward_batch(model, X, Z, G, jac_weight=0.8)
        assert _rel(dtheta, ref_dtheta) <= 1e-13
        assert abs(penalty - ref_penalty) <= 1e-13 * abs(ref_penalty)


def _class_pullback_theta(model, psi, cotangents, encode_jvp=None, tangents=None):
    """dtheta of angle rows as ``pullback_theta`` built it before they read V alone, kept as a frozen
    reference: R_k^T = psi^H diag(chat_k) psi (+ Y + Y^H, Y = psi^H encode_jvp(T_k)), and the bra
    M_c @ V_c per class of ``ObservableEnsemble.classes``, one stretch at full width."""
    ops, V, _ = model._compiled()
    chat, rows, d = np.atleast_2d(cotangents) @ model.upsample.matrix, psi.conj().T, len(V)
    R = np.empty((len(chat.T), d, d), dtype=np.complex128)
    for k, c in enumerate(chat.T):
        np.matmul(rows, c[:, None] * psi, out=R[k])
        if tangents is not None:
            Y = rows @ encode_jvp(tangents[:, k])
            R[k] += Y + Y.conj().T
    bra = None
    for obs, signs, cols, slots in model.ensemble.classes(model.num_qubits, model._compiled_at[6]):
        out = np.zeros((d, cols.size + 1), dtype=np.complex128)
        np.matmul(qmodel._combine(signs.T, R[obs]), np.take(V, cols, axis=1).transpose(1, 0, 2),
                  out=out[:, :-1].reshape(d, *cols.shape).transpose(1, 0, 2))
        term = np.take(out, slots, axis=1)
        bra = term if bra is None else bra + term
    return adjoint_sweep(ops, V, bra, num_params=model.num_params, return_bra=False)[0]


class TestAnglePullbackThroughV:
    """Angle rows' theta-gradient from one bra summed against V, against the class-built R_k bra."""

    MODELS = {
        "pauli-z-4": lambda: build_default_model("angle", 4, 16, seed=3),
        "projectors-8-of-16": _with_ensemble(lambda: build_default_model("angle", 4, 16, seed=5),
                                             ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 5, 9, 12, 14, 6, 1))),
    }

    @pytest.mark.parametrize("with_tangents", [False, True])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_the_class_built_bra(self, name, with_tangents):
        model = self.MODELS[name]()
        rng = np.random.default_rng(14)
        X = rng.uniform(0.0, 1.0, size=(24, 16))
        psi, _, encode_jvp = model.encoder(X)(rng.normal(size=(24, model.ensemble.size)))
        C = rng.normal(size=X.shape)
        T = rng.normal(size=(24, model.ensemble.size, 16)) if with_tangents else None
        got = model.pullback_theta(psi, C, encode_jvp, T)
        assert _rel(got, _class_pullback_theta(model, psi, C, encode_jvp, T)) <= 1e-13


EDGE_ANGLES = np.array([0.0, 0.5 * np.pi, -0.5 * np.pi, np.pi, 2.0 * np.pi])


def _edge_angle_rows(rng, rows, n):
    """Rows of n angles: first each of EDGE_ANGLES throughout, then random picks among them."""
    picks = rng.choice(EDGE_ANGLES, size=(max(rows - len(EDGE_ANGLES), 0), n))
    return np.concatenate([np.repeat(EDGE_ANGLES[:, None], n, axis=1), picks])[:rows]


def _large_angle_rows(rng, rows, n):
    """Rows of n angles with |x| up to 20, the first row holding -20 and 20."""
    X = rng.uniform(-20.0, 20.0, size=(rows, n))
    X[0, :2] = -20.0, 20.0
    return X


class TestAngleEncoderAgainstGates:
    """The product-state encoder and its vjp against the dense oracle's parameter shift."""

    @pytest.mark.parametrize("num_qubits", [2, 4])
    def test_matches_trainable_encoding_circuit(self, num_qubits):
        rng = np.random.default_rng(9)
        n = 4 * num_qubits
        model = build_default_model("angle", num_qubits, n, seed=10, random_ops=12)
        z = rng.normal(size=n) * 0.3
        x = rng.uniform(0.0, 2.0 * np.pi, size=n)
        self._check(model, z, x, rng.normal(size=n))

    @pytest.mark.parametrize("rows", [_edge_angle_rows, _large_angle_rows], ids=["edge", "large"])
    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_edge_and_large_angles(self, rows, num_qubits):
        # kets with zero entries (0, pi, 2 pi), and half-angles past 2 pi: where a closed
        # form or a shifted derivative ket could lose a sign
        rng = np.random.default_rng(13)
        n = 4 * num_qubits
        model = build_default_model("angle", num_qubits, n, seed=10, random_ops=12)
        for x in rows(rng, 8, n):
            self._check(model, np.zeros(n), x, rng.normal(size=n))

    @staticmethod
    def _check(model, z, x, cot):
        # the 4Q encoding rotations become trainable slots 0..4Q-1 holding z + x, so the
        # shift rule's derivative over them is dE/dz and over the rest dE/dtheta
        num_qubits, n = model.num_qubits, model.input_dim
        encoder = [
            GateOp(g.kind, g.target, param_slot=k)
            for k, g in enumerate(angle_encode(z + x, num_qubits))
        ]
        shifted = [
            g if g.param_slot is None else dataclasses.replace(g, param_slot=g.param_slot + n)
            for g in model.circuit.gates
        ]
        circuit = ParamCircuit(num_qubits, tuple(encoder + shifted), n + model.num_params)
        chat = cot @ model.upsample.matrix
        theta, vacuum = np.concatenate([z + x, model.theta]), np.eye(1 << num_qubits)[0]
        diags = oracle.pauli_z_diagonals(num_qubits)
        dtheta = np.array([chat @ oracle.parameter_shift(circuit, theta, vacuum, diags, slot)
                           for slot in range(circuit.num_params)])
        dz, dtheta_model = model.backward_batch(z[None], x[None], cot[None])
        assert np.abs(dtheta[:n] - dz[0]).max() < 1e-12
        assert np.abs(dtheta[n:] - dtheta_model).max() < 1e-12


def _oracle_state(model, v):
    """The dense oracle's encoding of one input row: the state the trainable circuit acts on."""
    if model.encoding.kind == "amplitude":
        return oracle.amplitude_state(v, model.num_qubits)
    return oracle.angle_state(v, model.num_qubits)


class TestBuilders:
    def test_block4_no_random_ops_has_twelve_slots(self):
        circuit, theta = build_block(0, 4, random_ops=0)
        assert circuit.num_params == 12
        assert theta.shape == (12,)

    def test_block4_deterministic(self):
        a, ta = build_block(42, 4)
        b, tb = build_block(42, 4)
        assert a == b and np.array_equal(ta, tb)

    def test_block4_expected_parameter_count(self):
        counts = [build_block(seed, 4)[0].num_params for seed in range(3000)]
        assert abs(np.mean(counts) - (12 + 37.5)) < 0.3

    def test_staircase_windows(self):
        circuit, theta = build_staircase10(1)
        assert circuit.num_qubits == 10
        assert theta.shape == (circuit.num_params,)
        # four blocks at offsets 0, 2, 4, 6; every gate stays in its window
        blocks = [build_block(child_seed(1, "block", b), 4)[0] for b in range(4)]
        assert circuit.num_params == sum(b.num_params for b in blocks)
        i = 0
        for b, offset in enumerate(range(0, 7, 2)):
            for gate in blocks[b].gates:
                placed = circuit.gates[i]
                assert placed.target == gate.target + offset
                if gate.control is not None:
                    assert placed.control == gate.control + offset
                i += 1
        assert i == len(circuit.gates)

    def test_staircase_degenerate_is_single_block(self):
        circuit, theta = build_staircase10(3, num_qubits=4)
        block, block_theta = build_block(child_seed(3, "block", 0), 4)
        assert circuit == block
        assert np.array_equal(theta, block_theta)

    def test_staircase_rejects_odd_qubit_counts(self):
        with pytest.raises(DimensionError):
            build_staircase10(0, num_qubits=7)


class TestModelValidation:
    @pytest.mark.parametrize("encoding, num_qubits, input_dim",
                             [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)])
    def test_model_derives_upsample(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3, random_ops=5)
        assert model.upsample == UpsampleMap(num_qubits, input_dim)

    def test_readout_count_must_divide_input_dim(self):
        with pytest.raises(DimensionError, match="multiple"):
            QuantumModel(
                encoding=EncodingSpec("amplitude", 3, 4),
                circuit=ParamCircuit(3, (), 0),
                theta=np.zeros(0),
                ensemble=ObservableEnsemble.pauli_z_all(3),
            )

    def test_mismatched_theta(self):
        with pytest.raises(DimensionError):
            QuantumModel(
                encoding=EncodingSpec("amplitude", 2, 4),
                circuit=ParamCircuit(2, (), 0),
                theta=np.zeros(3),
                ensemble=ObservableEnsemble.pauli_z_all(2),
            )
