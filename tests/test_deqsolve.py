"""Broyden solver, implicit backward pass, unrolling, universality stacking (``conftest``)."""
import dataclasses

import numpy as np
import pytest

from qdeq import encoding
from qdeq.deqsolve import (
    BroydenConfig,
    broyden_root_batch,
    direct_unroll_batch,
    forward_fixed_point_batch,
    implicit_backward_batch,
    solve_batch,
    unroll_backward_batch,
)
from qdeq.errors import DimensionError, SolverDivergedError
from qdeq.measurement import UpsampleMap
from qdeq.qmodel import QuantumModel, build_default_model

from conftest import universality_stack


class LinearLayer:
    """f(z; x) = A z + B theta + x, with exact closed-form fixed point; its readouts are f itself (S = I).

    Its encoded rows are A z + x, so the readouts add B theta, and its readout map has the Jacobian A.
    """

    def __init__(self, A, B, theta):
        self.A = np.asarray(A, float)
        self.B = np.asarray(B, float)
        self.theta = np.asarray(theta, float)
        self.upsample = UpsampleMap(len(self.A), len(self.A))

    def encode(self, Z, X):
        return np.atleast_2d(Z) @ self.A.T + np.atleast_2d(X), None, None

    def readouts(self, psi):
        return psi + self.theta @ self.B.T

    def readout_map(self, X):
        return (lambda E: self.readouts(self.encode(E, X)[0]),
                lambda E: (np.broadcast_to(self.A, (len(E),) + self.A.shape), self.encode(E, X)))

    def pullback_z(self, psi, encode_vjp, C):
        return np.atleast_2d(C) @ self.A

    def pullback_theta(self, psi, C, encode_jvp=None, tangents=None):
        # tangents add nothing: the Jacobian factor D = A does not depend on theta
        return (np.atleast_2d(C) @ self.B).sum(axis=0)

    def jacobian_factors(self, psi, encode_vjp):
        return np.broadcast_to(self.A, (len(psi),) + self.A.shape)


def _spectral_scale(rng, n, radius):
    A = rng.normal(size=(n, n))
    return A * (radius / np.abs(np.linalg.eigvals(A)).max())


class TestBroydenRoot:
    def test_constant_target_two_steps(self):
        c = np.array([1.5, -2.0, 0.25])
        res = broyden_root_batch(lambda Z: c - Z, np.zeros((1, 3)))
        assert res.converged[0] and res.steps_taken <= 2
        assert np.abs(res.z_star[0] - c).max() < 1e-12

    def test_affine_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        A = _spectral_scale(rng, 6, 0.7)
        b = rng.normal(size=6)
        res = broyden_root_batch(lambda Z: Z @ A.T + b - Z, np.zeros((1, 6)), BroydenConfig(max_steps=60))
        oracle = np.linalg.solve(np.eye(6) - A, b)
        assert np.abs(res.z_star[0] - oracle).max() < 1e-6

    def test_scalar_cosine_root(self):
        res = broyden_root_batch(lambda Z: np.cos(Z) - Z, np.zeros((1, 1)), BroydenConfig(max_steps=40))
        assert abs(res.z_star[0, 0] - 0.7390851332151607) < 1e-7

    def test_residual_is_trace_minimum(self):
        rng = np.random.default_rng(1)
        A = _spectral_scale(rng, 5, 0.9)
        b = rng.normal(size=5)
        res = broyden_root_batch(
            lambda Z: Z @ A.T + b - Z, np.zeros((1, 5)), BroydenConfig(max_steps=7, abs_tol=1e-14)
        )
        assert res.residual[0] == res.trace[:, 0].min()
        assert res.steps_taken <= 7

    def test_nonfinite_raises_with_step(self):
        def g(Z):
            return np.full_like(Z, np.nan) if np.linalg.norm(Z) > 0.5 else Z + 1.0

        with pytest.raises(SolverDivergedError) as err:
            broyden_root_batch(g, np.zeros((1, 2)))
        assert err.value.step >= 1

    def test_batch_rows_solve_independently(self):
        rng = np.random.default_rng(2)
        targets = rng.normal(size=(4, 3))
        res = broyden_root_batch(lambda Z: targets - Z, np.zeros((4, 3)))
        assert np.abs(res.z_star - targets).max() < 1e-12
        assert res.converged.all()

    def test_invalid_config(self):
        with pytest.raises(DimensionError):
            BroydenConfig(max_steps=0)
        with pytest.raises(DimensionError):
            BroydenConfig(abs_tol=0.0)

    @pytest.mark.parametrize("abs_tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, abs_tol):
        # nan converges no row and inf converges every row after one step
        with pytest.raises(DimensionError, match="abs_tol"):
            BroydenConfig(abs_tol=abs_tol)

    @pytest.mark.parametrize("max_steps", [2.5, True])
    def test_rejects_non_integer_step_count(self, max_steps):
        with pytest.raises(DimensionError, match="max_steps"):
            BroydenConfig(max_steps=max_steps)


class TestForwardFixedPoint:
    def test_synthetic_contraction_geometric_series(self):
        layer = LinearLayer(0.5 * np.eye(4), np.zeros((4, 1)), np.zeros(1))
        x = np.array([0.2, -0.4, 1.0, 0.8])
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=30))
        assert np.abs(res.z_star[0] - 2.0 * x).max() < 1e-9

    def test_first_iterate_is_forward_from_zero(self):
        layer = LinearLayer(0.5 * np.eye(2), np.zeros((2, 1)), np.zeros(1))
        x = np.array([1.0, 3.0])
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=1, abs_tol=1e-30))
        # one Broyden step from z0 = 0 with H = -I lands exactly on f(0; x)
        f0 = layer.readouts(layer.encode(np.zeros((1, 2)), x[None])[0])  # S = I: the readouts are f
        assert np.abs(res.z_star - f0).max() < 1e-12

    def test_quantum_model_converges(self):
        model = build_default_model("amplitude", 4, 16, seed=0)
        rng = np.random.default_rng(4)
        X = rng.uniform(0.1, 1.0, size=(8, 16))
        res = forward_fixed_point_batch(model, X)
        assert res.converged.all()
        assert res.steps_taken <= 10

    def test_degenerate_iterate_rescued_by_halving(self):
        # f(z; x) = -2x - z pushes the first iterate to exactly -x; the encode
        # rescue halves it once and the solve proceeds.
        from qdeq.errors import DegenerateInputError

        calls = []

        class Spiky:
            upsample = UpsampleMap(2, 2)

            def readout_map(self, X):
                def values(E):
                    if np.linalg.norm(E + X) < 1e-9:
                        raise DegenerateInputError("zero after injection", rows=np.array([0]))
                    calls.append(E.copy())
                    return -E - 2.0 * X

                return values, None

        x = np.array([1.0, 1.0])
        res = forward_fixed_point_batch(Spiky(), x[None], BroydenConfig(max_steps=3))
        assert np.isfinite(res.z_star).all()

    def test_degenerate_rescue_halves_only_the_named_rows(self):
        # row 0 follows f(z; x) = -2x - z onto -x; row 1 contracts and never lands on -x, so the
        # retry must evaluate it at the iterate of the failed attempt
        from qdeq.errors import DegenerateInputError

        calls = []

        class TwoRows:
            upsample = UpsampleMap(2, 2)

            def readout_map(self, X):
                def values(E):
                    calls.append(E.copy())
                    bad = np.flatnonzero(np.linalg.norm(E + X, axis=1) < 1e-9)
                    if bad.size:
                        raise DegenerateInputError("zero after injection", rows=bad)
                    return np.stack([-E[0] - 2.0 * X[0], 0.5 * E[1] + X[1]])

                return values, None

        X = np.array([[1.0, 1.0], [0.3, -0.2]])
        forward_fixed_point_batch(TwoRows(), X, BroydenConfig(max_steps=3))
        failed = next(i for i, Z in enumerate(calls) if np.linalg.norm(Z[0] + X[0]) < 1e-9)
        retry = calls[failed + 1]
        assert np.array_equal(retry[0], 0.5 * calls[failed][0])
        assert np.array_equal(retry[1], calls[failed][1])
        assert np.abs(calls[failed][1]).max() > 0.1

    def test_amplitude_map_names_and_rescue_halves_only_the_degenerate_row(self, monkeypatch):
        # x = -lam S e* for the fixed point e* = E(S e*) at x = 0: E is even in u, so step one lands
        # on e* and |u| = (lam - 1) |e*|, 0.5e-12 for row 0 and 2e-12 for row 1 (threshold 1e-12)
        from qdeq.errors import DegenerateInputError

        model = build_default_model("amplitude", 4, 16, seed=3)
        S, at_zero = model.upsample.matrix, model.readout_map(np.zeros((1, 16)))[0]
        fp = broyden_root_batch(lambda E: at_zero(E) - E, np.full((1, 4), 0.5), BroydenConfig(100, 1e-15))
        e_star = fp.z_star[0]
        assert fp.converged[0]
        gaps = np.array([0.5e-12, 2e-12])[:, None]
        X = -(1.0 + gaps / np.linalg.norm(e_star)) * (e_star @ S.T)
        calls = []
        original = model.readout_map

        def recording(X):
            values, jacobian = original(X)
            return lambda E: calls.append(E.copy()) or values(E), jacobian

        monkeypatch.setattr(model, "readout_map", recording)
        forward_fixed_point_batch(model, X, BroydenConfig(max_steps=3))
        failed, retry = calls[1], calls[2]
        with pytest.raises(DegenerateInputError) as err:
            original(X)[0](failed)
        assert err.value.rows.tolist() == [0]
        assert np.array_equal(retry[0], 0.5 * failed[0])
        assert np.array_equal(retry[1], failed[1])
        assert np.linalg.norm(failed[1] @ S.T + X[1]) < 1e-11


class TestImplicitBackward:
    def test_zero_loss_grad_gives_zero(self):
        model = build_default_model("amplitude", 2, 4, seed=3, random_ops=8)
        x = np.array([0.9, 0.3, 0.4, 0.1])
        res = forward_fixed_point_batch(model, x[None])
        dtheta, _ = implicit_backward_batch(model, x[None], res.z_star, np.zeros((1, 4)))
        assert np.array_equal(dtheta, np.zeros(model.num_params))

    def test_linear_layer_closed_form(self):
        rng = np.random.default_rng(5)
        n, p = 6, 4
        A = _spectral_scale(rng, n, 0.6)
        B = rng.normal(size=(n, p))
        layer = LinearLayer(A, B, rng.normal(size=p))
        x = rng.normal(size=n)
        lg = rng.normal(size=n)
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=60, abs_tol=1e-12))
        dtheta, _ = implicit_backward_batch(layer, x[None], res.z_star, lg[None])
        closed = B.T @ np.linalg.solve(np.eye(n) - A.T, lg)
        assert np.abs(dtheta - closed).max() < 1e-8

    def test_contractive_quantum_model_matches_deep_unroll(self):
        # seed 3 gives sigma_max(J_f) ~ 0.54 at the fixed point for this x
        model = build_default_model("amplitude", 2, 4, seed=3, random_ops=8)
        x = np.array([0.9, 0.3, 0.4, 0.1])
        res = forward_fixed_point_batch(model, x[None])
        lg = np.random.default_rng(6).normal(size=(1, 4))
        dtheta, _ = implicit_backward_batch(model, x[None], res.z_star, lg)
        unrolled = unroll_backward_batch(model, direct_unroll_batch(model, x[None], 60), lg)
        rel = np.linalg.norm(dtheta - unrolled) / np.linalg.norm(unrolled)
        assert rel < 1e-3

    def test_singular_adjoint_system_raises_solver_diverged(self):
        # J = I leaves I - J^T singular: the backward must raise, not return a gradient
        layer = LinearLayer(np.eye(3), np.eye(3), np.zeros(3))
        lg = np.random.default_rng(7).normal(size=(2, 3))
        with pytest.raises(SolverDivergedError):
            implicit_backward_batch(layer, np.zeros((2, 3)), np.zeros((2, 3)), lg)

    def test_linear_layer_penalty_is_its_frobenius_norm(self):
        # J = A for every row: the penalty is ||A||_F^2, and D = A carries no theta-gradient; with
        # no weight the backward builds no D and returns 0 for the penalty
        rng = np.random.default_rng(10)
        layer = LinearLayer(0.3 * rng.normal(size=(6, 6)), rng.normal(size=(6, 2)), rng.normal(size=2))
        X, Z, G = rng.normal(size=(3, 6)), rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        plain, unweighted = implicit_backward_batch(layer, X, Z, G)
        weighted, penalty = implicit_backward_batch(layer, X, Z, G, jac_weight=0.7)
        assert unweighted == 0.0 and penalty == pytest.approx(np.sum(layer.A**2), rel=1e-12)
        assert np.array_equal(plain, weighted)

    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_adjoint_solves_its_linear_system(self, encoding, num_qubits, input_dim, monkeypatch):
        # the sweep gets the readout cotangent y of q as S y, and q = g + J^T S y satisfies q - J^T q = g
        rng = np.random.default_rng(15)
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        X = rng.uniform(0.1, 1.0, size=(3, input_dim))
        Z = 0.1 * rng.normal(size=X.shape)
        G = rng.normal(size=X.shape)
        sweeps = []
        original = model.pullback_theta

        def recording(psi, C, *args):
            sweeps.append(C)
            return original(psi, C, *args)

        monkeypatch.setattr(model, "pullback_theta", recording)
        dtheta, _ = implicit_backward_batch(model, X, Z, G)
        (C,) = sweeps
        assert np.array_equal(dtheta, model.backward_batch(Z, X, C, need_z=False)[1])
        q = G + model.backward_batch(Z, X, C, need_theta=False)[0]
        residual = q - model.backward_batch(Z, X, q, need_theta=False)[0] - G
        assert np.abs(residual).max() <= 1e-12 * np.abs(G).max()

    @pytest.mark.parametrize("kind", ["amplitude", "angle"])
    def test_encodes_the_fixed_point_once(self, kind, monkeypatch):
        # the Jacobian factors and the penalized theta-sweep read one encoding of z* + x
        model = build_default_model(kind, 4, 16, seed=3)
        X = np.random.default_rng(17).uniform(0.1, 1.0, size=(4, 16))
        z_star = forward_fixed_point_batch(model, X).z_star
        rows = []
        original = QuantumModel.encode
        monkeypatch.setattr(QuantumModel, "encode", lambda self, Z, X: rows.append(len(Z)) or original(self, Z, X))
        implicit_backward_batch(model, X, z_star, np.ones_like(X), jac_weight=0.8)
        assert rows == [4]

    @pytest.mark.parametrize("jac_weight, calls", [(0.0, 0), (0.8, 1)])
    def test_factors_only_for_the_penalty(self, jac_weight, calls, monkeypatch):
        # amplitude rows read the adjoint's K x K Jacobian from the readout map: the n-wide factors
        # are built only when the penalty needs them
        model = build_default_model("amplitude", 10, 100, seed=3)
        X = np.random.default_rng(19).uniform(0.1, 1.0, size=(4, 100))
        z_star = forward_fixed_point_batch(model, X).z_star
        made = []
        original = QuantumModel.jacobian_factors
        monkeypatch.setattr(QuantumModel, "jacobian_factors", lambda self, *a: made.append(1) or original(self, *a))
        implicit_backward_batch(model, X, z_star, np.ones_like(X), jac_weight)
        assert len(made) == calls

    @pytest.mark.parametrize("jac_weight", [0.0, 0.8])
    @pytest.mark.parametrize("kind", ["amplitude", "angle"])
    def test_dtheta_is_backward_batch_at_the_adjoint(self, kind, jac_weight):
        # the benchmark's gradient gate checks backward_batch: training's dtheta is its arithmetic
        model = build_default_model(kind, 4, 16, seed=3)
        rng = np.random.default_rng(18)
        X = rng.uniform(0.1, 1.0, size=(8, 16))
        G = rng.normal(size=X.shape)
        z_star = forward_fixed_point_batch(model, X).z_star
        dtheta, _ = implicit_backward_batch(model, X, z_star, G, jac_weight)
        # the K x K Jacobian is D S with the penalty's factors D, else the readout map's at z* + x
        S = model.upsample.matrix
        D = model.jacobian_factors(*model.encode(z_star, X)[:2]) if jac_weight else None
        J = D @ S if jac_weight else model.readout_map(z_star + X)[1](np.zeros((len(X), S.shape[1])))[0]
        Y = np.linalg.solve(np.eye(S.shape[1]) - J.transpose(0, 2, 1), (G @ S)[..., None])[..., 0]
        tangents = (2.0 * jac_weight / len(D)) * D if jac_weight else None
        expected = model.backward_batch(z_star, X, Y @ S.T, need_z=False, tangents=tangents)[1]
        assert np.array_equal(dtheta, expected)

    def test_implicit_explicit_agreement_on_contractions(self):
        # random Lipschitz <= 0.9 linear layers: implicit matches 60-layer unroll
        rng = np.random.default_rng(8)
        for trial in range(5):
            n, p = 5, 3
            A = _spectral_scale(rng, n, 0.9 * rng.uniform(0.5, 1.0))
            layer = LinearLayer(A, rng.normal(size=(n, p)), rng.normal(size=p))
            x = rng.normal(size=n)
            lg = rng.normal(size=n)
            cfg = BroydenConfig(max_steps=50, abs_tol=1e-12)
            res = forward_fixed_point_batch(layer, x[None], cfg)
            dtheta, _ = implicit_backward_batch(layer, x[None], res.z_star, lg[None])
            unrolled = unroll_backward_batch(layer, direct_unroll_batch(layer, x[None], 60), lg[None])
            rel = np.linalg.norm(dtheta - unrolled) / max(np.linalg.norm(unrolled), 1e-12)
            assert rel < 1e-3


def _h_mat(W, left, right):
    """(-I + sum_i l_i r_i^T) w per row; swap ``left`` and ``right`` for the transpose."""
    out = -W
    for l, r in zip(left, right):
        out = out + l * np.einsum("bn,bn->b", r, W)[:, None]
    return out


def _n_wide_solve(model, X, cfg=BroydenConfig()):
    """(z*, residual, converged, steps, trace): good Broyden on z, n wide, with the inverse-Jacobian
    estimate kept as the lists of its rank-one terms."""

    def g(Z):
        return model.forward_batch(Z, X) - Z

    def relative(G, F):
        norm = np.linalg.norm(G, axis=1)
        return norm / (np.linalg.norm(F, axis=1) + 1e-9), norm

    Z = np.zeros_like(X)
    G = g(Z)
    best_rel, best_norm = relative(G, G + Z)
    best_Z, trace, us, vs, steps = Z.copy(), [best_rel], [], [], 0
    for steps in range(1, cfg.max_steps + 1):
        Znew = Z - _h_mat(G, us, vs)
        Gnew = g(Znew)
        rel, norm = relative(Gnew, Gnew + Znew)
        better = rel < best_rel
        best_rel, best_norm = np.where(better, rel, best_rel), np.where(better, norm, best_norm)
        best_Z[better] = Znew[better]
        trace.append(rel)
        if np.all(best_norm <= cfg.abs_tol):
            break
        dZ, dG = Znew - Z, Gnew - G
        HdG = _h_mat(dG, us, vs)
        denom = np.einsum("bn,bn->b", dZ, HdG)
        safe = np.abs(denom) > 1e-30
        u = np.where(safe[:, None], (dZ - HdG) / np.where(safe, denom, 1.0)[:, None], 0.0)
        v = _h_mat(dZ, vs, us)
        us.append(u)
        vs.append(np.where(safe[:, None], v, 0.0))
        Z, G = Znew, Gnew
    return best_Z, best_rel, best_norm <= cfg.abs_tol, steps, np.stack(trace)


def _woodbury_backward(model, X, Z, G, jac_weight):
    """(dtheta, penalty) from the n-wide adjoint q = G + D^T (I - S^T D^T)^-1 S^T G and S^T S D."""
    S, D = model.upsample.matrix, model.jacobian_factors(*model.encode(Z, X)[:2])
    Y = np.linalg.solve(np.eye(S.shape[1]) - np.einsum("nk,bjn->bkj", S, D), (G @ S)[..., None])
    Q = G + np.einsum("bkn,bk->bn", D, Y[..., 0])
    SD = np.einsum("kj,bjn->bkn", S.T @ S, D)
    tangents = (2.0 * jac_weight / len(D)) * SD
    dtheta = model.backward_batch(Z, X, Q, need_z=False, tangents=tangents)[1]
    return dtheta, float(np.einsum("bkn,bkn->", D, SD)) / len(D)


class TestAgainstNWideSolver:
    """The K-wide solve and adjoint against Broyden and the Woodbury adjoint on the n-wide iterates."""

    @pytest.mark.parametrize(
        "encoding, num_qubits, input_dim",
        [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
    )
    def test_same_solve_gradient_and_penalty(self, encoding, num_qubits, input_dim):
        model = build_default_model(encoding, num_qubits, input_dim, seed=3)
        rng = np.random.default_rng(16)
        X = rng.uniform(0.0, 1.0, size=(256, input_dim))
        G = rng.normal(size=X.shape) / len(X)
        fp = forward_fixed_point_batch(model, X)
        z_star, residual, converged, steps, trace = _n_wide_solve(model, X)
        assert fp.steps_taken == steps and np.array_equal(fp.converged, converged)
        assert np.abs(fp.z_star - z_star).max() <= 1e-14 * np.abs(z_star).max()
        assert np.abs(fp.residual - residual).max() <= 1e-14
        assert np.abs(fp.trace - trace).max() <= 1e-14
        dtheta, penalty = implicit_backward_batch(model, X, fp.z_star, G, jac_weight=0.8)
        ref_dtheta, ref_penalty = _woodbury_backward(model, X, z_star, G, 0.8)
        assert np.abs(dtheta - ref_dtheta).max() <= 1e-14 * np.abs(ref_dtheta).max()
        assert abs(penalty - ref_penalty) <= 1e-14 * ref_penalty


class TestDirectUnroll:
    def test_depth_one_is_single_forward(self):
        model = build_default_model("amplitude", 2, 4, seed=1, random_ops=6)
        x = np.array([0.5, 0.2, 0.8, 0.1])
        z1 = direct_unroll_batch(model, x[None], 1).iterates[-1]
        assert np.array_equal(z1, model.forward_batch(np.zeros((1, 4)), x[None]))

    def test_depth_fifty_reaches_broyden_fixed_point(self):
        layer = LinearLayer(0.5 * np.eye(3), np.zeros((3, 1)), np.zeros(1))
        x = np.array([1.0, -0.5, 0.25])
        z50 = direct_unroll_batch(layer, x[None], 50).iterates[-1]
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=30))
        assert np.abs(z50 - res.z_star).max() < 1e-5

    def test_depth_two_gradient_matches_finite_differences(self):
        model = build_default_model("amplitude", 2, 4, seed=2, random_ops=6)
        rng = np.random.default_rng(9)
        X = rng.uniform(0.1, 1.0, size=(1, 4))
        lg = rng.normal(size=(1, 4))
        dtheta = unroll_backward_batch(model, direct_unroll_batch(model, X, 2), lg)
        eps = 1e-5
        for j in range(model.num_params):
            model.theta[j] += eps
            up = direct_unroll_batch(model, X, 2).iterates[-1]
            model.theta[j] -= 2 * eps
            down = direct_unroll_batch(model, X, 2).iterates[-1]
            model.theta[j] += eps
            fd = np.sum(lg * (up - down)) / (2 * eps)
            assert abs(dtheta[j] - fd) < 1e-5

    @pytest.mark.parametrize("kind", ["angle", "amplitude"])
    def test_depth_five_step_encodes_each_layer_once(self, kind, monkeypatch):
        # the backward pulls back through the forward's own encodings: 5 encodes, not 10
        rows = []
        original = encoding.encode
        monkeypatch.setattr(encoding, "encode", lambda spec, X: rows.append(len(X)) or original(spec, X))
        model = build_default_model(kind, 4, 16, seed=3, random_ops=8)
        X = np.random.default_rng(12).uniform(0.1, 1.0, size=(6, 16))
        z, _, backward, _ = solve_batch(model, X, 5)
        dtheta, _ = backward(np.ones_like(z), 0.0)
        assert rows == [6] * 5 and np.isfinite(dtheta).all()

    def test_depth_must_be_positive(self):
        model = build_default_model("amplitude", 2, 4, seed=1)
        with pytest.raises(DimensionError):
            direct_unroll_batch(model, np.ones((1, 4)), 0)


class TestUniversalityStack:
    def _models(self, count, seed=7):
        base = build_default_model("amplitude", 2, 4, seed=seed, random_ops=6)
        rng = np.random.default_rng(seed + 100)
        return [
            dataclasses.replace(base, theta=rng.uniform(0, 2 * np.pi, base.num_params))
            for _ in range(count)
        ]

    def test_single_layer(self):
        (model,) = self._models(1)
        x = np.array([0.6, 0.1, 0.3, 0.9])
        stack = universality_stack([model], x)
        assert np.array_equal(stack[0], x)
        assert np.array_equal(stack[1], model.forward_batch(np.zeros((1, 4)), x[None])[0])

    def test_blockwise_equality_with_sequential_evaluation(self):
        models = self._models(3)
        x = np.array([0.6, 0.1, 0.3, 0.9])
        stack = universality_stack(models, x)
        z = np.zeros((1, 4))
        sequential = [x]
        for m in models:
            z = m.forward_batch(z, x[None])
            sequential.append(z[0])
        for level in range(4):
            assert np.abs(stack[level] - sequential[level]).max() < 1e-12

    def test_weight_tied_degenerate_case(self):
        (model,) = self._models(1, seed=9)
        x = np.array([0.2, 0.7, 0.5, 0.4])
        stack = universality_stack([model, model, model], x)
        z3 = direct_unroll_batch(model, x[None], 3).iterates[-1][0]
        assert np.abs(stack[-1] - z3).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        a = build_default_model("amplitude", 2, 4, seed=1, random_ops=4)
        b = build_default_model("amplitude", 2, 4, seed=2, random_ops=9)
        if a.num_params == b.num_params:
            pytest.skip("seeds happened to collide in parameter count")
        with pytest.raises(DimensionError):
            universality_stack([a, b], np.ones(4))
