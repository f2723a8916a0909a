"""Broyden solver, implicit backward pass, unrolling, universality stacking."""
import dataclasses

import numpy as np
import pytest

from qdeq.deqsolve import (
    BroydenConfig,
    broyden_root_batch,
    direct_unroll_batch,
    forward_fixed_point_batch,
    implicit_backward_batch,
    jacobian_frobenius_batch,
    unroll_backward_batch,
    universality_stack,
)
from qdeq.errors import DimensionError, SolverDivergedError
from qdeq.qmodel import build_default_model


class LinearLayer:
    """f(z; x) = A z + B theta + x, with exact closed-form fixed point."""

    def __init__(self, A, B, theta):
        self.A = np.asarray(A, float)
        self.B = np.asarray(B, float)
        self.theta = np.asarray(theta, float)
        self.num_params = self.theta.shape[0]
        self.input_dim = self.A.shape[0]

    def prepare(self, Z, X):
        return None

    def forward_batch(self, Z, X):
        return np.atleast_2d(Z) @ self.A.T + self.theta @ self.B.T + np.atleast_2d(X)

    def backward_batch(self, Z, X, C, need_z=True, need_theta=True, prepared=None):
        C = np.atleast_2d(C)
        dz = C @ self.A if need_z else None
        dth = (C @ self.B).sum(axis=0) if need_theta else None
        return dz, dth


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
        assert np.abs(res.z_star - layer.forward_batch(np.zeros((1, 2)), x[None])).max() < 1e-12

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
            input_dim = 2
            num_params = 0

            def forward_batch(self, Z, X):
                if np.linalg.norm(Z + X) < 1e-9:
                    raise DegenerateInputError("zero after injection", rows=np.array([0]))
                calls.append(Z.copy())
                return -Z - 2.0 * X

        x = np.array([1.0, 1.0])
        res = forward_fixed_point_batch(Spiky(), x[None], BroydenConfig(max_steps=3))
        assert np.isfinite(res.z_star).all()


class TestImplicitBackward:
    def test_zero_loss_grad_gives_zero(self):
        model = build_default_model("amplitude", 2, 4, seed=3, random_ops=8)
        x = np.array([0.9, 0.3, 0.4, 0.1])
        res = forward_fixed_point_batch(model, x[None])
        dtheta, _ = implicit_backward_batch(model, x[None], res.z_star, np.zeros((1, 4)))
        assert np.array_equal(dtheta, np.zeros(model.num_params))

    def test_diagnostics_report_adjoint_convergence_per_row(self):
        layer = LinearLayer(0.5 * np.eye(3), np.eye(3), np.zeros(3))
        lg = np.random.default_rng(4).normal(size=(2, 3))
        _, diag = implicit_backward_batch(layer, np.zeros((2, 3)), np.zeros((2, 3)), lg)
        assert sorted(diag) == ["backward_converged", "backward_residual"]
        assert diag["backward_converged"].tolist() == [True, True]
        assert diag["backward_residual"].shape == (2,)

    def test_linear_layer_closed_form(self):
        rng = np.random.default_rng(5)
        n, p = 6, 4
        A = _spectral_scale(rng, n, 0.6)
        B = rng.normal(size=(n, p))
        layer = LinearLayer(A, B, rng.normal(size=p))
        x = rng.normal(size=n)
        lg = rng.normal(size=n)
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=60, abs_tol=1e-12))
        dtheta, _ = implicit_backward_batch(
            layer, x[None], res.z_star, lg[None], BroydenConfig(max_steps=60, abs_tol=1e-13)
        )
        closed = B.T @ np.linalg.solve(np.eye(n) - A.T, lg)
        assert np.abs(dtheta - closed).max() < 1e-8

    def test_contractive_quantum_model_matches_deep_unroll(self):
        # seed 3 gives sigma_max(J_f) ~ 0.54 at the fixed point for this x
        model = build_default_model("amplitude", 2, 4, seed=3, random_ops=8)
        x = np.array([0.9, 0.3, 0.4, 0.1])
        res = forward_fixed_point_batch(model, x[None])
        lg = np.random.default_rng(6).normal(size=(1, 4))
        dtheta, _ = implicit_backward_batch(model, x[None], res.z_star, lg)
        unrolled = unroll_backward_batch(model, x[None], direct_unroll_batch(model, x[None], 60), lg)
        rel = np.linalg.norm(dtheta - unrolled) / np.linalg.norm(unrolled)
        assert rel < 1e-3

    def test_adjoint_blowup_raises_solver_diverged(self):
        # vjp explodes outside a ball that the Broyden iterates must cross:
        # the adjoint solve must raise, not return an unconverged answer
        rng = np.random.default_rng(7)
        n = 4
        A = 0.475 * np.eye(n)
        lg = rng.normal(size=n)
        limit = 1.6 * np.linalg.norm(lg)

        class Guarded(LinearLayer):
            def backward_batch(self, Z, X, C, need_z=True, need_theta=True, prepared=None):
                if need_z and np.linalg.norm(C) > limit:
                    return np.full_like(C, np.nan), None
                return super().backward_batch(Z, X, C, need_z, need_theta, prepared)

        layer = Guarded(A, np.eye(n), np.zeros(n))
        z_star = np.zeros(n)
        with pytest.raises(SolverDivergedError):
            implicit_backward_batch(layer, np.zeros((1, n)), z_star[None], lg[None])

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
            dtheta, _ = implicit_backward_batch(layer, x[None], res.z_star, lg[None], cfg)
            unrolled = unroll_backward_batch(layer, x[None], direct_unroll_batch(layer, x[None], 60), lg[None])
            rel = np.linalg.norm(dtheta - unrolled) / max(np.linalg.norm(unrolled), 1e-12)
            assert rel < 1e-3


class TestDirectUnroll:
    def test_depth_one_is_single_forward(self):
        model = build_default_model("amplitude", 2, 4, seed=1, random_ops=6)
        x = np.array([0.5, 0.2, 0.8, 0.1])
        z1 = direct_unroll_batch(model, x[None], 1)[-1]
        assert np.array_equal(z1, model.forward_batch(np.zeros((1, 4)), x[None]))

    def test_depth_fifty_reaches_broyden_fixed_point(self):
        layer = LinearLayer(0.5 * np.eye(3), np.zeros((3, 1)), np.zeros(1))
        x = np.array([1.0, -0.5, 0.25])
        z50 = direct_unroll_batch(layer, x[None], 50)[-1]
        res = forward_fixed_point_batch(layer, x[None], BroydenConfig(max_steps=30))
        assert np.abs(z50 - res.z_star).max() < 1e-5

    def test_depth_two_gradient_matches_finite_differences(self):
        model = build_default_model("amplitude", 2, 4, seed=2, random_ops=6)
        rng = np.random.default_rng(9)
        X = rng.uniform(0.1, 1.0, size=(1, 4))
        lg = rng.normal(size=(1, 4))
        dtheta = unroll_backward_batch(model, X, direct_unroll_batch(model, X, 2), lg)
        eps = 1e-5
        for j in range(model.num_params):
            model.theta[j] += eps
            up = direct_unroll_batch(model, X, 2)[-1]
            model.theta[j] -= 2 * eps
            down = direct_unroll_batch(model, X, 2)[-1]
            model.theta[j] += eps
            fd = np.sum(lg * (up - down)) / (2 * eps)
            assert abs(dtheta[j] - fd) < 1e-5

    def test_depth_must_be_positive(self):
        model = build_default_model("amplitude", 2, 4, seed=1)
        with pytest.raises(DimensionError):
            direct_unroll_batch(model, np.ones((1, 4)), 0)


class TestJacobianFrobenius:
    def test_identity_jacobian_is_exact(self):
        class Identity:
            num_params = 0
            input_dim = 16

            def prepare(self, Z, X):
                return None

            def backward_batch(self, Z, X, C, need_z=True, need_theta=True, prepared=None):
                return C, None

        probes = np.random.default_rng(0).integers(0, 2, size=(4, 1, 16)) * 2.0 - 1.0
        est = jacobian_frobenius_batch(Identity(), np.zeros((1, 16)), np.zeros((1, 16)), probes)[0]
        assert est == pytest.approx(16.0, abs=1e-12)

    def test_constant_map_is_zero(self):
        class Constant:
            num_params = 0
            input_dim = 8

            def prepare(self, Z, X):
                return None

            def backward_batch(self, Z, X, C, need_z=True, need_theta=True, prepared=None):
                return np.zeros_like(C), None

        probes = np.random.default_rng(0).integers(0, 2, size=(3, 1, 8)) * 2.0 - 1.0
        est = jacobian_frobenius_batch(Constant(), np.zeros((1, 8)), np.zeros((1, 8)), probes)[0]
        assert est == 0.0

    def test_linear_map_matches_frobenius_norm(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(6, 6)) * 0.3
        layer = LinearLayer(A, np.zeros((6, 1)), np.zeros(1))
        probes = np.random.default_rng(11).integers(0, 2, size=(4096, 1, 6)) * 2.0 - 1.0
        est = jacobian_frobenius_batch(layer, np.zeros((1, 6)), np.zeros((1, 6)), probes)[0]
        exact = float(np.sum(A * A))
        assert abs(est - exact) / exact < 0.05

    def test_batch_estimates_per_sample(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4)) * 0.4
        layer = LinearLayer(A, np.zeros((4, 1)), np.zeros(1))
        probes = rng.integers(0, 2, size=(64, 3, 4)) * 2.0 - 1.0
        est = jacobian_frobenius_batch(layer, np.zeros((3, 4)), np.zeros((3, 4)), probes)
        assert est.shape == (3,)
        assert np.abs(est - np.sum(A * A)).max() / np.sum(A * A) < 0.5


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
        z3 = direct_unroll_batch(model, x[None], 3)[-1][0]
        assert np.abs(stack[-1] - z3).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        a = build_default_model("amplitude", 2, 4, seed=1, random_ops=4)
        b = build_default_model("amplitude", 2, 4, seed=2, random_ops=9)
        if a.num_params == b.num_params:
            pytest.skip("seeds happened to collide in parameter count")
        with pytest.raises(DimensionError):
            universality_stack([a, b], np.ones(4))
