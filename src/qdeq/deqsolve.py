"""Fixed-point forward pass, implicit backward pass, and explicit unrolling.

The forward pass solves g(z) = f(z; x) - z = 0 with a "good Broyden" solver:
rank-one updates of an inverse-Jacobian estimate initialized to -I (the exact
Jacobian of g for a locally constant f, so step one is a plain fixed-point
step). The backward pass solves the adjoint linear system of the implicit
function theorem with the same solver, falling back to a truncated Neumann
series if it produces non-finite values.

Residuals are reported in relative form ||f(z) - z|| / (||f(z)|| + 1e-9).

The solvers and unrolls work on batches only: z, x and cotangents are (B, n)
arrays, and a single sample is a one-row batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import DegenerateInputError, DimensionError, SolverDivergedError


class FixedPointLayer(Protocol):
    """What the solvers need from a model: batched forward and reverse passes."""

    num_params: int

    def forward_batch(self, Z, X): ...

    def prepare(self, Z, X): ...

    def backward_batch(self, Z, X, cotangents, need_z=True, need_theta=True, prepared=None): ...


@dataclass(frozen=True)
class BroydenConfig:
    max_steps: int = 10
    abs_tol: float = 1e-6

    def __post_init__(self):
        if self.max_steps < 1:
            raise DimensionError("max_steps must be >= 1")
        if self.abs_tol <= 0:
            raise DimensionError("abs_tol must be positive")


@dataclass
class BatchFixedPoint:
    """Per-sample solver outcome for a batch (z of shape (B, n))."""

    z_star: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    steps_taken: int
    trace: np.ndarray  # (steps_taken + 1, B) relative residuals


_EPS = 1e-9


def _metrics(Z, G):
    gnorm = np.linalg.norm(G, axis=1)
    fnorm = np.linalg.norm(G + Z, axis=1)
    return gnorm / (fnorm + _EPS), gnorm


def broyden_root_batch(
    g: Callable[[np.ndarray], np.ndarray],
    Z0: np.ndarray,
    cfg: BroydenConfig = BroydenConfig(),
) -> BatchFixedPoint:
    """Solve g(Z) = 0 row-wise; every sample runs its own inverse-Jacobian estimate.

    Returns the per-sample iterate with the smallest relative residual among
    those visited. Non-finite g output raises SolverDivergedError with the step
    index; a DegenerateInputError from g (an iterate the encoder rejects) halves
    that iterate once before failing hard.
    """

    def evaluate(Zc, step):
        try:
            G = np.asarray(g(Zc), dtype=np.float64)
        except DegenerateInputError:
            Zc = 0.5 * Zc
            G = np.asarray(g(Zc), dtype=np.float64)
        if not np.isfinite(G).all():
            raise SolverDivergedError(f"non-finite solver values at step {step}", step=step)
        return Zc, G

    Z = np.asarray(Z0, dtype=np.float64).copy()
    Z, G = evaluate(Z, 0)
    rel, gnorm = _metrics(Z, G)
    best_rel, best_gnorm, best_Z = rel.copy(), gnorm.copy(), Z.copy()
    trace = [rel]

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    def h_mat(W):  # H w with H = -I + sum_i u_i v_i^T
        out = -W
        for u, v in zip(us, vs):
            out = out + u * np.einsum("bn,bn->b", v, W)[:, None]
        return out

    def h_mat_t(W):  # H^T w
        out = -W
        for u, v in zip(us, vs):
            out = out + v * np.einsum("bn,bn->b", u, W)[:, None]
        return out

    steps = 0
    for step in range(1, cfg.max_steps + 1):
        Znew = Z - h_mat(G)
        Znew, Gnew = evaluate(Znew, step)
        rel, gnorm = _metrics(Znew, Gnew)
        better = rel < best_rel
        best_rel = np.where(better, rel, best_rel)
        best_gnorm = np.where(better, gnorm, best_gnorm)
        best_Z[better] = Znew[better]
        trace.append(rel)
        steps = step
        if np.all(best_gnorm <= cfg.abs_tol):
            break
        dZ = Znew - Z
        dG = Gnew - G
        HdG = h_mat(dG)
        denom = np.einsum("bn,bn->b", dZ, HdG)
        safe = np.abs(denom) > 1e-30
        u = np.where(safe[:, None], (dZ - HdG) / np.where(safe, denom, 1.0)[:, None], 0.0)
        v = h_mat_t(dZ)
        us.append(u)
        vs.append(np.where(safe[:, None], v, 0.0))
        Z, G = Znew, Gnew

    return BatchFixedPoint(
        z_star=best_Z,
        residual=best_rel,
        converged=best_gnorm <= cfg.abs_tol,
        steps_taken=steps,
        trace=np.stack(trace),
    )


def forward_fixed_point_batch(
    model: FixedPointLayer, X: np.ndarray, cfg: BroydenConfig = BroydenConfig()
) -> BatchFixedPoint:
    """Solve f(z; x) = z from z0 = 0 for every row of X (same x injected throughout)."""
    X = np.asarray(X, dtype=np.float64)

    def g(Z):
        return model.forward_batch(Z, X) - Z

    return broyden_root_batch(g, np.zeros_like(X), cfg)


def implicit_backward_batch(
    model: FixedPointLayer,
    X: np.ndarray,
    Z_star: np.ndarray,
    loss_grads: np.ndarray,
    cfg: BroydenConfig = BroydenConfig(),
):
    """Adjoint solve of the implicit function theorem, batched.

    Solves h(q) = J_f^T q - q + dl/dz* = 0 (i.e. J_g^T q = -dl/dz*) with the
    Broyden solver, then returns (sum_b dtheta_b, diagnostics). Non-finite
    adjoint values raise SolverDivergedError.
    """
    X = np.asarray(X, dtype=np.float64)
    Z_star = np.asarray(Z_star, dtype=np.float64)
    loss_grads = np.asarray(loss_grads, dtype=np.float64)
    prep = model.prepare(Z_star, X)

    def h(Q):
        return model.backward_batch(Z_star, X, Q, need_theta=False, prepared=prep)[0] - Q + loss_grads

    res = broyden_root_batch(h, np.zeros_like(loss_grads), cfg)
    dtheta = model.backward_batch(Z_star, X, res.z_star, need_z=False, prepared=prep)[1]
    return dtheta, {"backward_residual": res.residual, "backward_converged": res.converged}


def unroll_backward_batch(model: FixedPointLayer, X: np.ndarray, iterates, loss_grads) -> np.ndarray:
    """Reverse accumulation through stored unroll iterates (weight-tied theta)."""
    dtheta = np.zeros(model.num_params)
    C = np.asarray(loss_grads, dtype=np.float64)
    for i in range(len(iterates) - 1, 0, -1):
        need_z = i > 1
        dZ, dth = model.backward_batch(iterates[i - 1], X, C, need_z=need_z)
        dtheta += dth
        if need_z:
            C = dZ
    return dtheta


def direct_unroll_batch(model: FixedPointLayer, X: np.ndarray, depth: int) -> list:
    """The iterates z(0) = 0, ..., z(depth) of z(i+1) = f(z(i); x), for ``unroll_backward_batch``."""
    if depth < 1:
        raise DimensionError("unroll depth must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    iterates = [np.zeros_like(X)]
    for _ in range(depth):
        iterates.append(model.forward_batch(iterates[-1], X))
    return iterates


def jacobian_frobenius_batch(model: FixedPointLayer, Z, X, probes: np.ndarray) -> np.ndarray:
    """Hutchinson estimates of ||d f/d z||_F^2 per sample.

    ``probes`` has shape (P, B, n) with +-1 entries; the estimate is the probe
    mean of ||J^T eps||^2, unbiased for the squared Frobenius norm.
    """
    prep = model.prepare(Z, X)
    total = np.zeros(probes.shape[1])
    for eps in probes:
        jt = model.backward_batch(Z, X, eps, need_theta=False, prepared=prep)[0]
        total += np.einsum("bn,bn->b", jt, jt)
    return total / probes.shape[0]


def universality_stack(models: list, x: np.ndarray) -> np.ndarray:
    """Replicate depth-varying layers with one weight-tied, input-injected map.

    Blocks (b_0, ..., b_L) iterate jointly: b_0 is pinned to x, block j applies
    layer j-1 to block j-1 (with the standard input injection for j >= 2; block
    1 reads the pinned input block directly). After L sweeps of this one map,
    block j equals the sequential iterate z(j), so the return is the stacked
    trace (x, z(1), ..., z(L)).
    """
    if not models:
        raise DimensionError("need at least one model")
    first = models[0]
    for m in models[1:]:
        if not first.same_shape_as(m):
            raise DimensionError("stacked models must share their shape")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    depth = len(models)
    zeros = np.zeros_like(x)
    blocks = [x] + [zeros] * depth
    for _ in range(depth):
        new = [x, models[0].forward_batch(blocks[0], zeros)]
        for j in range(2, depth + 1):
            new.append(models[j - 1].forward_batch(blocks[j - 1], x))
        blocks = new
    return np.concatenate(blocks)
