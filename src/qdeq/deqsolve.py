"""Fixed-point forward pass, implicit backward pass with its Jacobian penalty, explicit unrolling.

The forward pass solves g(z) = f(z; x) - z = 0 with a "good Broyden" solver:
rank-one updates of an inverse-Jacobian estimate initialized to -I (the exact
Jacobian of g for a locally constant f, so step one is a plain fixed-point
step). The backward pass solves the adjoint linear system of the implicit
function theorem exactly: f reads out K values, so J_b = S D_b has rank K and
Woodbury's identity reduces the n x n system to one K x K solve per row. The
same factors give the Jacobian penalty mean_b ||J_b||_F^2 exactly, and its
theta-gradient joins the backward pass's one theta-sweep. ``solve_batch`` runs
one training or evaluation batch through either solve or a weight-tied unroll.

The solvers and unrolls work on batches only: z, x and cotangents are (B, n)
arrays, and a single sample is a one-row batch. The theta-gradient is linear
in the rows, so each backward computation makes one stacked theta-call.
Residuals are reported in relative form ||f(z) - z|| / (||f(z)|| + 1e-9).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import DegenerateInputError, DimensionError, SolverDivergedError


class FixedPointLayer(Protocol):
    """What the solvers need from a model: batched forward and reverse passes, Jacobian factors."""

    num_params: int

    def forward_batch(self, Z, X): ...

    def backward_batch(self, Z, X, cotangents, need_z=True, need_theta=True, tangents=None): ...

    def jacobian_factors(self, Z, X): ...


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


def _relative(diff, out):
    """(||diff|| / (||out|| + eps), ||diff||) per row."""
    dnorm = np.linalg.norm(diff, axis=1)
    return dnorm / (np.linalg.norm(out, axis=1) + _EPS), dnorm


def _h_mat(W, left, right):
    """(-I + sum_i l_i r_i^T) w per row; swap ``left`` and ``right`` for the transpose."""
    out = -W
    for l, r in zip(left, right):
        out = out + l * np.einsum("bn,bn->b", r, W)[:, None]
    return out


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
    rel, gnorm = _relative(G, G + Z)
    best_rel, best_gnorm, best_Z = rel.copy(), gnorm.copy(), Z.copy()
    trace = [rel]

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    steps = 0
    for step in range(1, cfg.max_steps + 1):
        Znew = Z - _h_mat(G, us, vs)  # H = -I + sum_i u_i v_i^T estimates the inverse Jacobian
        Znew, Gnew = evaluate(Znew, step)
        rel, gnorm = _relative(Gnew, Gnew + Znew)
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
        HdG = _h_mat(dG, us, vs)
        denom = np.einsum("bn,bn->b", dZ, HdG)
        safe = np.abs(denom) > 1e-30
        u = np.where(safe[:, None], (dZ - HdG) / np.where(safe, denom, 1.0)[:, None], 0.0)
        v = _h_mat(dZ, vs, us)
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


def implicit_backward_batch(model: FixedPointLayer, X: np.ndarray, Z_star, loss_grads, jac_weight=0.0):
    """Exact adjoint solve of the implicit function theorem; returns (sum_b dtheta_b, penalty).

    With J_b = S D_b from ``jacobian_factors``, (I - J_b^T) q_b = g_b has the
    Woodbury solution q_b = g_b + D_b^T (I_K - S^T D_b^T)^-1 S^T g_b: one
    batched K x K solve, then one theta-sweep at q. The penalty is the exact
    mean_b ||J_b||_F^2 = mean_b <D_b, S^T S D_b>; ``jac_weight`` w > 0 adds w
    times its theta-gradient to dtheta through the tangents (2w/B) S^T S D_b of
    the same sweep. A singular system or a non-finite q raises SolverDivergedError.
    """
    G = np.asarray(loss_grads, dtype=np.float64)
    S, D = model.jacobian_factors(Z_star, X)
    try:
        Y = np.linalg.solve(np.eye(S.shape[1]) - np.einsum("nk,bjn->bkj", S, D), (G @ S)[..., None])
    except np.linalg.LinAlgError as exc:
        raise SolverDivergedError(f"singular adjoint system: {exc}", step=0) from exc
    Q = G + np.einsum("bkn,bk->bn", D, Y[..., 0])
    if not np.isfinite(Q).all():
        raise SolverDivergedError("non-finite adjoint values", step=0)
    SD = np.einsum("kj,bjn->bkn", S.T @ S, D)
    tangents = (2.0 * jac_weight / len(D)) * SD if jac_weight else None
    dtheta = model.backward_batch(Z_star, X, Q, need_z=False, tangents=tangents)[1]
    return dtheta, float(np.einsum("bkn,bkn->", D, SD)) / len(D)


def unroll_backward_batch(model: FixedPointLayer, X: np.ndarray, iterates, loss_grads) -> np.ndarray:
    """Reverse accumulation through stored unroll iterates (weight-tied theta).

    The cotangents chain back with dZ-only passes; then one theta-call over
    the L layers' stacked inputs and cotangents gives the sum over layers.
    """
    cots = [np.asarray(loss_grads, dtype=np.float64)]
    for Z in iterates[-2:0:-1]:
        cots.append(model.backward_batch(Z, X, cots[-1], need_theta=False)[0])
    stacked = np.concatenate(iterates[-2::-1])
    return model.backward_batch(stacked, np.tile(X, (len(cots), 1)), np.concatenate(cots), need_z=False)[1]


def direct_unroll_batch(model: FixedPointLayer, X: np.ndarray, depth: int) -> list:
    """The iterates z(0) = 0, ..., z(depth) of z(i+1) = f(z(i); x), for ``unroll_backward_batch``."""
    if depth < 1:
        raise DimensionError("unroll depth must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    iterates = [np.zeros_like(X)]
    for _ in range(depth):
        iterates.append(model.forward_batch(iterates[-1], X))
    return iterates


def solve_batch(model: FixedPointLayer, X: np.ndarray, depth: int, cfg: BroydenConfig = BroydenConfig()):
    """(z, per-sample residual, backward: (dz, jac_weight) -> (dtheta, penalty), unconverged rows).

    Depth 0 is the fixed-point solve and its implicit backward with the
    Jacobian penalty at z*; unconverged rows are those the Broyden solver left
    above ``abs_tol``. Depth L >= 1 unrolls L layers (one extra forward pass
    for the residual when L is 1) and reports 0 unconverged rows; with no fixed
    point to penalize, its backward ignores ``jac_weight`` and returns 0 for it.
    """
    if depth == 0:
        fp = forward_fixed_point_batch(model, X, cfg)
        z, unconverged = fp.z_star, int(np.count_nonzero(~fp.converged))
        return z, fp.residual, lambda dz, w: implicit_backward_batch(model, X, z, dz, w), unconverged
    iterates = direct_unroll_batch(model, X, depth)
    last, prev = iterates[-1], iterates[-2]
    if depth == 1:
        last, prev = model.forward_batch(last, X), last
    residual = _relative(last - prev, last)[0]
    return iterates[-1], residual, lambda dz, w: (unroll_backward_batch(model, X, iterates, dz), 0.0), 0


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
