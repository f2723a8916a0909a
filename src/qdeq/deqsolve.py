"""Fixed-point forward pass, implicit backward pass with its Jacobian penalty, explicit unrolling.

The layer is f(z; x) = S E(z + x): K readouts E taken back to the input width
n = rK by the upsample matrix S (n, K), which the model derives from K and n
(``model.upsample``). S is an isometry (S^T S = I), so every fixed point is
z* = S e* with e* = E(S e* + x), and the implicit solver works on the K
readouts. The forward pass solves g(e) = E(S e + x) - e = 0 with a "good
Broyden" solver: each row keeps a dense K x K inverse-Jacobian estimate, from
-I (exact for a locally constant E, so step one is a plain fixed-point step).
It reads E, and the backward its K x K Jacobian, through the model's per-batch
``readout_map``. The backward solves the implicit function theorem's adjoint
system exactly, one batched K x K solve whose solution is the readout cotangent
of the one theta-sweep. With the penalty on, the Jacobian factors give
mean_b ||J_b||_F^2 exactly and its theta-gradient joins that sweep.
``solve_batch`` runs one training or evaluation batch through either solve or
a weight-tied unroll, which stays n wide. The unroll keeps each layer's encoded
input and its backward pulls back through those, so a depth-L step encodes L
times.

The solvers and unrolls work on batches only: z, x and cotangents are (B, n)
arrays, and a single sample is a one-row batch. The theta-gradient is linear
in the rows, so each backward computation makes one stacked theta-call.
Residuals are reported in relative form ||f(z) - z|| / (||f(z)|| + 1e-9), the
same on e as on z = S e.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from .errors import DegenerateInputError, DimensionError, SolverDivergedError
from .measurement import UpsampleMap


class FixedPointLayer(Protocol):
    """What the solvers call on a model; ``upsample`` is S (n, K).

    ``readout_map(X)`` gives the K-space layer e -> E(S e + x) and its Jacobian. ``encode`` returns
    (psi, vjp, jvp) of the layer inputs z + x; ``readouts``, the two pullbacks and
    ``jacobian_factors`` read them, so each solver encodes a layer input once.
    """

    upsample: UpsampleMap

    def readout_map(self, X): ...

    def encode(self, Z, X): ...

    def readouts(self, psi): ...

    def pullback_z(self, psi, encode_vjp, cotangents): ...

    def pullback_theta(self, psi, cotangents, encode_jvp=None, tangents=None): ...

    def jacobian_factors(self, psi, encode_vjp): ...


@dataclass(frozen=True)
class BroydenConfig:
    max_steps: int = 10
    abs_tol: float = 1e-6

    def __post_init__(self):
        if type(self.max_steps) is not int or self.max_steps < 1:  # not a bool, which range() would take
            raise DimensionError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise DimensionError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")


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


def broyden_root_batch(
    g: Callable[[np.ndarray], np.ndarray],
    Z0: np.ndarray,
    cfg: BroydenConfig = BroydenConfig(),
) -> BatchFixedPoint:
    """Solve g(Z) = 0 row-wise; every sample runs its own dense (m, m) inverse-Jacobian estimate H.

    Returns the per-sample iterate with the smallest relative residual among
    those visited. Non-finite g output raises SolverDivergedError with the step
    index; a DegenerateInputError from g (an iterate the encoder rejects) halves
    the rows it names (all rows if it names none) once before failing hard.
    """

    def evaluate(Zc, step):
        try:
            G = np.asarray(g(Zc), dtype=np.float64)
        except DegenerateInputError as exc:
            Zc = Zc.copy()
            Zc[slice(None) if exc.rows is None else exc.rows] *= 0.5
            G = np.asarray(g(Zc), dtype=np.float64)
        if not np.isfinite(G).all():
            raise SolverDivergedError(f"non-finite solver values at step {step}", step=step)
        return Zc, G

    Z = np.asarray(Z0, dtype=np.float64).copy()
    Z, G = evaluate(Z, 0)
    rel, gnorm = _relative(G, G + Z)
    best_rel, best_gnorm, best_Z = rel.copy(), gnorm.copy(), Z.copy()
    trace = [rel]
    H = np.tile(-np.eye(Z.shape[1]), (len(Z), 1, 1))

    steps = 0
    for step in range(1, cfg.max_steps + 1):
        Znew = Z - np.einsum("bij,bj->bi", H, G)
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
        HdG = np.einsum("bij,bj->bi", H, dG)
        denom = np.einsum("bn,bn->b", dZ, HdG)
        safe = np.abs(denom) > 1e-30
        u = np.where(safe[:, None], (dZ - HdG) / np.where(safe, denom, 1.0)[:, None], 0.0)
        H += u[:, :, None] * np.einsum("bi,bij->bj", dZ, H)[:, None]  # good Broyden: H += u (dZ^T H)
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
    """Solve f(z; x) = z for every row of X: Broyden on e = E(S e + x) (``readout_map``) from e0 = 0; z* = S e*."""
    S, readouts = model.upsample.matrix, model.readout_map(X)[0]
    fp = broyden_root_batch(lambda E: readouts(E) - E, np.zeros((len(X), S.shape[1])), cfg)
    return replace(fp, z_star=fp.z_star @ S.T)


def implicit_backward_batch(model: FixedPointLayer, X: np.ndarray, Z_star, loss_grads, jac_weight=0.0):
    """Exact adjoint solve of the implicit function theorem; returns (sum_b dtheta_b, penalty).

    With J_b = S D_b (D_b from ``jacobian_factors``, S^T S = I), (I - J_b^T) q_b = g_b has the
    solution q_b = g_b + D_b^T y_b, where (I_K - (D_b S)^T) y_b = S^T g_b: one batched K x K
    solve. The theta-sweep reads q_b only through its readout cotangent q_b S = y_b, so it gets
    y_b S^T. z* + x is encoded once. At ``jac_weight`` w = 0, D_b S and that encoding come from
    the ``readout_map`` of z* + x at e = 0, and the penalty is 0. w > 0 builds D_b for the exact
    penalty mean_b ||J_b||_F^2 = mean_b ||D_b||_F^2, whose theta-gradient times w joins the sweep
    through the tangents (2w/B) D_b. A singular system or non-finite y raises SolverDivergedError.
    """
    G, S = np.asarray(loss_grads, dtype=np.float64), model.upsample.matrix
    if jac_weight:
        psi, encode_vjp, encode_jvp = model.encode(Z_star, X)
        D = model.jacobian_factors(psi, encode_vjp)
        J, tangents = D @ S, (2.0 * jac_weight / len(D)) * D
        penalty = float(np.einsum("bkn,bkn->", D, D)) / len(D)
    else:
        J, (psi, _, encode_jvp) = model.readout_map(Z_star + X)[1](np.zeros((len(G), S.shape[1])))
        tangents, penalty = None, 0.0
    try:
        Y = np.linalg.solve(np.eye(S.shape[1]) - J.transpose(0, 2, 1), (G @ S)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverDivergedError(f"singular adjoint system: {exc}", step=0) from exc
    if not np.isfinite(Y).all():
        raise SolverDivergedError("non-finite adjoint values", step=0)
    return model.pullback_theta(psi, Y @ S.T, encode_jvp, tangents), penalty


@dataclass
class Unroll:
    """An L-layer unroll: the iterates z(0) = 0, ..., z(L) of z(i+1) = f(z(i); x), and per
    layer the encoded input (psi, vjp) that its forward pass read."""

    iterates: list
    encodings: list


def unroll_backward_batch(model: FixedPointLayer, unroll: Unroll, loss_grads) -> np.ndarray:
    """Reverse accumulation through an unroll's stored encodings (weight-tied theta).

    The cotangents chain back through layers L, ..., 2 with ``pullback_z`` on each layer's
    own encoding; then one ``pullback_theta`` over the L layers' stacked encoded rows and
    cotangents gives the sum over layers. Nothing is encoded again.
    """
    cots = [np.asarray(loss_grads, dtype=np.float64)]
    for psi, encode_vjp in unroll.encodings[:0:-1]:
        cots.append(model.pullback_z(psi, encode_vjp, cots[-1]))
    stacked = np.concatenate([psi for psi, _ in unroll.encodings[::-1]])
    return model.pullback_theta(stacked, np.concatenate(cots))


def direct_unroll_batch(model: FixedPointLayer, X: np.ndarray, depth: int) -> Unroll:
    """The ``Unroll`` of z(i+1) = f(z(i); x) from z(0) = 0 over ``depth`` layers, for
    ``unroll_backward_batch``."""
    if depth < 1:
        raise DimensionError("unroll depth must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    S = model.upsample.matrix
    unroll = Unroll([np.zeros_like(X)], [])
    for _ in range(depth):
        psi, encode_vjp, _ = model.encode(unroll.iterates[-1], X)
        unroll.encodings.append((psi, encode_vjp))
        unroll.iterates.append(model.readouts(psi) @ S.T)
    return unroll


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
    unroll = direct_unroll_batch(model, X, depth)
    last, prev = unroll.iterates[-1], unroll.iterates[-2]
    if depth == 1:
        last, prev = model.readouts(model.encode(last, X)[0]) @ model.upsample.matrix.T, last
    residual = _relative(last - prev, last)[0]
    return unroll.iterates[-1], residual, lambda dz, w: (unroll_backward_batch(model, unroll, dz), 0.0), 0
