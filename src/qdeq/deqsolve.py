"""Fixed-point forward pass, implicit backward pass with its Jacobian penalty, explicit unrolling.

The layer is f(z; x) = S E(z + x): K readouts E taken back to the input width
n = rK by the upsample matrix S (n, K), which the model derives from K and n
(``model.upsample``). S is an isometry (S^T S = I), so every fixed point is
z* = S e* with e* = E(S e* + x), and the implicit solver works on the K
readouts. The forward pass solves g(e) = E(S e + x) - e = 0 with a "good
Broyden" solver: each row keeps a dense K x K inverse-Jacobian estimate, from
-I (exact for a locally constant E, so step one is a plain fixed-point step).
It reads E, and the backward its K x K Jacobian at e*, through one per-batch
``readout_map`` of the model. The backward solves the implicit function
theorem's adjoint system exactly, one batched K x K solve whose solution is the
readout cotangent of the one theta-sweep. With the penalty on, the Jacobian
factors give mean_b ||J_b||_F^2 exactly and its theta-gradient joins that sweep.
``solve_batch`` runs one training or evaluation batch through either solve or
a weight-tied unroll, which stays n wide. The unroll keeps each layer's encoded
input and its backward pulls back through those, so a depth-L step encodes L
times.

The solvers and unrolls work on batches only: z, x and cotangents are (B, n)
arrays, and a single sample is a one-row batch. One Broyden call may solve several
batches, each stopping on its own; a batch's rows still share its stop. The theta-gradient is linear
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

    ``readout_map(X)`` gives the K-space layer e -> E(S e + x) and its Jacobian. ``encoder(X)`` gives
    e -> (psi, vjp, jvp) of the layer inputs S e + x; ``readouts``, the two pullbacks and
    ``jacobian_factors`` read them, so each solver encodes a layer input once.
    """

    upsample: UpsampleMap

    def readout_map(self, X): ...

    def encoder(self, X): ...

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
    batch_rows: int | None = None,
) -> BatchFixedPoint:
    """Solve g(Z) = 0 row-wise; every sample runs its own dense (m, m) inverse-Jacobian estimate H.

    Rows come in consecutive batches of ``batch_rows`` (all rows when None; the last may be shorter).
    A batch stops at the first step where all its rows have a best ||G|| <= ``abs_tol``, so it couples
    its rows; then its best iterates, residuals and flags freeze and its step is zeroed, so its trace
    repeats. ``steps_taken`` is the largest stop. With a row-wise g that names the rows it rejects,
    each row ends bit-identical to a solve of its batch alone.

    Each step makes three passes over the estimates, from H = -I: Q = H G_new, the row
    v = dZ^T H and the good-Broyden update H += u v^T. The step direction P = H G carries over
    from the step before, so H dG = Q - P, and the next direction is H_new G_new = Q + u (v . G_new).
    The state is stored batch-last, so every per-row contraction runs along the batch: the
    iterates, G, P and the best iterate as (m, B), H as (m, m, B). ``g`` still receives and returns
    (B, m) arrays, transposed views of that storage, and ``z_star`` is (B, m).
    Returns the per-sample iterate with the smallest relative residual among those visited.
    Non-finite g output raises SolverDivergedError with the step index; a DegenerateInputError
    from g (an iterate the encoder rejects) halves the rows it names (all rows if it names none)
    once before failing hard.
    """

    def evaluate(Zc, step):  # Zc and G (m, B)
        try:
            G = g(Zc.T)
        except DegenerateInputError as exc:
            Zc = Zc.copy()
            Zc[:, slice(None) if exc.rows is None else exc.rows] *= 0.5
            G = g(Zc.T)
        G = np.ascontiguousarray(np.transpose(G), dtype=np.float64)
        if not np.isfinite(G).all():
            raise SolverDivergedError(f"non-finite solver values at step {step}", step=step)
        return Zc, G

    Z, G = evaluate(np.array(np.transpose(Z0), dtype=np.float64, order="C"), 0)
    m, B = Z.shape
    F, trace = np.empty((2, m, B)), np.empty((cfg.max_steps + 1, B))

    def norms(G, Z, step):
        """(relative residual, written to trace[step], and ||G||) per row: both norms from one
        contraction of the stacked G and f = G + Z."""
        np.copyto(F[0], G)
        np.add(G, Z, out=F[1])
        gnorm, fnorm = np.sqrt(np.einsum("skb,skb->sb", F, F))
        fnorm += _EPS
        return np.divide(gnorm, fnorm, out=trace[step]), gnorm

    rel, best_gnorm = norms(G, Z, 0)
    best_rel, best_Z = rel.copy(), Z.copy()
    H, P = np.repeat(-np.eye(m)[:, :, None], B, axis=2), -G

    steps, live, starts = 0, None, np.arange(0, B, batch_rows or B)
    for step in range(1, cfg.max_steps + 1):
        Znew, G = evaluate(Z - P, step)
        rel, gnorm = norms(G, Znew, step)
        better = rel < best_rel if live is None else (rel < best_rel) & live
        np.copyto(best_rel, rel, where=better)
        np.copyto(best_gnorm, gnorm, where=better)
        np.copyto(best_Z, Znew, where=better)
        steps = step
        if best_gnorm.max() <= cfg.abs_tol:
            break
        if len(starts) > 1:  # the rows of the batches that have not stopped
            live = np.repeat(np.maximum.reduceat(best_gnorm, starts) > cfg.abs_tol, batch_rows)[:B]
        dZ = Znew - Z
        Q = np.einsum("ijb,jb->ib", H, G)
        HdG = Q - P
        denom = np.einsum("nb,nb->b", dZ, HdG)
        u = np.divide(dZ - HdG, denom, out=np.zeros_like(dZ), where=np.abs(denom) > 1e-30)
        v = np.einsum("ib,ijb->jb", dZ, H)
        H += u[:, None] * v
        P = Q + u * np.einsum("jb,jb->b", v, G)
        if live is not None:
            np.copyto(P, 0.0, where=~live)
        Z = Znew

    return BatchFixedPoint(
        z_star=np.ascontiguousarray(best_Z.T),
        residual=best_rel,
        converged=best_gnorm <= cfg.abs_tol,
        steps_taken=steps,
        trace=trace[: steps + 1],
    )


def forward_fixed_point_batch(
    model: FixedPointLayer, X: np.ndarray, cfg: BroydenConfig = BroydenConfig(), readout_map=None, batch_rows=None
) -> BatchFixedPoint:
    """Solve f(z; x) = z for every row of X: Broyden on e = E(S e + x) from e0 = 0; z* = S e*.
    ``readout_map`` is the model's ``readout_map(X)``, built here when None; ``batch_rows`` as in
    ``broyden_root_batch``."""
    S, readouts = model.upsample.matrix, (readout_map or model.readout_map(X))[0]
    fp = broyden_root_batch(lambda E: readouts(E) - E, np.zeros((len(X), S.shape[1])), cfg, batch_rows)
    return replace(fp, z_star=fp.z_star @ S.T)


def implicit_backward_batch(model: FixedPointLayer, X: np.ndarray, Z_star, loss_grads, jac_weight=0.0,
                            readout_map=None):
    """Exact adjoint solve of the implicit function theorem; returns (sum_b dtheta_b, penalty).

    With J_b = S D_b (D_b from ``jacobian_factors``, S^T S = I), (I - J_b^T) q_b = g_b has the
    solution q_b = g_b + D_b^T y_b, where (I_K - (D_b S)^T) y_b = S^T g_b: one batched K x K
    solve. The theta-sweep reads q_b only through its readout cotangent q_b S = y_b, so it gets
    y_b S^T. z* + x is encoded once. At ``jac_weight`` w = 0, D_b S and that encoding come from
    ``readout_map`` (the forward's map of X) at e* = z* S, exact at a fixed point z* = S e*, or with
    none from the map of z* + x at e = 0; the penalty is 0. w > 0 builds D_b, from ``encoder(z* + x)``
    at e = 0, for the exact penalty mean_b ||J_b||_F^2 = mean_b ||D_b||_F^2, whose theta-gradient
    times w joins the sweep through the tangents (2w/B) D_b. A singular system or non-finite y raises
    SolverDivergedError.
    """
    G, S = np.asarray(loss_grads, dtype=np.float64), model.upsample.matrix
    if jac_weight:
        psi, encode_vjp, encode_jvp = model.encoder(Z_star + X)(np.zeros((len(X), S.shape[1])))
        D = model.jacobian_factors(psi, encode_vjp)
        J, tangents = D @ S, (2.0 * jac_weight / len(D)) * D
        penalty = float(np.einsum("bkn,bkn->", D, D)) / len(D)
    else:
        if readout_map is None:
            readout_map, Z_star = model.readout_map(Z_star + X), np.zeros_like(Z_star)
        J, (psi, _, encode_jvp) = readout_map[1](Z_star @ S)
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
    S, encode = model.upsample.matrix, model.encoder(X)
    E, unroll = np.zeros((len(X), S.shape[1])), Unroll([np.zeros_like(X)], [])
    for _ in range(depth):
        psi, encode_vjp, _ = encode(E)
        unroll.encodings.append((psi, encode_vjp))
        E = model.readouts(psi)
        unroll.iterates.append(E @ S.T)
    return unroll


def solve_batch(model: FixedPointLayer, X: np.ndarray, depth: int, cfg: BroydenConfig = BroydenConfig(),
                batch_rows=None):
    """(z, per-sample residual, backward: (dz, jac_weight) -> (dtheta, penalty), unconverged rows).

    Depth 0 is the fixed-point solve and its implicit backward with the
    Jacobian penalty at z*, which share one ``readout_map(X)``; unconverged
    rows are those the Broyden solver left above ``abs_tol``. X may hold
    several batches of ``batch_rows`` (``broyden_root_batch``): each stops on
    its own, as if solved alone, but a batch still couples its rows. Depth L >= 1
    unrolls L layers (one more layer for the residual when L is 1) and
    reports 0 unconverged rows; its rows are independent, so it ignores
    ``batch_rows``. With no fixed point to penalize, its backward ignores
    ``jac_weight`` and returns 0 for it.
    """
    if depth == 0:
        readout_map = model.readout_map(X)
        fp = forward_fixed_point_batch(model, X, cfg, readout_map, batch_rows)
        z, unconverged = fp.z_star, int(np.count_nonzero(~fp.converged))
        return z, fp.residual, lambda dz, w: implicit_backward_batch(model, X, z, dz, w, readout_map), unconverged
    unroll = direct_unroll_batch(model, X, depth + (depth == 1))  # depth 1 runs a second layer for its residual
    residual = _relative(unroll.iterates[-1] - unroll.iterates[-2], unroll.iterates[-1])[0]
    if depth == 1:
        unroll = Unroll(unroll.iterates[:2], unroll.encodings[:1])
    return unroll.iterates[-1], residual, lambda dz, w: (unroll_backward_batch(model, unroll, dz), 0.0), 0
