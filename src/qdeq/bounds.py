"""Numerical verification of the encoding/contraction bounds.

Each verifier samples its stated domain, checks the exact inequality with a
1e-12 slack allowance, and reports violation counts plus the worst margin
(minimum of bound - observed). The overlap verifiers take their overlaps from
the amplitudes ``encoding.encode`` returns; the angle one also emits the
plot-ready (dist_sq, overlap, bound) table. The contraction verifier reads the
model's readouts from ``QuantumModel.expectations``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
import numpy as np

from .encoding import AMPLITUDE, ANGLE, EncodingSpec, encode
from .errors import DimensionError
from .measurement import PAULI_Z

_SLACK = 1e-12


@dataclass
class BoundReport:
    num_samples: int
    violations: int
    worst_margin: float
    samples_csv: list | None = None  # (dist_sq, overlap, bound) rows for plotting

    @property
    def ok(self) -> bool:
        return self.violations == 0


def write_csv(report: BoundReport, path) -> None:
    if report.samples_csv is None:
        raise DimensionError("report carries no sample table")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist_sq", "overlap", "bound"])
        writer.writerows(report.samples_csv)


def _overlaps(spec: EncodingSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|<encode(z_b)|encode(w_b)>| per row, from the occupied amplitudes."""
    psi_z, psi_w = encode(spec, z)[0], encode(spec, w)[0]
    return np.abs(np.einsum("bi,bi->b", psi_z.conj(), psi_w))


def _unit_rows(rng, count, dim):
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ball_rows(rng, count, dim, radius=1.0):
    direction = _unit_rows(rng, count, dim)
    return direction * (radius * rng.random(count) ** (1.0 / dim))[:, None]


def _amplitude_pairs(rng, num_pairs, dim):
    """Unit-vector pairs with ||z - z'|| <= 1 (rejection on the renormalized step)."""
    zs, ws = [], []
    need = num_pairs
    while need > 0:
        z = _unit_rows(rng, 2 * need, dim)
        w = z + _ball_rows(rng, 2 * need, dim)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        keep = np.linalg.norm(z - w, axis=1) <= 1.0
        zs.append(z[keep][:need])
        ws.append(w[keep][:need])
        need -= zs[-1].shape[0]
    return np.concatenate(zs), np.concatenate(ws)


def verify_amplitude_overlap(num_pairs: int, seed: int = 0, dim: int = 16) -> BoundReport:
    """Amplitude-encoding overlap identity and the c=1 overlap bound.

    For unit vectors with ||z - z'|| <= 1: <z|z'> = 1 - ||z - z'||^2 / 2
    exactly, and 1 - <z|z'>^2 <= ||z - z'||^2, whose margin is reported.
    """
    rng = np.random.default_rng(seed)
    z, w = _amplitude_pairs(rng, num_pairs, dim)
    spec = EncodingSpec(AMPLITUDE, max(1, int(np.ceil(np.log2(dim)))), dim)
    overlap = _overlaps(spec, z, w)
    dist_sq = np.linalg.norm(z - w, axis=1) ** 2
    identity_err = np.abs(overlap - (1.0 - 0.5 * dist_sq))
    bound_margin = dist_sq - (1.0 - overlap**2)
    violations = int((identity_err > _SLACK).sum() + (bound_margin < -_SLACK).sum())
    return BoundReport(
        num_samples=num_pairs,
        violations=violations,
        worst_margin=float(bound_margin.min()),
    )


def _angle_pairs(rng, num_pairs, num_qubits):
    dim = 4 * num_qubits
    z = rng.uniform(0.0, 2.0 * np.pi, size=(num_pairs, dim))
    return z, z + _ball_rows(rng, num_pairs, dim)


def verify_angle_overlap(num_pairs: int = 3000, seed: int = 0) -> BoundReport:
    """Single-qubit overlap >= 1 - sin(||z - z'||^2) on random pairs with
    ||z - z'|| <= 1, plus the multi-qubit product-composition bound for
    Q in {2, 4}. The sample table holds the single-qubit scatter."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    rows = None
    total = 0
    for num_qubits in (1, 2, 4):
        z, w = _angle_pairs(rng, num_pairs, num_qubits)
        spec = EncodingSpec(ANGLE, num_qubits, 4 * num_qubits)
        overlap = _overlaps(spec, z, w)
        dist_sq = np.linalg.norm(z - w, axis=1) ** 2
        bound = 1.0 - np.sin(dist_sq)
        margin = overlap - bound
        violations += int((margin < -_SLACK).sum())
        worst = min(worst, float(margin.min()))
        total += num_pairs
        if num_qubits == 1:
            rows = list(zip(dist_sq.tolist(), overlap.tolist(), bound.tolist()))
    return BoundReport(total, violations, worst, samples_csv=rows)


COMPOSITION = "composition"
UNIT_SQUARE = "unit_square"


def verify_trig_inequality(num_samples: int, seed: int = 0, domain: str = COMPOSITION) -> BoundReport:
    """(1 - sin a)(1 - sin b) >= 1 - sin(a + b) on the product-composition domain.

    The multi-qubit overlap bound chains this pairwise inequality over partial
    sums of per-qubit squared distances, which never exceed the total
    ||z - z'||^2 <= 1 -- so the domain that matters is {a, b > 0, a + b <= 1}
    (the default). The inequality is FALSE on the full unit square: for
    a = b > 2*atan(1/2) ~ 0.927 the sign flips (e.g. a = b = 0.99), so
    ``domain='unit_square'`` exists to demonstrate exactly that.
    """
    if domain not in (COMPOSITION, UNIT_SQUARE):
        raise DimensionError(f"unknown domain {domain!r}")
    rng = np.random.default_rng(seed)
    a = rng.random(num_samples)
    b = rng.random(num_samples)
    if domain == COMPOSITION:
        # uniform on the triangle a, b > 0, a + b <= 1 (fold the square)
        over = a + b > 1.0
        a[over], b[over] = 1.0 - a[over], 1.0 - b[over]
    margin = (1.0 - np.sin(a)) * (1.0 - np.sin(b)) - (1.0 - np.sin(a + b))
    return BoundReport(num_samples, int((margin < -_SLACK).sum()), float(margin.min()))


def verify_contraction_bound(model, num_pairs: int, seed: int = 0) -> BoundReport:
    """Per-observable |<M>_z - <M>_z'| against the trace-distance bound.

    Pauli ensembles get the factor-2 trace-norm bound, basis projectors the
    sharpened factor-1 version. Expectations are the model's own readouts;
    trace distances use the encoded states (unitarily invariant).
    """
    rng = np.random.default_rng(seed)
    n = model.input_dim
    if model.encoding.kind == AMPLITUDE:
        z = _unit_rows(rng, num_pairs, n)
        w = z + _ball_rows(rng, num_pairs, n)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    else:
        z, w = _angle_pairs(rng, num_pairs, model.num_qubits)
    zeros = np.zeros_like(z)
    delta = np.abs(model.expectations(z, zeros) - model.expectations(w, zeros))
    overlap = _overlaps(model.encoding, z, w)
    tdist = np.sqrt(np.clip(1.0 - overlap**2, 0.0, None))
    factor = 2.0 if model.ensemble.kind == PAULI_Z else 1.0
    margin = factor * tdist[:, None] - delta
    return BoundReport(num_pairs, int((margin < -_SLACK).sum()), float(margin.min()))


def renormalization_shift(num_pairs: int, seed: int = 0, dim: int = 16) -> dict:
    """Diagnostic for the re-encode step: ||u - v|| vs ||u/|u| - v/|v|||.

    Amplitude encoding normalizes each iterate before it re-enters the layer,
    and that normalization can shrink or grow pair distances. This is reported,
    not asserted: contraction through the normalization is a conjecture, so the
    numbers are for inspection only.
    """
    rng = np.random.default_rng(seed)
    # scales straddle 1 because layer outputs do: normalization then shrinks
    # some pair distances and expands others
    du = _unit_rows(rng, num_pairs, dim)
    dv = du + 0.3 * _ball_rows(rng, num_pairs, dim)
    dv /= np.linalg.norm(dv, axis=1, keepdims=True)
    scale_u = np.exp(rng.uniform(np.log(0.2), np.log(2.0), num_pairs))[:, None]
    scale_v = np.exp(rng.uniform(np.log(0.2), np.log(2.0), num_pairs))[:, None]
    u = du * scale_u
    v = dv * scale_v
    raw = np.linalg.norm(u - v, axis=1)
    u_hat = u / np.linalg.norm(u, axis=1, keepdims=True)
    v_hat = v / np.linalg.norm(v, axis=1, keepdims=True)
    normalized = np.linalg.norm(u_hat - v_hat, axis=1)
    ratio = normalized / np.where(raw > 0, raw, 1.0)
    return {
        "num_pairs": num_pairs,
        "mean_ratio": float(ratio.mean()),
        "max_ratio": float(ratio.max()),
        "min_ratio": float(ratio.min()),
        "expanded_fraction": float((ratio > 1.0).mean()),
    }


L2 = "l2"
MAX = "max"
ANY = "any"
UNIT_FAR = "unit_far"


def estimate_lipschitz(
    model,
    num_pairs: int,
    norm: str = L2,
    constraint: str = ANY,
    seed: int = 0,
) -> float:
    """Sampled max of ||f(z, x) - f(z', x)|| / ||z - z'|| with x fixed per pair.

    ``unit_far`` rescales pairs so ||z - z'|| >= 1 in the chosen norm, the
    regime of the sub-contraction claim.
    """
    if norm not in (L2, MAX):
        raise DimensionError(f"unknown norm {norm!r}")
    if constraint not in (ANY, UNIT_FAR):
        raise DimensionError(f"unknown constraint {constraint!r}")
    ord_ = 2 if norm == L2 else np.inf
    rng = np.random.default_rng(seed)
    n = model.input_dim
    z = rng.normal(size=(num_pairs, n))
    w = rng.normal(size=(num_pairs, n))
    x = rng.uniform(0.1, 1.0, size=(num_pairs, n))
    diff = w - z
    dist = np.linalg.norm(diff, ord=ord_, axis=1)
    if constraint == UNIT_FAR:
        target = 1.0 + rng.random(num_pairs)
        w = z + diff * (target / dist)[:, None]
        dist = target
    fz = model.forward_batch(z, x)
    fw = model.forward_batch(w, x)
    ratios = np.linalg.norm(fz - fw, ord=ord_, axis=1) / dist
    return float(ratios.max())
