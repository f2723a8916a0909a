"""Gradient checks run at a workload's own shape and encoding before timing.

``backward_batch`` is checked against two references that share none of its
code: the parameter-shift rule on single states for a few theta slots, and a
central finite difference of the forward pass along a random direction for
the iterate cotangent dZ.
"""
from __future__ import annotations

import numpy as np

import qdeq
from qdeq import encoding as enc

PSHIFT_RTOL, PSHIFT_ATOL = 1e-8, 1e-10
FD_STEP, FD_RTOL, FD_ATOL = 1e-5, 1e-6, 1e-8


def _input_state(model, combined: np.ndarray) -> qdeq.StateVector:
    """The encoded state the trainable circuit acts on, built from public API."""
    q = model.num_qubits
    if model.encoding.kind == enc.AMPLITUDE:
        return qdeq.amplitude_encode(combined, q)
    encoder = qdeq.ParamCircuit.from_gates(q, qdeq.angle_encode(combined, q))
    return qdeq.apply_circuit(encoder, np.zeros(0), qdeq.StateVector.zero(q))


def gradient_checks(model, X: np.ndarray, seed: int, num_slots: int = 4):
    """[(label, got, expected, ok)] for theta slots and one dZ direction."""
    rng = np.random.default_rng([seed, 0x6A7E])
    X = np.asarray(X, dtype=np.float64)
    Z = 0.1 * rng.standard_normal(X.shape)
    C = rng.standard_normal(X.shape)
    dZ, dtheta = model.backward_batch(Z, X, C)

    results = []
    picks = rng.choice(model.num_params, size=min(num_slots, model.num_params), replace=False)
    for slot in sorted(int(s) for s in picks):
        expected = 0.0
        for b in range(X.shape[0]):
            state = _input_state(model, Z[b] + X[b])
            dexp = qdeq.parameter_shift_grad(model.circuit, model.theta, state, model.ensemble, slot)
            expected += float(C[b] @ qdeq.upsample(dexp, model.upsample))
        got = float(dtheta[slot])
        ok = abs(got - expected) <= PSHIFT_ATOL + PSHIFT_RTOL * abs(expected)
        results.append((f"dtheta[{slot}] vs parameter shift", got, expected, ok))

    D = rng.standard_normal(X.shape)

    def phi(t):
        return float(np.sum(C * model.forward_batch(Z + t * D, X)))

    expected = (phi(FD_STEP) - phi(-FD_STEP)) / (2.0 * FD_STEP)
    got = float(np.sum(dZ * D))
    ok = abs(got - expected) <= FD_ATOL + FD_RTOL * abs(expected)
    results.append(("dZ vs central difference", got, expected, ok))
    return results
