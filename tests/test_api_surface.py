"""The public API that the benchmark harness relies on.

``from qdeq import *`` fails if ``__all__`` names a function that no longer
exists, and the benchmark's gradient gate (``benchmarks/gate.py``) must pass
on the library as it stands, so an API change that would break the benchmark
fails here first.
"""
import numpy as np
import pytest

from qdeq.qmodel import build_default_model

import gate  # the benchmark's correctness gate; tests/conftest.py puts benchmarks/ on the path


def test_star_import_resolves():
    namespace = {}
    exec("from qdeq import *", namespace)
    import qdeq

    assert set(qdeq.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "encoding, num_qubits, input_dim",
    [("amplitude", 4, 16), ("angle", 4, 16), ("amplitude", 10, 100)],
)
def test_benchmark_gradient_gate_passes(encoding, num_qubits, input_dim):
    model = build_default_model(encoding, num_qubits, input_dim, seed=3)
    X = np.random.default_rng(4).uniform(0.1, 1.0, size=(3, input_dim))
    checks = gate.gradient_checks(model, X, seed=5)
    assert len(checks) == min(4, model.num_params) + 1
    failed = [(label, got, expected) for label, got, expected, ok in checks if not ok]
    assert not failed
