"""The public API that the benchmark harness relies on.

``from qdeq import *`` fails if ``__all__`` names a function that no longer
exists, and the benchmark's gradient gate (``benchmarks/gate.py``) must pass
on the library as it stands, so an API change that would break the benchmark
fails here first.
"""
import inspect

import numpy as np
import pytest

from qdeq.qmodel import build_default_model
from qdeq.simcore import adjoint_sweep, apply_ops

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


def test_simcore_entry_points_keep_the_tracer_argument_names():
    # benchmarks/tracer.py reads these arguments by name and counts one call per circuit pass,
    # so the row-block loop has to stay inside the two functions
    assert list(inspect.signature(apply_ops).parameters) == ["ops", "states"]
    assert list(inspect.signature(adjoint_sweep).parameters) == ["ops", "final_states", "bra", "num_params", "return_bra"]
