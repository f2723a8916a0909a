"""Shared fixtures: dataset gating, the library's one-state adjoint route, synthetic data."""
from __future__ import annotations

import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from qdeq.datasets import _FILES, _find
from qdeq.measurement import ObservableEnsemble
from qdeq.simcore import ParamCircuit, adjoint_sweep, apply_ops, random_layer, resolve_circuit
from qdeq.training import DataBundle

import oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import synthdata  # noqa: E402  (the benchmark's dataset writer, shared with the tests)


def data_dir():
    value = os.environ.get("QDEQ_DATA_DIR")
    return Path(value) if value else None


def dataset_available(dataset: str, root) -> bool:
    """Whether every file ``datasets._FILES`` lists for ``dataset`` is found under ``root``."""
    return root is not None and all(_find(Path(root), dataset, f) for f in _FILES[dataset])


def require_dataset(name: str):
    if not dataset_available(name, data_dir()):
        pytest.skip(f"{name} files not found; point QDEQ_DATA_DIR at the official data")
    return data_dir()


def require_slow():
    if os.environ.get("QDEQ_RUN_SLOW") != "1":
        pytest.skip("full-budget run; set QDEQ_RUN_SLOW=1 to enable")


# ---------------------------------------------------------------------------
# the library's reverse route on one state, and criterion 1's gradient comparison


def adjoint_gradient(circuit, theta, amps, cotangent, diags):
    """(dtheta, dE/d(conj(input amplitudes))) of E = sum_k cotangent_k <M_k> for the diagonal
    observables ``diags``: the library's ``resolve_circuit``, ``apply_ops`` and ``adjoint_sweep`` on
    the one state ``amps``, with the bra (cotangent @ diags) * U|amps>."""
    ops = resolve_circuit(circuit, theta)
    final = apply_ops(ops, np.array(amps, dtype=np.complex128)[None])
    bra = (np.asarray(cotangent, dtype=np.float64) @ diags)[None] * final
    dtheta, back = adjoint_sweep(ops, final, bra, num_params=circuit.num_params)
    return dtheta, back[0]


def worst_gradient_gap(seed=2024, count=50, max_qubits=6, num_ops=(3, 21)):
    """The worst pairwise gap between three gradients of each Pauli-Z readout, over ``count`` seeded
    random circuits of 1 to 16 parameters, each on a random complex state: the library's adjoint
    (``adjoint_gradient``) and the dense oracle's parameter shift and central difference."""
    rng = np.random.default_rng(seed)
    checked = circuit_seed = 0
    worst = 0.0
    while checked < count:
        circuit_seed += 1
        num_qubits = int(rng.integers(1, max_qubits + 1))
        gates, theta = random_layer(circuit_seed, num_qubits, int(rng.integers(*num_ops)))
        circuit = ParamCircuit.from_gates(num_qubits, gates)
        if not 1 <= circuit.num_params <= 16:
            continue
        checked += 1
        amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
        amps /= np.linalg.norm(amps)
        diags = ObservableEnsemble.pauli_z_all(num_qubits).diagonals(num_qubits)
        adjoint = np.stack(
            [adjoint_gradient(circuit, theta, amps, onehot, diags)[0] for onehot in np.eye(num_qubits)]
        )  # (K, p)
        oracle_diags = oracle.pauli_z_diagonals(num_qubits)
        for slot in range(circuit.num_params):
            shift = oracle.parameter_shift(circuit, theta, amps, oracle_diags, slot)
            fd = oracle.central_difference(circuit, theta, amps, oracle_diags, slot)
            worst = max(
                worst,
                np.abs(adjoint[:, slot] - shift).max(),
                np.abs(adjoint[:, slot] - fd).max(),
                np.abs(shift - fd).max(),
            )
    return worst


# ---------------------------------------------------------------------------
# synthetic bundles and IDX fixtures


def synthetic_bundle(seed=0, n_train=400, n_val=100, n_test=100, n=16, classes=4, noise=0.12):
    """Separable Gaussian-blob classification sharing prototypes across splits."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.2, 1.0, size=(classes, n))

    def draw(count):
        y = rng.integers(0, classes, size=count)
        x = np.clip(protos[y] + rng.normal(0, noise, size=(count, n)), 0.0, 1.0)
        return x, y

    xt, yt = draw(n_train)
    xv, yv = draw(n_val)
    xe, ye = draw(n_test)
    return DataBundle("mnist4", xt, yt, xv, yv, xe, ye)


@pytest.fixture
def small_bundle():
    return synthetic_bundle()


def _idx_image_bytes(images_u8: np.ndarray) -> bytes:
    n, h, w = images_u8.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + images_u8.tobytes()


def _idx_label_bytes(labels_u8: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, labels_u8.shape[0]) + labels_u8.tobytes()


@pytest.fixture(scope="session")
def digits_data_dir(tmp_path_factory) -> Path:
    """A stand-in data root covering all four dataset layouts.

    The benchmark's seeded generator writes learnable MNIST-layout IDX files
    (served as mnist and, from another seed, as fashion-mnist) and CIFAR-10
    binary batches, with numpy only.
    """
    base = tmp_path_factory.mktemp("synthetic-data")
    synthdata.write_mnist(base, 0, train_per_class=130, test_per_class=50)
    fashion = synthdata.write_mnist(base / "fashion", 1, train_per_class=130, test_per_class=50)
    fashion.rename(base / "fashion-mnist")
    synthdata.write_cifar(base, 0, batch_per_class=6, test_per_class=3)
    return base
