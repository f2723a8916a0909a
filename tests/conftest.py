"""Shared fixtures: dataset gating, dense-matrix oracles, synthetic data."""
from __future__ import annotations

import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from qdeq.datasets import dataset_available
from qdeq.training import DataBundle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import synthdata  # noqa: E402  (the benchmark's dataset writer, shared with the tests)


def data_dir():
    value = os.environ.get("QDEQ_DATA_DIR")
    return Path(value) if value else None


def require_dataset(name: str):
    if not dataset_available(name, data_dir()):
        pytest.skip(f"{name} files not found; point QDEQ_DATA_DIR at the official data")
    return data_dir()


def require_slow():
    if os.environ.get("QDEQ_RUN_SLOW") != "1":
        pytest.skip("full-budget run; set QDEQ_RUN_SLOW=1 to enable")


# ---------------------------------------------------------------------------
# dense-matrix oracle: builds full 2^Q x 2^Q unitaries the slow, obvious way

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _rot_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _kron_chain(factors):
    # qubit 0 is the least significant bit, so it sits rightmost in the chain:
    # full = kron(f_{Q-1}, ..., f_1, f_0)
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = np.kron(out, f)
    return out


def dense_gate(gate, theta, num_qubits: int) -> np.ndarray:
    if gate.kind == "cnot":
        on = [_I2] * num_qubits
        off = [_I2] * num_qubits
        off[gate.control] = _P0
        on[gate.control] = _P1
        on[gate.target] = _X
        return _kron_chain(off) + _kron_chain(on)
    factors = [_I2] * num_qubits
    angle = theta[gate.param_slot] if gate.param_slot is not None else gate.fixed_angle
    factors[gate.target] = _rot_matrix(gate.kind, angle)
    return _kron_chain(factors)


def dense_circuit(circuit, theta) -> np.ndarray:
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate(gate, theta, circuit.num_qubits) @ u
    return u


@pytest.fixture
def dense_oracle():
    return dense_circuit


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
