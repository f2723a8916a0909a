"""Seeded synthetic dataset files in the official on-disk layouts.

Writes MNIST-layout IDX files (28x28, 10 classes) and CIFAR-10 binary batches
(5 data batches plus a test batch). Every image is its class prototype plus
Gaussian noise, so a classifier trained on them learns. Prototypes are
coarse 4x4 intensity grids blown up to the image size: after the program's
own 4x4 average pooling or 10x10 bilinear resize the classes stay apart.
Besides pixel noise, which pooling averages away, each image gets noise on
the same coarse 4x4 grid, which survives it: the classes overlap a little,
so the training loss settles well above zero instead of vanishing.

The prototypes are the same for every seed, so every seed poses a task of
the same difficulty and the benchmark's loss, accuracy and residual figures
compare across seeds; the seed draws the noise, the labels and their order.
The program reads these files only through ``qdeq.datasets.prepare_bundle``.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

NUM_CLASSES = 10
PIXEL_NOISE = 0.25
COARSE_NOISE = 0.1
PROTOTYPE_SEED = 20241031

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _prototypes(channels: int, side: int) -> np.ndarray:
    """(classes, channels, side, side) two-level prototypes (0.1 or 0.9 per cell), fixed for all seeds."""
    grids = 0.1 + 0.8 * (np.random.default_rng(PROTOTYPE_SEED).random((NUM_CLASSES, channels, 4, 4)) < 0.5)
    block = np.ones((side // 4, side // 4))
    return np.kron(grids, block)


def _balanced_labels(rng, per_class: int) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(NUM_CLASSES), per_class)).astype(np.uint8)


def _draw(rng, protos: np.ndarray, labels: np.ndarray, chunk: int = 256) -> np.ndarray:
    """uint8 images, drawn in chunks so the generator adds little to peak memory."""
    out = np.empty((labels.shape[0],) + protos.shape[1:], dtype=np.uint8)
    for start in range(0, labels.shape[0], chunk):
        part = labels[start : start + chunk]
        shape = (part.shape[0],) + protos.shape[1:]
        coarse = np.kron(rng.standard_normal(shape[:2] + (4, 4)), np.ones((shape[-1] // 4, shape[-1] // 4)))
        images = protos[part] + COARSE_NOISE * coarse + PIXEL_NOISE * rng.standard_normal(shape)
        out[start : start + chunk] = np.round(255.0 * np.clip(images, 0.0, 1.0))
    return out


def write_mnist(root: Path, seed: int, train_per_class: int, test_per_class: int) -> Path:
    """IDX image/label pairs under ``root/mnist``; returns that directory."""
    rng = np.random.default_rng([seed, 0x1D8])
    protos = _prototypes(1, 28)
    out = Path(root) / "mnist"
    out.mkdir(parents=True, exist_ok=True)
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        labels = _balanced_labels(rng, per_class)
        images = _draw(rng, protos, labels)[:, 0]
        image_name, label_name = MNIST_FILES[split]
        (out / image_name).write_bytes(struct.pack(">IIII", 0x803, len(labels), 28, 28) + images.tobytes())
        (out / label_name).write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return out


def write_cifar(root: Path, seed: int, batch_per_class: int, test_per_class: int) -> Path:
    """Five data batches and a test batch under ``root/cifar-10-batches-bin``."""
    rng = np.random.default_rng([seed, 0xC1F])
    protos = _prototypes(3, 32)
    out = Path(root) / "cifar-10-batches-bin"
    out.mkdir(parents=True, exist_ok=True)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for name in names:
        per_class = test_per_class if name == "test_batch.bin" else batch_per_class
        labels = _balanced_labels(rng, per_class)
        pixels = _draw(rng, protos, labels).reshape(len(labels), -1)
        (out / name).write_bytes(np.concatenate([labels[:, None], pixels], axis=1).tobytes())
    return out
