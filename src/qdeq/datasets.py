"""IDX / CIFAR-10 binary ingestion and the preprocessing pipeline.

IDX files are read bit-exactly (big-endian, image magic 0x00000803, label
magic 0x00000801) with transparent gzip handling; CIFAR-10 binary batches are
3073-byte records (label byte + 3x1024 pixel planes). The loaders, the class
filter, the subset draw and the split all pass raw uint8 pixels along; only
``_features`` scales them to [0, 1], converts CIFAR planes to grayscale luma
and pools or resizes, a chunk of rows at a time, so no float64 copy of a
whole image set is ever held.
"""
from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError
from .seeding import child_seed, substream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
_CIFAR_RECORD = 1 + 3 * 1024  # CIFAR-10 binary: label byte, then three 32x32 planes


@dataclass
class ImageDataset:
    """Raw uint8 pixels with int64 labels; features come from ``_features``."""

    images: np.ndarray  # (N, H, W) uint8, or (N, 3, H, W) uint8 RGB planes for CIFAR
    labels: np.ndarray  # (N,) int64
    name: str = ""

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError("images and labels differ in length")

    def __len__(self) -> int:
        return self.images.shape[0]


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def _parse_idx_images(raw: bytes, path) -> np.ndarray:
    if len(raw) < 16:
        raise DataFormatError(f"{path}: truncated IDX image header")
    magic, count, height, width = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise DataFormatError(f"{path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
    expected = 16 + count * height * width
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, height, width)


def _parse_idx_labels(raw: bytes, path) -> np.ndarray:
    if len(raw) < 8:
        raise DataFormatError(f"{path}: truncated IDX label header")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != LABEL_MAGIC:
        raise DataFormatError(f"{path}: bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}")
    if len(raw) != 8 + count:
        raise DataFormatError(f"{path}: expected {8 + count} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path, name: str = "") -> ImageDataset:
    images = _parse_idx_images(_read_bytes(images_path), images_path)
    labels = _parse_idx_labels(_read_bytes(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"{images_path} holds {images.shape[0]} images but {labels_path} holds {labels.shape[0]} labels"
        )
    return ImageDataset(images, labels, name)


def _read_cifar_bytes(path) -> bytes:
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        raise DataFormatError(f"{path}: length {len(raw)} is not a multiple of {_CIFAR_RECORD}")
    return raw


def _parse_cifar_records(raw, name: str) -> ImageDataset:
    """Whole 3073-byte records -> uint8 RGB planes (N, 3, 32, 32), views of ``raw``, and labels."""
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    return ImageDataset(data[:, 1:].reshape(-1, 3, 32, 32), data[:, 0].astype(np.int64), name)


def load_cifar_binary(path, name: str = "cifar10") -> ImageDataset:
    """One CIFAR-10 binary batch -> uint8 RGB planes (N, 3, 32, 32) and labels."""
    return _parse_cifar_records(_read_cifar_bytes(path), name)


def avg_pool(image: np.ndarray, out_side: int = 4) -> np.ndarray:
    """Mean over contiguous square windows; side must divide the input side."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape[-2:]
    if h % out_side or w % out_side:
        raise DimensionError(f"{h}x{w} image not divisible into {out_side}x{out_side} outputs")
    wh, ww = h // out_side, w // out_side
    view = image.reshape(*image.shape[:-2], out_side, wh, out_side, ww)
    return view.mean(axis=(-3, -1))


@lru_cache(maxsize=None)
def _bilinear_weights(in_side: int, out_side: int) -> np.ndarray:
    """Corner-aligned row interpolation matrix (out_side, in_side)."""
    mat = np.zeros((out_side, in_side))
    if out_side == 1:
        mat[0, 0] = 1.0
        return mat
    for i in range(out_side):
        src = i * (in_side - 1) / (out_side - 1)
        lo = min(int(np.floor(src)), in_side - 2) if in_side > 1 else 0
        frac = src - lo
        mat[i, lo] += 1.0 - frac
        if in_side > 1:
            mat[i, lo + 1] += frac
    return mat


def resize_bilinear(image: np.ndarray, out_side: int = 10) -> np.ndarray:
    """Standard bilinear resize with corner-aligned sampling (exact identity when sizes match)."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape[-2:]
    rows = _bilinear_weights(h, out_side)
    cols = _bilinear_weights(w, out_side)
    return rows @ image @ cols.T


def filter_classes(dataset: ImageDataset, keep) -> ImageDataset:
    """Order-preserving class filter with ascending label remap."""
    keep_sorted = np.array(sorted(set(int(k) for k in keep)), dtype=np.int64)
    if not keep_sorted.size:
        raise DimensionError("keep set must be nonempty")
    sel = np.isin(dataset.labels, keep_sorted)
    labels = np.searchsorted(keep_sorted, dataset.labels[sel]).astype(np.int64)
    return ImageDataset(dataset.images[sel], labels, dataset.name)


def split(dataset: ImageDataset, train_frac: float = 0.8, seed: int = 0):
    """Seeded uniform shuffle, then prefix split into (train, val)."""
    if not 0.0 < train_frac < 1.0:
        raise DimensionError("train_frac must lie strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(train_frac * len(dataset))
    head, tail = order[:n_train], order[n_train:]
    return (
        ImageDataset(dataset.images[head], dataset.labels[head], dataset.name),
        ImageDataset(dataset.images[tail], dataset.labels[tail], dataset.name),
    )


# ---------------------------------------------------------------------------
# file discovery + per-dataset preprocessing into flat feature bundles

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

_SUBDIRS = {
    "mnist4": ("mnist", "MNIST/raw", "."),
    "mnist10": ("mnist", "MNIST/raw", "."),
    "fashionmnist10": ("fashion-mnist", "fashionmnist", "FashionMNIST/raw", "."),
    "cifar10": ("cifar-10-batches-bin", "cifar10", "."),
}


def _find(data_dir: Path, dataset: str, filename: str):
    for sub in _SUBDIRS[dataset]:
        for suffix in ("", ".gz"):
            candidate = data_dir / sub / (filename + suffix)
            if candidate.is_file():
                return candidate
    return None


def dataset_available(dataset: str, data_dir) -> bool:
    if data_dir is None:
        return False
    data_dir = Path(data_dir)
    if dataset == "cifar10":
        return _find(data_dir, dataset, "data_batch_1.bin") is not None
    return all(_find(data_dir, dataset, f) is not None for f in _MNIST_FILES.values())


def _load_pair(data_dir: Path, dataset: str):
    paths = {}
    for key, filename in _MNIST_FILES.items():
        found = _find(data_dir, dataset, filename)
        if found is None:
            raise DataFormatError(f"{dataset}: {filename} not found under {data_dir}")
        paths[key] = found
    train = load_idx(paths["train_images"], paths["train_labels"], dataset)
    test = load_idx(paths["test_images"], paths["test_labels"], dataset)
    return train, test


def _load_cifar(data_dir: Path):
    # one growing buffer takes each training batch's bytes, so no batch outlives its append
    raw = bytearray()
    for i in range(1, 6):
        found = _find(data_dir, "cifar10", f"data_batch_{i}.bin")
        if found is None:
            raise DataFormatError(f"cifar10: data_batch_{i}.bin not found under {data_dir}")
        raw += _read_cifar_bytes(found)
    test_path = _find(data_dir, "cifar10", "test_batch.bin")
    if test_path is None:
        raise DataFormatError(f"cifar10: test_batch.bin not found under {data_dir}")
    return _parse_cifar_records(raw, "cifar10"), load_cifar_binary(test_path)


_FEATURE_CHUNK_ROWS = 1024  # images scaled to float64 at a time
_LUMA = np.array([0.299, 0.587, 0.114])


def _features(dataset: str, images: np.ndarray) -> np.ndarray:
    """uint8 images (N, H, W) or RGB planes (N, 3, H, W) -> (N, n) float64 features.

    Each chunk of rows is scaled to [0, 1], converted to luma if it has three
    channels, then 4x4 average-pooled (mnist4) or bilinearly resized to 10x10.
    """
    side = 4 if dataset == "mnist4" else 10
    out = np.empty((images.shape[0], side * side))
    for start in range(0, images.shape[0], _FEATURE_CHUNK_ROWS):
        chunk = images[start : start + _FEATURE_CHUNK_ROWS].astype(np.float64)
        chunk /= 255.0
        if chunk.ndim == 4:
            chunk = np.einsum("c,nchw->nhw", _LUMA, chunk)
        small = avg_pool(chunk, side) if dataset == "mnist4" else resize_bilinear(chunk, side)
        out[start : start + chunk.shape[0]] = small.reshape(chunk.shape[0], -1)
    return out


def prepare_bundle(dataset: str, data_dir, seed: int, subset: int | None = None):
    """Load, filter, (optionally) subsample, split 80/20 and flatten a dataset.

    The split and subset draws come from named substreams of ``seed`` so they
    are shared across architecture sweeps.
    """
    from .training import DataBundle  # local import to avoid a cycle

    data_dir = Path(data_dir)
    if dataset == "cifar10":
        train_full, test = _load_cifar(data_dir)
    else:
        train_full, test = _load_pair(data_dir, dataset)
    if dataset == "mnist4":
        train_full = filter_classes(train_full, {0, 3, 6, 9})
        test = filter_classes(test, {0, 3, 6, 9})
    if subset is not None and subset < len(train_full):
        pick = substream(seed, "subset").choice(len(train_full), size=subset, replace=False)
        pick.sort()
        train_full = ImageDataset(train_full.images[pick], train_full.labels[pick], dataset)
    train, val = split(train_full, 0.8, child_seed(seed, "data-split"))
    del train_full  # split copied its rows; free the raw file bytes before the features
    return DataBundle(
        name=dataset,
        x_train=_features(dataset, train.images),
        y_train=train.labels,
        x_val=_features(dataset, val.images),
        y_val=val.labels,
        x_test=_features(dataset, test.images),
        y_test=test.labels,
    )
