"""IDX / CIFAR-10 binary ingestion and the preprocessing pipeline.

IDX files are read bit-exactly by one parser (big-endian, image magic
0x00000803, label magic 0x00000801, the rank in the magic's low byte) with
transparent gzip handling; CIFAR-10 binary batches are 3073-byte records
(label byte + 3x1024 pixel planes). ``_FILES`` lists each dataset's files once,
for the loaders and the tests' availability probe alike. The loaders, the
class filter, the subset draw and the split all pass raw uint8 pixels along;
only ``_features`` scales them to [0, 1], converts CIFAR planes to grayscale
luma and pools or resizes, 64 images at a time. A block's float64 pixels
(0.4 MiB for MNIST, 1.5 MiB for CIFAR) then stay in a core's 2 MiB L2 cache
through every pass, and no float64 copy of a whole image set is ever held.
"""
from __future__ import annotations

import gzip
import math
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
class DataBundle:
    """Flat float64 features and int64 labels for the train, validation and test splits; a split
    that ``prepare_bundle`` was not asked to featurise has None for its features."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class ImageDataset:
    """Raw uint8 pixels with int64 labels; features come from ``_features``."""

    images: np.ndarray  # (N, H, W) uint8, or (N, 3, H, W) uint8 RGB planes for CIFAR
    labels: np.ndarray  # (N,) int64

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


def _parse_idx(raw: bytes, path, magic: int) -> np.ndarray:
    """An IDX array of bytes: the big-endian magic, whose low byte is the rank, one uint32 per
    dimension, then the entries."""
    rank = magic & 0xFF
    header = 4 * (rank + 1)
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated IDX header")
    found, *shape = struct.unpack(f">{rank + 1}I", raw[:header])
    if found != magic:
        raise DataFormatError(f"{path}: bad IDX magic 0x{found:08x}, expected 0x{magic:08x}")
    expected = header + math.prod(shape)
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path, labels_path) -> ImageDataset:
    images = _parse_idx(_read_bytes(images_path), images_path, IMAGE_MAGIC)
    labels = _parse_idx(_read_bytes(labels_path), labels_path, LABEL_MAGIC).astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"{images_path} holds {images.shape[0]} images but {labels_path} holds {labels.shape[0]} labels"
        )
    return ImageDataset(images, labels)


def _read_cifar_bytes(path) -> bytes:
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        raise DataFormatError(f"{path}: length {len(raw)} is not a multiple of {_CIFAR_RECORD}")
    return raw


def _parse_cifar_records(raw) -> ImageDataset:
    """Whole 3073-byte records -> uint8 RGB planes (N, 3, 32, 32), views of ``raw``, and labels."""
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    return ImageDataset(data[:, 1:].reshape(-1, 3, 32, 32), data[:, 0].astype(np.int64))


def load_cifar_binary(path) -> ImageDataset:
    """One CIFAR-10 binary batch -> uint8 RGB planes (N, 3, 32, 32) and labels."""
    return _parse_cifar_records(_read_cifar_bytes(path))


def avg_pool(image: np.ndarray, out_side: int = 4) -> np.ndarray:
    """Mean over contiguous square windows; side must divide the input side.

    Each window row's pixels are added left to right, then the row sums top to
    bottom, then divided by the window size: numpy's own order for
    ``reshape(..., s, h//s, s, w//s).mean(axis=(-3, -1))`` when windows are
    narrower than 8 pixels, so such pools match it bit for bit. From 8 wide,
    numpy's unrolled sum adds in another order, and the two differ in the last
    bits (up to 5 ulp at widths 8-16); no caller pools such windows.
    """
    if out_side < 1:
        raise DimensionError(f"output side must be at least 1, got {out_side}")
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape[-2:]
    if h % out_side or w % out_side:
        raise DimensionError(f"{h}x{w} image not divisible into {out_side}x{out_side} outputs")
    wh, ww = h // out_side, w // out_side
    rows = sum(image[..., j::ww] for j in range(ww))  # (..., h, out_side) window-row sums
    return sum(rows[..., i::wh, :] for i in range(wh)) / (wh * ww)


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
    if out_side < 1:
        raise DimensionError(f"output side must be at least 1, got {out_side}")
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
    return ImageDataset(dataset.images[sel], labels)


def split(dataset: ImageDataset, train_frac: float = 0.8, seed: int = 0):
    """Seeded uniform shuffle, then prefix split into (train, val)."""
    if not 0.0 < train_frac < 1.0:
        raise DimensionError("train_frac must lie strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(train_frac * len(dataset))
    head, tail = order[:n_train], order[n_train:]
    return (
        ImageDataset(dataset.images[head], dataset.labels[head]),
        ImageDataset(dataset.images[tail], dataset.labels[tail]),
    )


# ---------------------------------------------------------------------------
# file discovery + per-dataset preprocessing into flat feature bundles

_SUBDIRS = {
    "mnist4": ("mnist", "MNIST/raw", "."),
    "mnist10": ("mnist", "MNIST/raw", "."),
    "fashionmnist10": ("fashion-mnist", "fashionmnist", "FashionMNIST/raw", "."),
    "cifar10": ("cifar-10-batches-bin", "cifar10", "."),
}
_IDX_FILES = (
    "train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
)
_FILES = {  # every file a dataset needs, in the order its loader reads them
    "mnist4": _IDX_FILES,
    "mnist10": _IDX_FILES,
    "fashionmnist10": _IDX_FILES,
    "cifar10": tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",),
}


def _find(data_dir: Path, dataset: str, filename: str):
    for sub in _SUBDIRS[dataset]:
        for suffix in ("", ".gz"):
            candidate = data_dir / sub / (filename + suffix)
            if candidate.is_file():
                return candidate
    return None


def _paths(data_dir: Path, dataset: str) -> list:
    """The paths of ``_FILES[dataset]``; DataFormatError names the first file that is missing."""
    paths = []
    for filename in _FILES[dataset]:
        paths.append(_find(data_dir, dataset, filename))
        if paths[-1] is None:
            raise DataFormatError(f"{dataset}: {filename} not found under {data_dir}")
    return paths


def _load_pair(data_dir: Path, dataset: str):
    train_images, train_labels, test_images, test_labels = _paths(data_dir, dataset)
    return load_idx(train_images, train_labels), load_idx(test_images, test_labels)


def _load_cifar(data_dir: Path):
    *batches, test_path = _paths(data_dir, "cifar10")
    # one growing buffer takes each training batch's bytes, so no batch outlives its append
    raw = bytearray()
    for path in batches:
        raw += _read_cifar_bytes(path)
    return _parse_cifar_records(raw), load_cifar_binary(test_path)


_FEATURE_CHUNK_ROWS = 64  # images scaled to float64 at a time (see the module docstring)
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


def prepare_bundle(dataset: str, data_dir, seed: int, subset: int | None = None,
                   splits=("train", "val", "test")) -> DataBundle:
    """Load, filter, (optionally) subsample, split 80/20 and flatten a dataset.

    The split and subset draws come from named substreams of ``seed`` so they
    are shared across architecture sweeps. Only the ``splits`` named get
    features; the others keep their labels, and their features are None.
    """
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
        train_full = ImageDataset(train_full.images[pick], train_full.labels[pick])
    train, val = split(train_full, 0.8, child_seed(seed, "data-split"))
    del train_full  # split copied its rows; free the raw file bytes before the features
    x = {name: _features(dataset, part.images) if name in splits else None
         for name, part in (("train", train), ("val", val), ("test", test))}
    return DataBundle(
        name=dataset,
        x_train=x["train"],
        y_train=train.labels,
        x_val=x["val"],
        y_val=val.labels,
        x_test=x["test"],
        y_test=test.labels,
    )
