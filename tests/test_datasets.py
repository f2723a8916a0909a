"""IDX/CIFAR parsing, pooling, resizing, filtering, splitting."""
import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from qdeq import datasets
from qdeq.datasets import (
    ImageDataset,
    _bilinear_weights,
    _features,
    _find,
    _load_cifar,
    _load_pair,
    avg_pool,
    dataset_available,
    filter_classes,
    load_cifar_binary,
    load_idx,
    prepare_bundle,
    resize_bilinear,
    split,
)
from qdeq.errors import DataFormatError, DimensionError
from qdeq.seeding import child_seed

from conftest import _idx_image_bytes, _idx_label_bytes, synthdata


@pytest.fixture
def one_image_idx(tmp_path):
    image = np.zeros((1, 28, 28), dtype=np.uint8)
    image[0, 3, 4] = 255
    (tmp_path / "imgs").write_bytes(_idx_image_bytes(image))
    (tmp_path / "lbls").write_bytes(_idx_label_bytes(np.array([7], dtype=np.uint8)))
    return tmp_path / "imgs", tmp_path / "lbls"


class TestLoadIdx:
    def test_single_image_scaling(self, one_image_idx):
        ds = load_idx(*one_image_idx)
        assert ds.images.shape == (1, 28, 28)
        assert ds.images.dtype == np.uint8
        assert ds.images[0, 3, 4] == 255
        assert ds.images.sum() == 255
        assert ds.labels[0] == 7

    def test_gzip_transparent(self, tmp_path, one_image_idx):
        img_path, lbl_path = one_image_idx
        gz_img = tmp_path / "imgs.gz"
        gz_lbl = tmp_path / "lbls.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        gz_lbl.write_bytes(gzip.compress(lbl_path.read_bytes()))
        ds = load_idx(gz_img, gz_lbl)
        assert ds.images.dtype == np.uint8
        assert ds.images[0, 3, 4] == 255

    def test_image_magic_passed_as_labels(self, tmp_path, one_image_idx):
        img_path, _ = one_image_idx
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img_path, img_path)

    def test_wrong_image_magic_reports_value(self, tmp_path):
        bad = struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4)
        path = tmp_path / "bad"
        path.write_bytes(bad)
        with pytest.raises(DataFormatError, match="0x00000801"):
            load_idx(path, path)

    def test_truncated_file(self, tmp_path, one_image_idx):
        img_path, lbl_path = one_image_idx
        clipped = tmp_path / "clipped"
        clipped.write_bytes(img_path.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="bytes"):
            load_idx(clipped, lbl_path)

    def test_count_mismatch(self, tmp_path, one_image_idx):
        img_path, _ = one_image_idx
        two_labels = tmp_path / "two"
        two_labels.write_bytes(_idx_label_bytes(np.array([1, 2], dtype=np.uint8)))
        with pytest.raises(DataFormatError, match="labels"):
            load_idx(img_path, two_labels)


class TestLoadCifar:
    def test_zero_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(3073))
        ds = load_cifar_binary(path)
        assert ds.images.shape == (1, 3, 32, 32)
        assert ds.images.sum() == 0 and ds.labels[0] == 0

    def test_luma_conversion(self, tmp_path):
        record = bytearray(3073)
        record[0] = 3
        record[1 : 1 + 1024] = b"\xff" * 1024  # pure red
        path = tmp_path / "red.bin"
        path.write_bytes(bytes(record))
        ds = load_cifar_binary(path)
        assert np.allclose(_features("cifar10", ds.images), 0.299, atol=1e-12)
        assert ds.labels[0] == 3

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(DataFormatError, match="multiple"):
            load_cifar_binary(path)


class TestAvgPool:
    def test_constant(self):
        out = avg_pool(np.full((28, 28), 0.37), 4)
        assert np.allclose(out, 0.37)

    def test_single_hot_pixel(self):
        image = np.zeros((28, 28))
        image[0, 0] = 1.0
        out = avg_pool(image, 4)
        assert out[0, 0] == pytest.approx(1.0 / 49.0, rel=1e-12)
        assert out.sum() == pytest.approx(1.0 / 49.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        image = rng.random((28, 28))
        out = avg_pool(image, 4)
        for i in range(4):
            for j in range(4):
                window = image[7 * i : 7 * i + 7, 7 * j : 7 * j + 7]
                assert abs(out[i, j] - window.mean()) < 1e-12

    def test_indivisible(self):
        with pytest.raises(DimensionError):
            avg_pool(np.zeros((28, 28)), 5)


class TestResizeBilinear:
    def test_constant(self):
        out = resize_bilinear(np.full((28, 28), 0.6), 10)
        assert np.allclose(out, 0.6)

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(1)
        image = rng.random((10, 10))
        assert np.allclose(resize_bilinear(image, 10), image, atol=1e-12)

    def test_linear_ramp_preserved(self):
        rows = np.linspace(0.0, 1.0, 28)
        cols = np.linspace(0.0, 0.5, 28)
        image = rows[:, None] + cols[None, :]
        out = resize_bilinear(image, 10)
        expected = np.linspace(0.0, 1.0, 10)[:, None] + np.linspace(0.0, 0.5, 10)[None, :]
        assert np.abs(out - expected).max() < 1e-6

    def test_range_preserved(self):
        rng = np.random.default_rng(2)
        out = resize_bilinear(rng.random((32, 32)), 10)
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12


class TestFilterAndSplit:
    def _dataset(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        images = np.arange(labels.size, dtype=np.float64).reshape(-1, 1, 1) / labels.size
        return ImageDataset(images, labels, "toy")

    def test_remap_ascending(self):
        ds = filter_classes(self._dataset([0, 3, 6, 9, 9, 1]), {0, 3, 6, 9})
        assert ds.labels.tolist() == [0, 1, 2, 3, 3]

    def test_keep_all_is_identity_remap(self):
        ds = filter_classes(self._dataset([2, 0, 1]), {0, 1, 2})
        assert ds.labels.tolist() == [2, 0, 1]

    def test_order_preserved(self):
        ds = filter_classes(self._dataset([3, 0, 3, 0]), {3})
        assert np.allclose(ds.images.ravel() * 4, [0, 2])

    def test_empty_keep_rejected(self):
        with pytest.raises(DimensionError):
            filter_classes(self._dataset([1]), set())

    def test_split_sizes(self):
        train, val = split(self._dataset(np.arange(10) % 3), 0.8, seed=0)
        assert len(train) == 8 and len(val) == 2

    def test_split_deterministic(self):
        ds = self._dataset(np.arange(20) % 4)
        a = split(ds, 0.8, seed=5)
        b = split(ds, 0.8, seed=5)
        assert np.array_equal(a[0].images, b[0].images)

    def test_split_is_partition(self):
        ds = self._dataset(np.arange(17) % 4)
        train, val = split(ds, 0.8, seed=3)
        merged = np.concatenate([train.images.ravel(), val.images.ravel()])
        assert sorted(merged.tolist()) == sorted(ds.images.ravel().tolist())


class TestPrepareBundle:
    def test_digits_bundle_shapes_and_ranges(self, digits_data_dir):
        bundle = prepare_bundle("mnist4", digits_data_dir, seed=0)
        assert bundle.x_train.shape[1] == 16
        assert set(np.unique(bundle.y_train)) <= {0, 1, 2, 3}
        for arr in (bundle.x_train, bundle.x_val, bundle.x_test):
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        # 80/20 split of the filtered training pool
        total = bundle.x_train.shape[0] + bundle.x_val.shape[0]
        assert bundle.x_train.shape[0] == int(0.8 * total)

    def test_subset_and_determinism(self, digits_data_dir):
        a = prepare_bundle("mnist4", digits_data_dir, seed=1, subset=100)
        b = prepare_bundle("mnist4", digits_data_dir, seed=1, subset=100)
        assert a.x_train.shape[0] + a.x_val.shape[0] == 100
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_val, b.y_val)

    def test_ten_class_features_are_resized(self, digits_data_dir):
        bundle = prepare_bundle("mnist10", digits_data_dir, seed=0)
        assert bundle.x_train.shape[1] == 100
        assert set(np.unique(bundle.y_train)) <= set(range(10))

    def test_availability_probe(self, digits_data_dir, tmp_path):
        for name in ("mnist4", "fashionmnist10", "cifar10"):
            assert dataset_available(name, digits_data_dir)
            assert not dataset_available(name, tmp_path)
        assert not dataset_available("mnist4", None)


_REFERENCE_LUMA = np.array([0.299, 0.587, 0.114])


def _reference_bundle(dataset, data_dir, seed):
    """(x, y) per split from the float64 pipeline that uint8 ingestion replaced.

    Pixels become float64 in [0, 1] (and luma) on load; the class filter and
    the split select rows of the float images; resizing is the three-operand
    einsum.
    """
    def scaled(ds):
        images = ds.images.astype(np.float64) / 255.0
        if images.ndim == 4:
            images = np.einsum("c,nchw->nhw", _REFERENCE_LUMA, images)
        return images, ds.labels

    if dataset == "cifar10":
        batches = [_find(data_dir, dataset, f"data_batch_{i}.bin") for i in range(1, 6)]
        parts = [scaled(load_cifar_binary(path)) for path in batches]
        train = (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
        test = scaled(load_cifar_binary(_find(data_dir, dataset, "test_batch.bin")))
    else:
        train, test = (scaled(ds) for ds in _load_pair(data_dir, dataset))
    if dataset == "mnist4":
        remap = {0: 0, 3: 1, 6: 2, 9: 3}

        def keep(images, labels):
            sel = np.isin(labels, list(remap))
            return images[sel], np.array([remap[int(l)] for l in labels[sel]], dtype=np.int64)

        train, test = keep(*train), keep(*test)
    order = np.random.default_rng(child_seed(seed, "data-split")).permutation(len(train[1]))
    n_train = int(0.8 * len(order))
    head, tail = order[:n_train], order[n_train:]

    def features(images):
        if dataset == "mnist4":
            return images.reshape(-1, 4, 7, 4, 7).mean(axis=(-3, -1)).reshape(len(images), -1)
        rows = _bilinear_weights(images.shape[1], 10)
        cols = _bilinear_weights(images.shape[2], 10)
        return np.einsum("oh,...hw,pw->...op", rows, images, cols).reshape(len(images), -1)

    return [
        (features(train[0][head]), train[1][head]),
        (features(train[0][tail]), train[1][tail]),
        (features(test[0]), test[1]),
    ]


def _bundle_splits(bundle):
    return [(bundle.x_train, bundle.y_train), (bundle.x_val, bundle.y_val), (bundle.x_test, bundle.y_test)]


class TestIngestion:
    @pytest.mark.parametrize(
        "dataset, atol",
        [("mnist4", 0.0), ("mnist10", 1e-15), ("fashionmnist10", 1e-15), ("cifar10", 1e-15)],
    )
    def test_matches_float_pipeline(self, digits_data_dir, dataset, atol):
        # pooling arithmetic is unchanged (bit for bit); the matmul resize
        # reorders the einsum's sums (within 1e-15)
        bundle = prepare_bundle(dataset, digits_data_dir, seed=0)
        reference = _reference_bundle(dataset, digits_data_dir, 0)
        for (x, y), (x_ref, y_ref) in zip(_bundle_splits(bundle), reference):
            assert x.dtype == np.float64 and x.shape == x_ref.shape
            assert np.array_equal(y, y_ref)
            assert np.abs(x - x_ref).max() <= atol

    @pytest.mark.parametrize("dataset", ["mnist4", "cifar10"])
    def test_chunk_boundaries_do_not_change_features(self, digits_data_dir, monkeypatch, dataset):
        whole = prepare_bundle(dataset, digits_data_dir, seed=0)
        monkeypatch.setattr(datasets, "_FEATURE_CHUNK_ROWS", 7)
        assert whole.x_test.shape[0] > 7
        chunked = prepare_bundle(dataset, digits_data_dir, seed=0)
        for (x, _), (x_chunked, _) in zip(_bundle_splits(whole), _bundle_splits(chunked)):
            assert np.array_equal(x, x_chunked)

    def test_empty_split_has_feature_columns(self):
        assert _features("mnist4", np.zeros((0, 28, 28), dtype=np.uint8)).shape == (0, 16)
        assert _features("cifar10", np.zeros((0, 3, 32, 32), dtype=np.uint8)).shape == (0, 100)

    def test_peak_memory_per_pixel(self, digits_data_dir):
        # pixels stay uint8 until a bounded chunk is scaled; a float64 copy of
        # every image would cost 8 bytes per pixel on its own
        prepare_bundle("mnist4", digits_data_dir, seed=0)
        tracemalloc.start()
        try:
            prepare_bundle("mnist4", digits_data_dir, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        train, test = _load_pair(digits_data_dir, "mnist4")
        assert peak < 5 * (train.images.size + test.images.size)

    def test_cifar_load_peak_memory(self, tmp_path):
        # the five training batches share one byte buffer, so loading holds
        # little beyond the training pixels themselves
        synthdata.write_cifar(tmp_path, 1, 100, 10)
        tracemalloc.start()
        try:
            train, _ = _load_cifar(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert train.images.shape == (5000, 3, 32, 32)
        assert peak < 1.5 * train.images.nbytes


class TestCifarBundle:
    @pytest.fixture
    def cifar_dir(self, tmp_path):
        rng = np.random.default_rng(0)
        root = tmp_path / "cifar-10-batches-bin"
        root.mkdir()
        for name, count in [(f"data_batch_{i}.bin", 40) for i in range(1, 6)] + [("test_batch.bin", 20)]:
            records = bytearray()
            for _ in range(count):
                records.append(int(rng.integers(0, 10)))
                records.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
            (root / name).write_bytes(bytes(records))
        return tmp_path

    def test_prepare_bundle_resizes_to_hundred_features(self, cifar_dir):
        bundle = prepare_bundle("cifar10", cifar_dir, seed=0)
        assert bundle.x_train.shape == (160, 100)  # 80% of 5 x 40 records
        assert bundle.x_val.shape == (40, 100)
        assert bundle.x_test.shape == (20, 100)
        assert bundle.x_train.min() >= 0.0 and bundle.x_train.max() <= 1.0
        assert set(np.unique(bundle.y_train)) <= set(range(10))

    def test_training_batches_load_in_file_order(self, cifar_dir):
        train, test = _load_cifar(cifar_dir)
        root = cifar_dir / "cifar-10-batches-bin"
        parts = [load_cifar_binary(root / f"data_batch_{i}.bin") for i in range(1, 6)]
        assert np.array_equal(train.images, np.concatenate([p.images for p in parts]))
        assert np.array_equal(train.labels, np.concatenate([p.labels for p in parts]))
        assert test.images.shape == (20, 3, 32, 32)

    def test_truncated_training_batch_named(self, cifar_dir):
        path = cifar_dir / "cifar-10-batches-bin" / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match="data_batch_3"):
            _load_cifar(cifar_dir)


class TestOfficialFiles:
    def test_mnist_train_counts(self):
        from conftest import require_dataset
        from qdeq.datasets import _load_pair

        data_dir = require_dataset("mnist4")
        train, test = _load_pair(data_dir, "mnist4")
        assert train.images.shape == (60000, 28, 28)
        filtered = filter_classes(train, {0, 3, 6, 9})
        assert 24000 <= len(filtered) <= 25000

    def test_cifar_batch_counts(self):
        from conftest import require_dataset
        from qdeq.datasets import _find

        data_dir = require_dataset("cifar10")
        ds = load_cifar_binary(_find(data_dir, "cifar10", "data_batch_1.bin"))
        assert len(ds) == 10000
