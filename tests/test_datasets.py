import gzip
import struct

import numpy as np
import pytest

from tensorard import datasets
from tensorard.datasets import (
    LabeledDataset,
    batches,
    gen_synthetic,
    load_dataset,
    load_mnist_idx,
    save_dataset,
    save_mnist_idx,
)


def write_idx_pair(tmp_path, pixels, labels, rows=28, cols=28):
    n = pixels.shape[0]
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIdxLoader:
    def test_parses_and_scales(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        pixels[0, 0, 0] = 0
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, pixels, labels)
        ds = load_mnist_idx(img, lbl)
        assert len(ds) == 5
        assert ds.inputs.shape == (5, 784)
        assert ds.inputs[0, 0] == 0.0
        assert ds.inputs.max() <= 1.0
        np.testing.assert_array_equal(ds.labels, labels)

    def test_bad_image_magic_names_expected(self, tmp_path):
        img = tmp_path / "bad.idx"
        img.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 28, 28) + b"\0" * 784)
        lbl = tmp_path / "lbl.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\0")
        with pytest.raises(ValueError, match="0x00000803"):
            load_mnist_idx(img, lbl)

    def test_bad_label_magic_names_expected(self, tmp_path):
        rng = np.random.default_rng(1)
        img, lbl = write_idx_pair(
            tmp_path, rng.integers(0, 256, (1, 28, 28), dtype=np.uint8), np.zeros(1)
        )
        lbl.write_bytes(struct.pack(">II", 0x00000802, 1) + b"\0")
        with pytest.raises(ValueError, match="0x00000801"):
            load_mnist_idx(img, lbl)

    def test_truncation_reports_offset(self, tmp_path):
        img = tmp_path / "trunc.idx"
        payload = struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\0" * 100
        img.write_bytes(payload)
        lbl = tmp_path / "lbl.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\0\0")
        with pytest.raises(ValueError, match=f"offset {len(payload)}"):
            load_mnist_idx(img, lbl)

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        img, _ = write_idx_pair(
            tmp_path, rng.integers(0, 256, (3, 28, 28), dtype=np.uint8), np.zeros(3)
        )
        lbl = tmp_path / "short.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\0\0")
        with pytest.raises(ValueError, match="count mismatch"):
            load_mnist_idx(img, lbl)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
        labels = np.array([9, 8, 7, 6], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, pixels, labels)
        ds = load_mnist_idx(img, lbl)
        out_img, out_lbl = tmp_path / "out_img.idx", tmp_path / "out_lbl.idx"
        save_mnist_idx(ds, out_img, out_lbl)
        assert out_img.read_bytes() == img.read_bytes()
        assert out_lbl.read_bytes() == lbl.read_bytes()

    def test_gzip_transparent(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
        labels = np.array([1, 2], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, pixels, labels)
        gz_img = tmp_path / "images.idx.gz"
        gz_img.write_bytes(gzip.compress(img.read_bytes()))
        ds_plain = load_mnist_idx(img, lbl)
        ds_gz = load_mnist_idx(gz_img, lbl)
        np.testing.assert_array_equal(ds_plain.inputs, ds_gz.inputs)


class TestSynthetic:
    def test_dataset_shape_and_classes(self):
        ds, teacher = gen_synthetic(
            "cp", [28, 28], [10], 5, num_samples=50, seed=0
        )
        assert ds.inputs.shape == (50, 784)
        assert ds.classes == 10
        assert teacher.classes == 10

    def test_same_seed_identical(self):
        a, _ = gen_synthetic("tt", [4, 4], [3], [2, 2], num_samples=30, seed=9)
        b, _ = gen_synthetic("tt", [4, 4], [3], [2, 2], num_samples=30, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_reproducible_from_teacher(self):
        ds, teacher = gen_synthetic("tucker", [4, 4], [4], 2, num_samples=40, seed=5)
        logits = teacher.forward(ds.inputs)
        np.testing.assert_array_equal(np.argmax(logits, axis=1), ds.labels)

    def test_rank_one_two_class_is_sign_test(self):
        ds, teacher = gen_synthetic("cp", [2], [2], 1, num_samples=60, seed=7)
        w = teacher.forward(np.eye(2))  # zero teacher bias, so rows of W
        # rank-1 two-column weight: argmax decided by sign of a single functional
        diff = w[:, 0] - w[:, 1]
        want = (ds.inputs @ diff < 0).astype(int)
        np.testing.assert_array_equal(ds.labels, want)

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            gen_synthetic("cp", [4, 4], [3], 5, num_samples=10, seed=0)
        with pytest.raises(ValueError, match="rank"):
            gen_synthetic("tucker", [4, 4], [3], [5, 2, 2], num_samples=10, seed=0)

    @pytest.mark.parametrize("kind,true_rank", [
        ("cp", [1, 5]),  # one entry only, so the 5 is never drawn
        ("cp", [5]),
        ("tucker", [1, 1, 5]),
        ("tt", [1, 9]),
        ("ttm", [9]),
    ])
    def test_every_true_rank_entry_checked(self, kind, true_rank):
        col = [4, 1] if kind == "ttm" else [4]
        with pytest.raises(ValueError, match="rank"):
            gen_synthetic(kind, [2, 3], col, true_rank, num_samples=10, seed=0)

    def test_multinomial_sampling_flag(self):
        ds, _ = gen_synthetic(
            "cp", [4], [3], 2, num_samples=500, seed=3, label_sampling="multinomial"
        )
        assert set(np.unique(ds.labels)) <= {0, 1, 2}

    def test_ttm_reinterpreted_buffer(self):
        ds, teacher = gen_synthetic(
            "ttm",
            [4, 7, 4],
            [7, 2, 5],
            [5, 5],
            num_samples=20,
            seed=1,
            in_features=784,
            out_features=10,
        )
        assert ds.inputs.shape == (20, 784)
        assert ds.classes == 10


class TestBatches:
    def test_sizes_with_short_tail(self):
        ds = LabeledDataset(np.zeros((10, 2)), np.zeros(10, dtype=int), 2)
        got = batches(ds, 4, epoch_seed=0)
        assert [len(b) for b in got] == [4, 4, 2]

    def test_same_seed_same_permutation(self):
        ds = LabeledDataset(np.zeros((17, 2)), np.zeros(17, dtype=int), 2)
        a = np.concatenate(batches(ds, 5, epoch_seed=[3, 4]))
        b = np.concatenate(batches(ds, 5, epoch_seed=[3, 4]))
        np.testing.assert_array_equal(a, b)

    def test_union_is_full_index_set(self):
        ds = LabeledDataset(np.zeros((23, 2)), np.zeros(23, dtype=int), 2)
        allidx = np.concatenate(batches(ds, 7, epoch_seed=1))
        assert sorted(allidx.tolist()) == list(range(23))

    def test_batch_size_must_be_positive(self):
        ds = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), 2)
        with pytest.raises(ValueError):
            batches(ds, 0, epoch_seed=0)


class TestBlob:
    def test_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = LabeledDataset(rng.standard_normal((9, 5)), rng.integers(0, 3, 9), 3)
        save_dataset(ds, tmp_path / "blob")
        back = load_dataset(tmp_path / "blob")
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.classes == 3

    def test_token_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = LabeledDataset(rng.integers(0, 100, size=40), rng.integers(0, 4, 40), 4)
        save_dataset(ds, tmp_path / "tok")
        back = load_dataset(tmp_path / "tok")
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        assert np.issubdtype(back.inputs.dtype, np.integer)

    def test_corrupt_length_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        ds = LabeledDataset(rng.standard_normal((4, 2)), rng.integers(0, 2, 4), 2)
        save_dataset(ds, tmp_path / "c")
        raw = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(tmp_path / "c")


class TestLabeledDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 3)), np.array([0, 5]), 3)

    def test_nested_list_inputs_build_the_array_dataset(self):
        rows = [[0.0, 1.0], [1.0, 2.0]]
        got = LabeledDataset(rows, [0, 1], 2)
        want = LabeledDataset(np.array(rows), np.array([0, 1]), 2)
        assert got.inputs.dtype == want.inputs.dtype
        np.testing.assert_array_equal(got.inputs, want.inputs)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert len(got.subset([1])) == 1

    def test_scalar_inputs_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            LabeledDataset(5.0, [0], 2)
