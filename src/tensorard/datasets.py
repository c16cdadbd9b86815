"""Dataset ingestion: IDX files, synthetic teacher-generated tasks, batching."""

from __future__ import annotations

import gzip
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import factorized, network

__all__ = [
    "LabeledDataset",
    "load_mnist_idx",
    "save_mnist_idx",
    "gen_synthetic",
    "batches",
    "save_dataset",
    "load_dataset",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Inputs (float features or integer token indices) with integer labels."""

    inputs: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise ValueError("labels must be a nonempty 1-d integer array")
        if self.inputs.ndim == 0 or self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on the sample count")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ValueError(f"labels must lie in [0, {self.classes})")

    def __len__(self):
        return self.labels.shape[0]

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.inputs[idx], self.labels[idx], self.classes)


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_mnist_idx(images_path, labels_path) -> LabeledDataset:
    """Parse big-endian IDX image/label files into a scaled float dataset.

    Pixels are scaled to [0, 1] by dividing by 255; gzipped files are
    handled transparently.
    """
    img = _read_bytes(images_path)
    if len(img) < 16:
        raise ValueError(f"{images_path}: truncated header at offset {len(img)}")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IMAGES_MAGIC:
        raise ValueError(
            f"{images_path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{IMAGES_MAGIC:08x}"
        )
    need = 16 + count * rows * cols
    if len(img) < need:
        raise ValueError(f"{images_path}: truncated pixel data at offset {len(img)}")
    pixels = np.frombuffer(img, dtype=np.uint8, count=count * rows * cols, offset=16)

    lbl = _read_bytes(labels_path)
    if len(lbl) < 8:
        raise ValueError(f"{labels_path}: truncated header at offset {len(lbl)}")
    lmagic, lcount = struct.unpack(">II", lbl[:8])
    if lmagic != LABELS_MAGIC:
        raise ValueError(
            f"{labels_path}: bad magic 0x{lmagic:08x} at offset 0, "
            f"expected 0x{LABELS_MAGIC:08x}"
        )
    if len(lbl) < 8 + lcount:
        raise ValueError(f"{labels_path}: truncated label data at offset {len(lbl)}")
    if lcount != count:
        raise ValueError(
            f"count mismatch: {count} images but {lcount} labels"
        )
    labels = np.frombuffer(lbl, dtype=np.uint8, count=lcount, offset=8).astype(np.int64)
    inputs = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
    classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(inputs, labels, classes)


def save_mnist_idx(dataset: LabeledDataset, images_path, labels_path,
                   rows: int = 28, cols: int = 28) -> None:
    """Write a dataset back to IDX bytes; inverse of :func:`load_mnist_idx`."""
    n = len(dataset)
    if dataset.inputs.shape[1] != rows * cols:
        raise ValueError(f"feature dim {dataset.inputs.shape[1]} != {rows}*{cols}")
    pixels = np.rint(dataset.inputs * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def gen_synthetic(
    kind: str,
    row_dims,
    col_dims,
    true_ranks,
    num_samples: int,
    seed: int = 0,
    label_sampling: str = "argmax",
    in_features: int | None = None,
    out_features: int | None = None,
):
    """Labeled data from a one-layer tensorized classifier at fixed true ranks.

    The teacher's factors are drawn N(0,1) and frozen; labels are the argmax
    of its logits (or multinomial draws with ``label_sampling="multinomial"``).
    Returns (dataset, teacher_network) so recovered ranks can be compared.
    """
    if label_sampling not in ("argmax", "multinomial"):
        raise ValueError(f"unknown label_sampling {label_sampling!r}")
    row_dims, col_dims = [int(d) for d in row_dims], [int(d) for d in col_dims]
    if in_features is None:
        in_features = math.prod(row_dims)
    if out_features is None:
        out_features = math.prod(row_dims) * math.prod(col_dims) // in_features
    factorized.FORMATS[kind].check_rank_caps(row_dims, col_dims, true_ranks)

    rng = np.random.default_rng(seed)
    teacher = network.build_network(
        [{"type": "tensorized_linear", "format": kind, "row_dims": row_dims,
          "col_dims": col_dims, "max_rank": true_ranks, "in_features": in_features,
          "out_features": out_features, "activation": "identity"}],
        out_features, rng, std_ratio=0.0,
    )
    # Teacher factors are plain N(0,1) draws, not variance-matched.
    for f in teacher.layers[0].weight.factors:
        f.mean[...] = rng.standard_normal(f.shape)
    inputs = rng.standard_normal((num_samples, in_features))
    logits = teacher.forward(inputs)
    if label_sampling == "argmax":
        labels = np.argmax(logits, axis=1)
    else:
        probs = network.softmax(logits)
        cum = np.cumsum(probs, axis=1)
        u = rng.random((num_samples, 1))
        labels = (u > cum).sum(axis=1)
    return LabeledDataset(inputs, labels.astype(np.int64), out_features), teacher


def batches(dataset: LabeledDataset, batch_size: int, epoch_seed):
    """Seeded shuffle of [0, N) split into consecutive slices; short tail kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = np.random.default_rng(epoch_seed).permutation(len(dataset))
    return [perm[i : i + batch_size] for i in range(0, len(dataset), batch_size)]


# -- simple blob serialization -------------------------------------------------


def save_dataset(dataset: LabeledDataset, prefix) -> None:
    """Write ``<prefix>.json`` (header) and ``<prefix>.bin`` (raw arrays)."""
    prefix = Path(prefix)
    token_inputs = np.issubdtype(dataset.inputs.dtype, np.integer)
    inputs = (
        dataset.inputs.astype("<i8")
        if token_inputs
        else dataset.inputs.astype("<f8")
    )
    labels = dataset.labels.astype("<i8")
    header = {
        "num_samples": len(dataset),
        "classes": dataset.classes,
        "input_kind": "token" if token_inputs else "float",
        "input_shape": list(dataset.inputs.shape),
        "input_bytes": inputs.nbytes,
        "label_bytes": labels.nbytes,
    }
    prefix.with_suffix(".json").write_text(json.dumps(header, sort_keys=True, indent=2))
    with open(prefix.with_suffix(".bin"), "wb") as fh:
        fh.write(inputs.tobytes())
        fh.write(labels.tobytes())


def load_dataset(prefix) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`.

    A header that is not a JSON object holding every key :func:`save_dataset`
    writes, that names an unknown ``input_kind`` or that disagrees with the
    ``.bin`` file raises ``ValueError`` naming ``prefix``.
    """
    prefix = Path(prefix)
    try:
        header = json.loads(prefix.with_suffix(".json").read_text())
        return _dataset_from_blob(header, prefix.with_suffix(".bin").read_bytes())
    except ValueError as e:
        raise ValueError(f"{prefix} is not a readable dataset: {e}") from e


_INPUT_DTYPES = {"token": "<i8", "float": "<f8"}
_HEADER_SIZES = ("num_samples", "classes", "input_bytes", "label_bytes")


def _dataset_from_blob(header, raw) -> LabeledDataset:
    if not isinstance(header, dict):
        raise ValueError("its header is not a JSON object")
    missing = [k for k in (*_HEADER_SIZES, "input_kind", "input_shape") if k not in header]
    if missing:
        raise ValueError(f"its header lacks {', '.join(missing)}")
    kind, shape = header["input_kind"], header["input_shape"]
    if not isinstance(kind, str) or kind not in _INPUT_DTYPES:
        raise ValueError(f"unknown input_kind {kind!r}")
    sizes = [header[k] for k in _HEADER_SIZES] + (shape if isinstance(shape, list) else [None])
    if not all(type(n) is int and n >= 0 for n in sizes):
        raise ValueError("its header's sizes and input_shape must be nonnegative integers")
    if (header["input_bytes"] != 8 * math.prod(shape)
            or header["label_bytes"] != 8 * header["num_samples"]):
        raise ValueError("its header's byte counts disagree with input_shape and num_samples")
    if len(raw) != header["input_bytes"] + header["label_bytes"]:
        raise ValueError(f"expected {header['input_bytes'] + header['label_bytes']} "
                         f"bytes in the .bin file, got {len(raw)}")
    inputs = np.frombuffer(raw, dtype=_INPUT_DTYPES[kind], count=math.prod(shape))
    inputs = inputs.reshape(shape).copy()
    labels = np.frombuffer(
        raw, dtype="<i8", count=header["num_samples"], offset=header["input_bytes"]
    ).copy()
    return LabeledDataset(inputs, labels, header["classes"])
