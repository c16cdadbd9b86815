"""Dense multilinear primitives: mode-n products, matrix folding, Khatri-Rao.

All tensors are float64 ``numpy.ndarray`` values in row-major (C) order with
the most significant index first.  Folding a matrix is therefore a pure
reinterpretation of its flat buffer.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_tensor",
    "mode_n_product",
    "fold_matrix",
    "khatri_rao",
]


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a C-contiguous float64 array with at least 1 mode."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if any(s < 1 for s in arr.shape):
        raise ValueError(f"every mode size must be >= 1, got shape {arr.shape}")
    return arr


def mode_n_product(tensor, matrix, axis: int) -> np.ndarray:
    """Contract mode ``axis`` of ``tensor`` with the columns of ``matrix``.

    ``matrix`` must have shape ``(new_size, tensor.shape[axis])``.  The result
    keeps the contracted mode in place (size ``new_size``), even when
    ``new_size`` is 1; callers may squeeze.
    """
    t = np.asarray(tensor, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    axis = int(axis)
    if not 0 <= axis < t.ndim:
        raise ValueError(f"axis {axis} out of range for shape {t.shape}")
    if m.shape[1] != t.shape[axis]:
        raise ValueError(
            f"shape mismatch: matrix columns {m.shape[1]} != mode size {t.shape[axis]}"
        )
    # View the tensor as (before, I, after) so the product is one GEMM, or
    # one GEMM per leading index, and lands contiguous with the mode in place.
    before = math.prod(t.shape[:axis])
    after = math.prod(t.shape[axis + 1 :])
    shape = t.shape[:axis] + (m.shape[0],) + t.shape[axis + 1 :]
    if after == 1:
        return (t.reshape(before, t.shape[axis]) @ m.T).reshape(shape)
    return np.matmul(m, t.reshape(before, t.shape[axis], after)).reshape(shape)


def fold_matrix(matrix, dims) -> np.ndarray:
    """Fold a matrix into a tensor whose row-major buffer matches the matrix's."""
    w = np.asarray(matrix, dtype=np.float64)
    dims = [int(d) for d in dims]
    if math.prod(dims) != w.size:
        raise ValueError(
            f"product of dims {dims} is {math.prod(dims)}, need {w.size}"
        )
    return np.ascontiguousarray(w).reshape(dims)


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of matrices sharing a column count."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    cols = mats[0].shape[1]
    if any(m.ndim != 2 or m.shape[1] != cols for m in mats):
        raise ValueError("all matrices must be 2-d with the same column count")
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, cols)
    return out
